"""Score-maximizing route search on time-dependent road networks.

Given a directed network whose edges carry time-of-day arrival and score
profiles, find the loopless source-destination path that maximizes the
accumulated score while arriving within a travel-time budget.
"""

from .network import Edge, RoadNetwork, build_network, load_network, save_network
from .profiles import ArrivalProfile, ScoreProfile
from .solver import (
    Constraint,
    PathResult,
    SolveResult,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OK,
    solve,
)
from .traversal import Query, build_query, earliest_arrival, latest_departures

__version__ = "0.1.0"

__all__ = [
    "ArrivalProfile",
    "Constraint",
    "Edge",
    "PathResult",
    "Query",
    "RoadNetwork",
    "STATUS_INFEASIBLE",
    "STATUS_LIMIT",
    "STATUS_OK",
    "SolveResult",
    "ScoreProfile",
    "build_network",
    "build_query",
    "earliest_arrival",
    "latest_departures",
    "load_network",
    "save_network",
    "solve",
]
