/* The solver's whole-subtree search, compiled.
 *
 * ws_search is wayscore.solver._fast_search without its task sink, branch
 * for branch: the loopless check, the learned per-edge thresholds, the bound
 * check and the floor behind a new threshold, the expansion cap, and the
 * score -> arrival -> node sequence tie-break.  The profile evaluators are
 * ArrivalProfile.arrival, ArrivalProfile.floor_after and ScoreProfile.value,
 * written with the same operations in the same order, so every double it
 * computes equals the one Python computes (build with -ffp-contract=off, so
 * that no multiply-add is fused).  wayscore/kernel.py builds and calls it.
 *
 * Preconditions, checked by the caller: node ids and edge indices in range,
 * every offset array non-decreasing and one longer than what it indexes,
 * every arrival profile with at least one breakpoint, score values padded to
 * one per boundary, and bounds with one entry per node.  Within them the
 * search reads and writes nothing outside its arrays.  What Python would
 * answer with an IndexError (a NaN departure) it returns as WS_DEFER, and
 * the caller runs the Python search instead.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* A network flattened by kernel.flatten().  The breakpoints of edge e are
 * xs/ys/floors[bp_start[e] .. bp_start[e + 1]), its score boundaries and
 * values sb/sv[sc_start[e] .. sc_start[e + 1]). */
typedef struct {
    int64_t nodes;
    int64_t edges;
    const int64_t *out_start; /* nodes + 1 offsets into out_edge */
    const int32_t *out_edge;  /* edge indices, in the order of out_edges */
    const int32_t *head;      /* per edge */
    const int64_t *bp_start;  /* edges + 1 */
    const double *xs;
    const double *ys;
    const double *floors;     /* floor_after's suffix floors, per breakpoint */
    const int64_t *sc_start;  /* edges + 1 */
    const double *sb;
    const double *sv;
    const double *sdef;       /* per edge */
} ws_network;

typedef struct {
    int64_t explored;
    int64_t length; /* of the best node sequence, 0 when none was found */
    double score;
    double arrival;
} ws_result;

enum { WS_DONE = 0, WS_LIMIT = 1, WS_DEFER = 2 };

/* bisect.bisect_right */
static int64_t bisect_right(const double *a, int64_t n, double x)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* ArrivalProfile.arrival; returns -1 where Python indexes past the last
 * breakpoint, which only a NaN departure reaches. */
static int arrival(const ws_network *net, int64_t e, double d, double *out)
{
    const int64_t lo = net->bp_start[e], k = net->bp_start[e + 1] - lo;
    const double *xs = net->xs + lo, *ys = net->ys + lo;
    if (d <= xs[0]) {
        *out = d + (ys[0] - xs[0]);
        return 0;
    }
    if (d >= xs[k - 1]) {
        *out = d + (ys[k - 1] - xs[k - 1]);
        return 0;
    }
    const int64_t i = bisect_right(xs, k, d) - 1;
    if (i + 1 >= k)
        return -1;
    const double x1 = xs[i], x2 = xs[i + 1], y1 = ys[i], y2 = ys[i + 1];
    const double dy = y2 - y1, dx = x2 - x1;
    if (dy == dx)
        *out = d + (y1 - x1);
    else
        *out = dy * (d - x1) / dx + y1;
    return 0;
}

/* ArrivalProfile.floor_after */
static double floor_after(const ws_network *net, int64_t e, double t)
{
    const int64_t lo = net->bp_start[e], k = net->bp_start[e + 1] - lo;
    const double *xs = net->xs + lo;
    const int64_t later = t > xs[0] ? bisect_right(xs, k, t) : 0;
    return later < k ? net->floors[lo + later] : INFINITY;
}

/* ScoreProfile.value */
static double score_value(const ws_network *net, int64_t e, double d)
{
    const int64_t lo = net->sc_start[e], k = net->sc_start[e + 1] - lo;
    if (k == 0) /* sb may be NULL then: take no offset from it */
        return net->sdef[e];
    const double *b = net->sb + lo;
    if (d < b[0] || d >= b[k - 1])
        return net->sdef[e];
    return net->sv[lo + bisect_right(b, k, d) - 1];
}

/* Whether (path[0..len), h) sorts before best[0..best_len) as tuples do. */
static int sequence_less(const int32_t *path, int64_t len, int32_t h,
                         const int32_t *best, int64_t best_len)
{
    const int64_t n = len + 1, common = n < best_len ? n : best_len;
    for (int64_t i = 0; i < common; i++) {
        const int32_t a = i < len ? path[i] : h;
        if (a != best[i])
            return a < best[i];
    }
    return n < best_len;
}

/* floor_after's suffix floors for every edge, by the same expressions.
 * Returns -1 if an edge has no breakpoint. */
int ws_floors(int64_t edges, const int64_t *bp_start, const double *xs,
              const double *ys, double *floors)
{
    for (int64_t e = 0; e < edges; e++) {
        const int64_t lo = bp_start[e], k = bp_start[e + 1] - lo;
        if (k < 1)
            return -1;
        const double *x = xs + lo, *y = ys + lo;
        double least = x[k - 1] + (y[k - 1] - x[k - 1]); /* the last branch */
        floors[lo + k - 1] = least;
        for (int64_t j = k - 2; j >= 0; j--) {
            const double x1 = x[j], y1 = y[j], x2 = x[j + 1], y2 = y[j + 1];
            const double first = y2 - y1 == x2 - x1 ? x1 + (y1 - x1) : y1;
            if (first < least)
                least = first;
            floors[lo + j] = least;
        }
    }
    return 0;
}

/* The best destination candidate among the loopless extensions of
 * prefix[0..prefix_len), reached at t with the accumulated score.
 *
 * thresholds holds one departure per edge, NaN where none was learned; it
 * is read and updated like _SearchState.thresholds.  The search counts at
 * most cap + 1 labels (1 for a negative cap) and returns WS_LIMIT when it
 * counts past cap.  best_path has room for one id per node. */
int ws_search(const ws_network *net, const double *bounds, double *thresholds,
              int64_t dest, double t_arr, double eps,
              const int32_t *prefix, int64_t prefix_len, double t,
              double score, int64_t cap, int32_t *best_path, ws_result *res)
{
    const int64_t n = net->nodes;
    const int64_t *out_start = net->out_start;
    const int32_t *out_edge = net->out_edge, *head = net->head;
    const double deadline = t_arr + eps;
    int status = WS_DONE;
    int64_t explored = 0, best_len = 0;
    double best_score = -INFINITY, best_arrival = INFINITY;

    res->explored = 0;
    res->length = 0;
    if (prefix_len < 1 || prefix_len > n)
        return WS_DEFER;
    /* The frames below the current node: its parent's remaining out-edges
     * pos..end, departure time and score. */
    struct frame {
        int64_t pos, end;
        double t, score;
    } *stack = malloc((size_t)n * sizeof *stack);
    int32_t *path = malloc((size_t)n * sizeof *path);
    unsigned char *visited = calloc((size_t)n, 1);
    if (!stack || !path || !visited) {
        status = WS_DEFER;
        goto out;
    }
    for (int64_t i = 0; i < prefix_len; i++) {
        if (prefix[i] < 0 || prefix[i] >= n || visited[prefix[i]]) {
            status = WS_DEFER;
            goto out;
        }
        visited[prefix[i]] = 1;
        path[i] = prefix[i];
    }
    int64_t depth = prefix_len - 1, sp = 0;
    int64_t pos = out_start[path[depth]], end = out_start[path[depth] + 1];
    for (;;) {
        while (pos < end) {
            const int32_t e = out_edge[pos++], h = head[e];
            if (visited[h] || t >= thresholds[e])
                continue;
            double arr;
            if (arrival(net, e, t, &arr)) {
                status = WS_DEFER;
                goto out;
            }
            const double limit = bounds[h] + eps;
            if (arr > limit) {
                /* No later departure arrives below min(arr, floor), so with
                 * the floor above the limit the edge fails from t on. */
                if (floor_after(net, e, t) > limit)
                    thresholds[e] = t;
                continue;
            }
            if (++explored > cap) {
                status = WS_LIMIT;
                goto out;
            }
            const double new_score = score + score_value(net, e, t);
            if (h == dest) {
                if (arr <= deadline) {
                    int take = 0;
                    if (new_score > best_score) {
                        best_score = new_score;
                        best_arrival = arr;
                        take = 1;
                    } else if (new_score == best_score) {
                        if (arr < best_arrival) {
                            best_arrival = arr;
                            take = 1;
                        } else if (arr == best_arrival) {
                            take = sequence_less(path, depth + 1, h, best_path,
                                                 best_len);
                        }
                    }
                    if (take) {
                        memcpy(best_path, path, (size_t)(depth + 1) * sizeof *path);
                        best_path[depth + 1] = h;
                        best_len = depth + 2;
                    }
                }
                continue;
            }
            stack[sp].pos = pos;
            stack[sp].end = end;
            stack[sp].t = t;
            stack[sp].score = score;
            sp++;
            visited[h] = 1;
            path[++depth] = h;
            pos = out_start[h];
            end = out_start[h + 1];
            t = arr;
            score = new_score;
        }
        if (sp == 0)
            break;
        visited[path[depth--]] = 0;
        sp--;
        pos = stack[sp].pos;
        end = stack[sp].end;
        t = stack[sp].t;
        score = stack[sp].score;
    }
out:
    res->explored = explored;
    res->length = best_len;
    res->score = best_score;
    res->arrival = best_arrival;
    free(stack);
    free(path);
    free(visited);
    return status;
}
