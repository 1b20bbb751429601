/* The solver's whole-subtree search and the fastest-arrival query, compiled.
 *
 * ws_search is wayscore.solver._fast_search, branch for branch: the
 * loopless check, the learned per-edge thresholds, the bound check and the
 * floor behind a new threshold, the expansion cap, and the score -> arrival
 * -> node sequence tie-break.  Asked for more than one worker, it splits a
 * search that outgrows its probe among threads it starts and joins itself
 * (build with -pthread).  ws_earliest is
 * wayscore.traversal.earliest_arrival, the forward Dijkstra behind each
 * query's budget, with the same heap order and relaxation rules.  The
 * profile evaluators are ArrivalProfile.arrival, ArrivalProfile.floor_after
 * and ScoreProfile.value, written with the same operations in the same
 * order, so every double the kernel computes equals the one Python computes
 * (build with -ffp-contract=off, so that no multiply-add is fused).
 * ws_build builds every network the kernel searches, given as the file
 * parser reads one, in one block that ws_free unmaps: the kernel's arrays,
 * each distinct row of departures stored once, and the columns
 * wayscore.network.load_network builds a network's lists from.  ws_load
 * parses a memory-mapped network file, makes the Python loader's checks as
 * yes/no predicates (ws_fifo is check_fifo; edges_ok, has_duplicate and
 * ws_build's the rest) and hands it to ws_build; a file it defers is read in
 * Python.  wayscore.kernel.flatten packs a network built in Python for it.
 *
 * ws_build's checks give the search's preconditions: node ids and edge
 * indices in range, every offset array non-decreasing and one longer than
 * what it indexes, every arrival profile with at least one breakpoint, and
 * score values padded to one per boundary; the caller passes bounds with one
 * entry per node.  Within them the kernel reads and writes nothing outside
 * its arrays.  What Python would answer with an IndexError (a NaN
 * departure) it returns as WS_DEFER, and the caller runs the Python code
 * instead.
 */

#include <fcntl.h>
#include <float.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

/* A network in the kernel's layout, built by ws_build.
 * Edge e has k = bp_start[e + 1] - bp_start[e] breakpoints: its arrivals and
 * floors are ys/floors[bp_start[e] .. bp_start[e + 1]), its departures
 * xs[xs_start[e] .. xs_start[e] + k), which edges with the same departures
 * may share.  Its score boundaries and values are sb/sv[sc_start[e] ..
 * sc_start[e + 1]). */
typedef struct {
    int64_t nodes;
    int64_t edges;
    const int64_t *out_start; /* nodes + 1 offsets into out_edge */
    const int32_t *out_edge;  /* edge indices, in the order of out_edges */
    const int32_t *head;      /* per edge */
    const int64_t *bp_start;  /* edges + 1 */
    const int64_t *xs_start;  /* per edge */
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
    int64_t length;  /* of the best node sequence, 0 when none was found */
    int64_t claimed; /* subtrees of the split searched */
    int64_t threads; /* that searched, the caller's among them */
    double score;
    double arrival;
} ws_result;

enum { WS_DONE = 0, WS_LIMIT = 1, WS_DEFER = 2, WS_STOPPED = 3 };

struct ws_thread;

/* What the threads of one search share.  The labels split_depth edges from
 * the source that are not the destination root subtrees, indexed in the
 * order of the walk, which every thread makes alike; a thread searches only
 * those whose index it claims. */
typedef struct {
    const ws_network *net;
    const double *bounds;
    int64_t dest, source, cap, split_depth;
    double deadline, eps, t;
    int64_t claims; /* the next unclaimed subtree index */
    int32_t stop;   /* set once a thread limits or defers */
    /* The caller's helper threads: room for wanted, started of them.  Only
     * the caller touches these. */
    struct ws_thread *helpers;
    int64_t wanted, started;
} ws_shared;

/* One thread's search: its buffers, what it counts and what it found. */
typedef struct ws_thread {
    ws_shared *sh;
    double *thresholds;
    int32_t *best_path;
    int64_t counted_from; /* a label counts when its parent is this deep */
    int64_t probe;        /* labels counted before the helpers start */
    ws_result res;
    int status;
    pthread_t id;
} ws_thread;

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
 * breakpoint, which only a NaN departure reaches.  Inlined into the search
 * loops: called, it took the catalogue's long queries about 11 % longer. */
static inline __attribute__((always_inline)) int arrival(const ws_network *net, int64_t e,
                                                         double d, double *out)
{
    const int64_t lo = net->bp_start[e], k = net->bp_start[e + 1] - lo;
    const double *xs = net->xs + net->xs_start[e], *ys = net->ys + lo;
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
    const double *xs = net->xs + net->xs_start[e];
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

/* Whether candidate a beats candidate b: a higher score, then an earlier
 * arrival, then a node sequence that sorts first as tuples do.  The order is
 * total over distinct paths, so the threads' best candidates reduce by it to
 * the sequential search's on any schedule. */
static int better(double score_a, double arrival_a, const int32_t *a,
                  int64_t len_a, double score_b, double arrival_b,
                  const int32_t *b, int64_t len_b)
{
    if (score_a != score_b)
        return score_a > score_b;
    if (arrival_a != arrival_b)
        return arrival_a < arrival_b;
    const int64_t common = len_a < len_b ? len_a : len_b;
    for (int64_t i = 0; i < common; i++) {
        if (a[i] != b[i])
            return a[i] < b[i];
    }
    return len_a < len_b;
}

/* floor_after's suffix floors for every edge, by the same expressions.
 * Returns -1 if an edge has no breakpoint. */
int ws_floors(int64_t edges, const int64_t *bp_start, const int64_t *xs_start,
              const double *xs, const double *ys, double *floors)
{
    for (int64_t e = 0; e < edges; e++) {
        const int64_t lo = bp_start[e], k = bp_start[e + 1] - lo;
        if (k < 1)
            return -1;
        const double *x = xs + xs_start[e], *y = ys + lo;
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

static void start_helpers(const ws_thread *caller);

/* One thread's share of ws_search. */
static int search(ws_thread *w)
{
    ws_shared *sh = w->sh;
    const ws_network *net = sh->net;
    const int64_t n = net->nodes, source = sh->source, dest = sh->dest;
    const int64_t *out_start = net->out_start;
    const int32_t *out_edge = net->out_edge, *head = net->head;
    const double *bounds = sh->bounds, eps = sh->eps, deadline = sh->deadline;
    double *thresholds = w->thresholds;
    int32_t *best_path = w->best_path;
    const int64_t cap = sh->cap, split_depth = sh->split_depth;
    const int64_t counted_from = w->counted_from;
    /* Counting past until, the search starts its helpers or is past cap. */
    int64_t until = w->probe < cap ? w->probe : cap;
    int status = WS_DONE;
    int64_t explored = 0, best_len = 0;
    /* Subtrees met, this thread's claim, subtrees searched. */
    int64_t seen = 0, mine = -1, claimed = 0;
    double t = sh->t, score = 0.0, best_score = -INFINITY, best_arrival = INFINITY;

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
    visited[source] = 1;
    path[0] = (int32_t)source;
    int64_t depth = 0, sp = 0;
    int64_t pos = out_start[source], end = out_start[source + 1];
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
            if (__atomic_load_n(&sh->stop, __ATOMIC_RELAXED)) {
                status = WS_STOPPED;
                goto out;
            }
            if (depth >= counted_from && ++explored > until) {
                if (explored > cap) {
                    status = WS_LIMIT;
                    goto out;
                }
                start_helpers(w);
                until = cap;
            }
            const double new_score = score + score_value(net, e, t);
            if (h == dest) {
                path[depth + 1] = h; /* h is not on the path: there is room */
                if (arr <= deadline
                    && better(new_score, arr, path, depth + 2, best_score,
                              best_arrival, best_path, best_len)) {
                    best_score = new_score;
                    best_arrival = arr;
                    best_len = depth + 2;
                    memcpy(best_path, path, (size_t)best_len * sizeof *path);
                }
                continue;
            }
            if (depth + 1 == split_depth) {
                /* A claim is taken only once the last one is searched, when
                 * the counter is past every index this walk has met. */
                if (mine < seen)
                    mine = __atomic_fetch_add(&sh->claims, 1, __ATOMIC_RELAXED);
                if (seen++ != mine)
                    continue;
                claimed++;
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
    if (status == WS_LIMIT || status == WS_DEFER)
        __atomic_store_n(&sh->stop, 1, __ATOMIC_RELAXED);
    w->res = (ws_result){explored, best_len, claimed, 1, best_score, best_arrival};
    free(stack);
    free(path);
    free(visited);
    return status;
}

static void *helper_main(void *arg)
{
    ws_thread *h = arg;
    h->status = search(h);
    return NULL;
}

/* Start the caller's helpers, each from a copy of the thresholds learned so
 * far.  A helper that cannot be started leaves its share to the others. */
static void start_helpers(const ws_thread *caller)
{
    ws_shared *sh = caller->sh;
    const size_t edges = (size_t)sh->net->edges, nodes = (size_t)sh->net->nodes;
    while (sh->started < sh->wanted) {
        ws_thread *h = &sh->helpers[sh->started];
        *h = (ws_thread){.sh = sh, .counted_from = sh->split_depth, .probe = INT64_MAX};
        h->thresholds = malloc(edges * sizeof *h->thresholds);
        h->best_path = malloc(nodes * sizeof *h->best_path);
        if (h->thresholds && h->best_path) {
            memcpy(h->thresholds, caller->thresholds, edges * sizeof *h->thresholds);
            if (pthread_create(&h->id, NULL, helper_main, h) == 0) {
                sh->started++;
                continue;
            }
        }
        free(h->thresholds);
        free(h->best_path);
        break;
    }
}

/* The best destination candidate among the loopless paths from source,
 * departing at t.
 *
 * The search learns per-edge thresholds as _fast_search does, in a buffer
 * of one departure per edge, NaN where none was learned, that it allocates
 * and frees.  It returns WS_LIMIT when it counts past cap.  best_path has
 * room for one id per node.
 *
 * The calling thread searches alone, claiming the subtrees split_depth edges
 * deep from a counter in walk order.  With workers > 1 and split_depth > 0,
 * once it has counted more than probe labels it starts workers - 1 helper
 * threads where it stands.  Each walks the tree from the source and
 * descends only into the subtrees it claims from the same counter, the next
 * once the last is searched, so it skips every subtree already claimed and
 * none is searched twice; it counts only the labels below the split, which
 * the caller alone counts above.  The helpers are joined here: counts and
 * claims are summed, the best candidates reduced by better(), and
 * res->threads says how many threads searched.  A thread that limits or
 * defers stops the others.  Any deferral, a failed allocation included,
 * returns WS_DEFER; a limit, or counts that sum past cap, return WS_LIMIT
 * with max(cap, 0) + 1 labels, the sequential search's count. */
int ws_search(const ws_network *net, const double *bounds, int64_t dest,
              double t_arr, double eps, int64_t source, double t, int64_t cap,
              int64_t workers, int64_t split_depth, int64_t probe,
              int32_t *best_path, ws_result *res)
{
    ws_shared sh = {.net = net, .bounds = bounds, .dest = dest, .source = source,
                    .cap = cap, .split_depth = split_depth,
                    .deadline = t_arr + eps, .eps = eps, .t = t};
    ws_thread caller = {.sh = &sh, .best_path = best_path, .probe = INT64_MAX};
    const int64_t allowed = cap > 0 ? cap : 0;

    *res = (ws_result){0, 0, 0, 1, -INFINITY, INFINITY};
    if (source < 0 || source >= net->nodes)
        return WS_DEFER;
    /* One spare double, so that an edgeless network does not malloc(0),
     * which may return NULL. */
    caller.thresholds = malloc(((size_t)net->edges + 1) * sizeof *caller.thresholds);
    if (!caller.thresholds)
        return WS_DEFER;
    for (int64_t e = 0; e < net->edges; e++)
        caller.thresholds[e] = NAN;
    if (workers > 1 && split_depth > 0) {
        sh.helpers = malloc((size_t)(workers - 1) * sizeof *sh.helpers);
        sh.wanted = sh.helpers ? workers - 1 : 0;
        caller.probe = probe;
    }
    const int status = search(&caller);
    int deferred = status == WS_DEFER, limited = status == WS_LIMIT;
    *res = caller.res;
    for (int64_t i = 0; i < sh.started; i++) {
        ws_thread *h = &sh.helpers[i];
        pthread_join(h->id, NULL);
        deferred |= h->status == WS_DEFER;
        limited |= h->status == WS_LIMIT;
        res->explored += h->res.explored;
        res->claimed += h->res.claimed;
        if (h->res.length
            && better(h->res.score, h->res.arrival, h->best_path, h->res.length,
                      res->score, res->arrival, best_path, res->length)) {
            memcpy(best_path, h->best_path, (size_t)h->res.length * sizeof *best_path);
            res->length = h->res.length;
            res->score = h->res.score;
            res->arrival = h->res.arrival;
        }
        free(h->thresholds);
        free(h->best_path);
    }
    free(sh.helpers);
    free(caller.thresholds);
    res->threads += sh.started;
    if (deferred)
        return WS_DEFER;
    if (limited || res->explored > allowed) {
        res->explored = allowed + 1;
        return WS_LIMIT;
    }
    return WS_DONE;
}

/* A heap entry of ws_earliest, ordered as heapq orders (time, node) tuples. */
typedef struct {
    double t;
    int32_t node;
} ws_entry;

static int entry_less(ws_entry a, ws_entry b)
{
    return a.t < b.t || (a.t == b.t && a.node < b.node);
}

static void heap_push(ws_entry *heap, int64_t *size, ws_entry item)
{
    int64_t i = (*size)++;
    while (i > 0) {
        const int64_t parent = (i - 1) / 2;
        if (!entry_less(item, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
}

static ws_entry heap_pop(ws_entry *heap, int64_t *size)
{
    const ws_entry top = heap[0], last = heap[--*size];
    const int64_t n = *size;
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && entry_less(heap[child + 1], heap[child]))
            child++;
        if (!entry_less(heap[child], last))
            break;
        heap[i] = heap[child];
        i = child;
    }
    if (n > 0)
        heap[i] = last;
    return top;
}

/* wayscore.traversal.earliest_arrival's forward time-dependent Dijkstra:
 * pop the least (time, node), skip it if stale (t > best[u]), stop at the
 * destination, else relax the node's out-edges in out_edges order, keeping
 * an arrival only if it is strictly earlier.  Every key pushed is distinct
 * (a node's times strictly fall), so the pops come in heapq's order.
 *
 * Preconditions: source and dest in [0, nodes) and different; path has room
 * for one id per node.  On reaching dest it writes the witness path from
 * source to *length and its arrival to *t_out; an unreachable dest leaves
 * *length 0.  A NaN departure (where Python raises), a failed allocation, a
 * heap past its capacity or a predecessor chain that does not lead back to
 * the source return WS_DEFER.  The capacity, edges + 1, holds every push as
 * long as each edge is relaxed at most once, which FIFO profiles ensure. */
int ws_earliest(const ws_network *net, int64_t source, int64_t dest,
                double t_dep, int32_t *path, int64_t *length, double *t_out)
{
    const int64_t n = net->nodes, capacity = net->edges + 1;
    const int64_t *out_start = net->out_start;
    const int32_t *out_edge = net->out_edge, *head = net->head;
    int status = WS_DONE;
    int64_t size = 0;

    *length = 0;
    if (source < 0 || source >= n || dest < 0 || dest >= n || source == dest)
        return WS_DEFER;
    double *best = malloc((size_t)n * sizeof *best);
    int32_t *via = malloc((size_t)n * sizeof *via);
    ws_entry *heap = malloc((size_t)capacity * sizeof *heap);
    if (!best || !via || !heap) {
        status = WS_DEFER;
        goto out;
    }
    for (int64_t v = 0; v < n; v++) {
        best[v] = INFINITY;
        via[v] = -1;
    }
    best[source] = t_dep;
    heap_push(heap, &size, (ws_entry){t_dep, (int32_t)source});
    while (size > 0) {
        const ws_entry top = heap_pop(heap, &size);
        const double t = top.t;
        const int32_t u = top.node;
        if (t > best[u])
            continue;
        if (u == dest) {
            /* Walk the predecessors back, then reverse in place. */
            int64_t len = 0;
            int32_t node = u;
            path[len++] = node;
            while (node != source) {
                node = via[node];
                if (node < 0 || len == n) {
                    status = WS_DEFER;
                    goto out;
                }
                path[len++] = node;
            }
            for (int64_t i = 0, j = len - 1; i < j; i++, j--) {
                const int32_t swap = path[i];
                path[i] = path[j];
                path[j] = swap;
            }
            *length = len;
            *t_out = t;
            goto out;
        }
        for (int64_t pos = out_start[u]; pos < out_start[u + 1]; pos++) {
            const int32_t e = out_edge[pos], h = head[e];
            double arr;
            if (arrival(net, e, t, &arr)) {
                status = WS_DEFER;
                goto out;
            }
            if (arr < best[h]) {
                if (size == capacity) {
                    status = WS_DEFER;
                    goto out;
                }
                best[h] = arr;
                via[h] = u;
                heap_push(heap, &size, (ws_entry){arr, h});
            }
        }
    }
out:
    free(best);
    free(via);
    free(heap);
    return status;
}

/* Whether check_fifo returns None for these breakpoints without raising:
 * at least one; every number finite; each arrival at or after its
 * departure; departures strictly increasing and arrivals non-decreasing; no
 * travel time, gap to the previous breakpoint, or product of the two gaps
 * that overflows to infinity. */
int ws_fifo(int64_t k, const double *xs, const double *ys)
{
    if (k < 1)
        return 0;
    for (int64_t i = 0; i < k; i++) {
        const double x = xs[i], y = ys[i];
        double dx = 0.0, dy = 0.0;
        if (!isfinite(x) || !isfinite(y) || y < x)
            return 0;
        if (i > 0) {
            if (x <= xs[i - 1] || y < ys[i - 1])
                return 0;
            dx = x - xs[i - 1];
            dy = y - ys[i - 1];
        }
        if (y - x == INFINITY || dx == INFINITY || dy == INFINITY
            || dx * dy == INFINITY)
            return 0;
    }
    return 1;
}

/* The parser's helpers run once or more per number of a file, so they are
 * inlined into the loops that call them. */
#define WS_INLINE static inline __attribute__((always_inline))

/* One edge of a network file as the parser reads it: its ids, how many
 * breakpoints, score boundaries and score values it holds in the pools, its
 * score default (0 when absent) and its length_m; and, once ws_build has
 * shared the rows, where its departures start in the built xs. */
typedef struct {
    int64_t tail, head;
    int64_t points, boundaries, values;
    int64_t length_kind; /* WS_NO_LENGTH, WS_INT_LENGTH or WS_REAL_LENGTH */
    double score_default, length;
    int64_t xs_start;
} ws_edge;

enum { WS_NO_LENGTH = 0, WS_INT_LENGTH = 1, WS_REAL_LENGTH = 2 };

/* A loaded network: ws_load's arrays, all in one block that ws_free unmaps.
 * net holds the kernel's; its xs holds row_points values, ys and floors
 * points, sb and sv scores.  The rest only Python reads: each edge's tail,
 * the in CSR (in_start, nodes + 1 offsets into in_edge, which lists each
 * node's edges in edge order), and each length_m with its kind. */
typedef struct {
    ws_network net;
    int64_t points, row_points, scores;
    const int32_t *tail;
    const int64_t *in_start;
    const int32_t *in_edge;
    const double *length;
    const uint8_t *length_kind;
    void *block;
    int64_t block_size;
} ws_file;

/* Anonymous memory mapped apart from malloc's heap, so that what a load
 * frees goes back to the system whole and leaves malloc's thresholds as they
 * were.  Pages that are never touched take no memory. */
static void *map_block(size_t size)
{
    void *p = mmap(NULL, size ? size : 1, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static void unmap_block(void *p, size_t size)
{
    if (p)
        munmap(p, size ? size : 1);
}

/* A pool with room for cap bytes, reserved at once. */
typedef struct {
    char *data;
    size_t len, cap; /* in bytes */
} ws_pool;

static int reserve(ws_pool *pool, size_t cap)
{
    pool->data = map_block(cap);
    pool->cap = pool->data ? cap : 0;
    return pool->data ? 0 : -1;
}

WS_INLINE int append(ws_pool *pool, const void *item, size_t size)
{
    if (size > pool->cap - pool->len)
        return -1;
    memcpy(pool->data + pool->len, item, size);
    pool->len += size;
    return 0;
}

typedef struct {
    const char *p, *end;
    ws_pool edges, xs, ys, scores;
} ws_parser;

WS_INLINE void skip_space(ws_parser *ps)
{
    const char *p = ps->p, *end = ps->end;
    while (p < end && (*p == ' ' || *p == '\n' || *p == '\r' || *p == '\t'))
        p++;
    ps->p = p;
}

/* Skip whitespace; then consume c if it comes next. */
WS_INLINE int next_is(ws_parser *ps, char c)
{
    skip_space(ps);
    if (ps->p < ps->end && *ps->p == c) {
        ps->p++;
        return 1;
    }
    return 0;
}

/* After a member or an element: 1 on a comma, 0 on close, -1 otherwise. */
WS_INLINE int more(ws_parser *ps, char close)
{
    if (next_is(ps, ','))
        return 1;
    return next_is(ps, close) ? 0 : -1;
}

/* A member's key, among the names, and the colon after it.  Returns the
 * name's index, or -1 for any other key: one written with an escape too,
 * since no name holds a backslash. */
static int key(ws_parser *ps, const char *const *names, int count)
{
    if (!next_is(ps, '"'))
        return -1;
    const char *start = ps->p, *close = memchr(start, '"', (size_t)(ps->end - start));
    if (!close)
        return -1;
    const size_t len = (size_t)(close - start);
    ps->p = close + 1;
    if (!next_is(ps, ':'))
        return -1;
    for (int i = 0; i < count; i++) {
        if (strlen(names[i]) == len && memcmp(names[i], start, len) == 0)
            return i;
    }
    return -1;
}

WS_INLINE int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* A JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?, as
 * Python's json module reads it.  Sets its extent, and whether it is an
 * integer, which the parser gives as an int rather than a float. */
WS_INLINE int number(ws_parser *ps, const char **start, size_t *len, int *integer)
{
    skip_space(ps);
    const char *p = ps->p, *end = ps->end;
    *start = p;
    *integer = 1;
    if (p < end && *p == '-')
        p++;
    if (p == end || !is_digit(*p))
        return -1;
    if (*p++ != '0') {
        while (p < end && is_digit(*p))
            p++;
    }
    if (p < end && *p == '.') {
        p++;
        if (p == end || !is_digit(*p))
            return -1;
        while (p < end && is_digit(*p))
            p++;
        *integer = 0;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        if (p == end || !is_digit(*p))
            return -1;
        while (p < end && is_digit(*p))
            p++;
        *integer = 0;
    }
    *len = (size_t)(p - *start);
    ps->p = p;
    return 0;
}

/* An integer token's value; -1 when it overflows int64. */
static int int_value(const char *s, size_t len, int64_t *out)
{
    const int negative = *s == '-';
    int64_t v = 0;
    for (size_t i = negative; i < len; i++) {
        const int d = s[i] - '0';
        if (v > (INT64_MAX - d) / 10)
            return -1;
        v = 10 * v + d;
    }
    *out = negative ? -v : v;
    return 0;
}

/* The double float(token) gives.  A mantissa below 2**53 with at most 22
 * fractional digits and no exponent is exact, as is the power of ten, so
 * one correctly rounded division gives it (Clinger's fast path); strtod
 * converts any other token, and -1 says it did not consume the token whole
 * (in a locale with a decimal comma, say). */
WS_INLINE int float_value(const char *s, size_t len, double *out)
{
    static const double powers[] = {
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
        1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
    };
    const int negative = *s == '-';
    uint64_t mantissa = 0;
    int fraction = -1; /* digits after the point, -1 before it */
    for (size_t i = negative; i < len; i++) {
        if (s[i] == '.') {
            fraction = 0;
            continue;
        }
        if (s[i] == 'e' || s[i] == 'E')
            goto slow;
        mantissa = 10 * mantissa + (uint64_t)(s[i] - '0');
        if (mantissa >= (UINT64_C(1) << 53))
            goto slow;
        if (fraction >= 0 && ++fraction > 22)
            goto slow;
    }
    *out = (double)mantissa / powers[fraction > 0 ? fraction : 0];
    if (negative)
        *out = -*out;
    return 0;
slow:;
    char token[64];
    char *stop;
    if (len >= sizeof token)
        return -1;
    memcpy(token, s, len);
    token[len] = '\0';
    *out = strtod(token, &stop);
    return stop == token + len ? 0 : -1;
}

/* The next number: its value, and whether it is an integer token, which
 * Python's parser gives as an int.  An integer past 2**53 in magnitude,
 * which a double may not hold exactly, is refused. */
WS_INLINE int number_value(ws_parser *ps, double *out, int *integer)
{
    const char *s;
    size_t len;
    int64_t v;
    if (number(ps, &s, &len, integer))
        return -1;
    if (!*integer)
        return float_value(s, len, out);
    if (int_value(s, len, &v) || v > (INT64_C(1) << 53) || v < -(INT64_C(1) << 53))
        return -1;
    *out = (double)v;
    return 0;
}

/* A number that must be a float token. */
WS_INLINE int float_token(ws_parser *ps, double *out)
{
    int integer;
    return number_value(ps, out, &integer) || integer ? -1 : 0;
}

/* A number that must be an integer token. */
static int int_token(ws_parser *ps, int64_t *out)
{
    int integer;
    double v;
    if (number_value(ps, &v, &integer) || !integer)
        return -1;
    *out = (int64_t)v;
    return 0;
}

/* A list of numbers, appended to the score pool; counts them. */
static int reals(ws_parser *ps, int64_t *count)
{
    if (!next_is(ps, '['))
        return -1;
    if (next_is(ps, ']'))
        return 0;
    int go;
    do {
        double v;
        int integer;
        if (number_value(ps, &v, &integer) || append(&ps->scores, &v, sizeof v))
            return -1;
        ++*count;
    } while ((go = more(ps, ']')) == 1);
    return go;
}

/* [[x, y], ...] of float tokens. */
static int parse_arrival(ws_parser *ps, ws_edge *e)
{
    if (!next_is(ps, '['))
        return -1;
    if (next_is(ps, ']'))
        return 0;
    int go;
    do {
        double x, y;
        if (!next_is(ps, '[') || float_token(ps, &x) || !next_is(ps, ',')
            || float_token(ps, &y) || !next_is(ps, ']')
            || append(&ps->xs, &x, sizeof x) || append(&ps->ys, &y, sizeof y))
            return -1;
        e->points++;
    } while ((go = more(ps, ']')) == 1);
    return go;
}

/* {"boundaries": [...], "values": [...], "default": s}, each optional.
 * The values follow the boundaries in the pool, so a file that lists them
 * first is left to Python. */
static int parse_score(ws_parser *ps, ws_edge *e)
{
    static const char *const names[] = {"boundaries", "values", "default"};
    unsigned seen = 0;
    if (!next_is(ps, '{'))
        return -1;
    if (next_is(ps, '}'))
        return 0;
    int go;
    do {
        const int k = key(ps, names, 3);
        if (k < 0 || seen & (1u << k))
            return -1;
        seen |= 1u << k;
        if (k == 0 && ((seen & 2) || reals(ps, &e->boundaries)))
            return -1;
        if (k == 1 && reals(ps, &e->values))
            return -1;
        int integer;
        if (k == 2 && number_value(ps, &e->score_default, &integer))
            return -1;
    } while ((go = more(ps, '}')) == 1);
    return go;
}

static int parse_edge(ws_parser *ps)
{
    static const char *const names[] = {"from", "to", "arrival", "score", "length_m"};
    ws_edge e = {0};
    unsigned seen = 0;
    if (!next_is(ps, '{'))
        return -1;
    int go;
    do {
        const int k = key(ps, names, 5);
        if (k < 0 || seen & (1u << k))
            return -1;
        seen |= 1u << k;
        int failed, integer;
        switch (k) {
        case 0:
            failed = int_token(ps, &e.tail);
            break;
        case 1:
            failed = int_token(ps, &e.head);
            break;
        case 2:
            failed = parse_arrival(ps, &e);
            break;
        case 3:
            failed = parse_score(ps, &e);
            break;
        default:
            failed = number_value(ps, &e.length, &integer);
            e.length_kind = integer ? WS_INT_LENGTH : WS_REAL_LENGTH;
        }
        if (failed)
            return -1;
    } while ((go = more(ps, '}')) == 1);
    if (go || (seen & 7) != 7)
        return -1;
    return append(&ps->edges, &e, sizeof e);
}

static int parse_edges(ws_parser *ps)
{
    if (!next_is(ps, '['))
        return -1;
    if (next_is(ps, ']'))
        return 0;
    int go;
    do {
        if (parse_edge(ps))
            return -1;
    } while ((go = more(ps, ']')) == 1);
    return go;
}

static int parse_document(ws_parser *ps, int64_t *node_count)
{
    static const char *const names[] = {"node_count", "edges"};
    unsigned seen = 0;
    if (!next_is(ps, '{'))
        return -1;
    int go;
    do {
        const int k = key(ps, names, 2);
        if (k < 0 || seen & (1u << k))
            return -1;
        seen |= 1u << k;
        if (k == 0 && int_token(ps, node_count))
            return -1;
        if (k == 1 && parse_edges(ps))
            return -1;
    } while ((go = more(ps, '}')) == 1);
    skip_space(ps);
    return go || seen != 3 || ps->p != ps->end ? -1 : 0;
}

static uint64_t row_hash(const double *x, int64_t k)
{
    uint64_t h = (uint64_t)k;
    for (int64_t i = 0; i < k; i++) {
        uint64_t bits;
        memcpy(&bits, &x[i], sizeof bits);
        h = (h ^ bits) * UINT64_C(0x9E3779B97F4A7C15);
        h ^= h >> 32;
    }
    return h;
}

/* Keep one copy of each row of departures, in place: xs holds every edge's
 * row in edge order, and ends up holding each distinct row once, in the
 * order of their first edges, with each edge's xs_start set.  Rows are the
 * same when their bits are; for checked (finite, strictly increasing)
 * departures that is the values and the sign of the one zero.  Returns how
 * many values the distinct rows hold, or -1 when no table can be mapped. */
static int64_t share_rows(ws_edge *edge, int64_t edges, double *xs)
{
    size_t slots = 2;
    while (slots < 2 * (size_t)edges)
        slots *= 2;
    /* per slot: 1 + the first edge of a row, 0 where free */
    int64_t *first = map_block(slots * sizeof *first);
    if (!first)
        return -1;
    int64_t kept = 0, at = 0; /* at: where edge e's row was parsed */
    for (int64_t e = 0; e < edges; e++) {
        const int64_t k = edge[e].points;
        size_t slot = row_hash(xs + at, k) & (slots - 1);
        for (;; slot = (slot + 1) & (slots - 1)) {
            const int64_t f = first[slot] - 1;
            if (f < 0) {
                first[slot] = e + 1;
                memmove(xs + kept, xs + at, (size_t)k * sizeof *xs); /* kept <= at */
                edge[e].xs_start = kept;
                kept += k;
                break;
            }
            if (edge[f].points == k
                && memcmp(xs + edge[f].xs_start, xs + at, (size_t)k * sizeof *xs) == 0) {
                edge[e].xs_start = edge[f].xs_start;
                break;
            }
        }
        at += k;
    }
    unmap_block(first, slots * sizeof *first);
    return kept;
}

/* Each edge's index grouped by node[e], in edge order within a node (a
 * stable counting sort): start gets nodes + 1 offsets into order. */
static void group(int64_t nodes, int64_t edges, const int32_t *node, int64_t *start,
                  int32_t *order)
{
    memset(start, 0, (size_t)(nodes + 1) * sizeof *start);
    for (int64_t e = 0; e < edges; e++)
        start[node[e] + 1]++;
    for (int64_t v = 0; v < nodes; v++)
        start[v + 1] += start[v];
    for (int64_t e = 0; e < edges; e++)
        order[start[node[e]]++] = (int32_t)e; /* start[v] moves to start[v + 1] */
    for (int64_t v = nodes; v > 0; v--)
        start[v] = start[v - 1];
    start[0] = 0;
}

/* Whether two of a node's out-edges lead to the same head; mark is scratch
 * room for one entry per node. */
static int has_duplicate(int64_t nodes, const int64_t *out_start, const int32_t *out_edge,
                         const int32_t *head, int64_t *mark)
{
    for (int64_t v = 0; v < nodes; v++)
        mark[v] = -1;
    for (int64_t u = 0; u < nodes; u++) {
        for (int64_t pos = out_start[u]; pos < out_start[u + 1]; pos++) {
            const int32_t h = head[out_edge[pos]];
            if (mark[h] == u)
                return 1;
            mark[h] = u;
        }
    }
    return 0;
}

/* Where the next array of bytes starts in a block of *size bytes, which it
 * grows by; every array starts 8-aligned. */
static size_t take(size_t *size, size_t bytes)
{
    const size_t start = *size;
    *size += (bytes + 7) & ~(size_t)7;
    return start;
}

/* The checks the Python loader makes besides ws_build's, as a yes/no
 * predicate on every edge the parser read: check_fifo's (ws_fifo); endpoints
 * apart; a length_m, when there is one, finite and >= 0; and a score
 * ScoreProfile takes: finite numbers, boundaries strictly increasing, no
 * value or default below 0. */
static int edges_ok(const ws_parser *ps)
{
    const ws_edge *edge = (const ws_edge *)ps->edges.data;
    const int64_t m = (int64_t)(ps->edges.len / sizeof *edge);
    const double *xs = (const double *)ps->xs.data, *ys = (const double *)ps->ys.data;
    const double *b = (const double *)ps->scores.data; /* boundaries, then values */
    for (int64_t i = 0, at = 0; i < m; i++) {
        const ws_edge *e = &edge[i];
        const int64_t nb = e->boundaries, nv = e->values;
        if (!ws_fifo(e->points, xs + at, ys + at) || e->tail == e->head
            || (e->length_kind != WS_NO_LENGTH && !(e->length >= 0.0 && e->length <= DBL_MAX))
            || !isfinite(e->score_default) || e->score_default < 0.0)
            return 0;
        for (int64_t j = 0; j < nb; j++) {
            if (!isfinite(b[j]) || (j > 0 && !(b[j] > b[j - 1])))
                return 0;
        }
        for (int64_t j = nb; j < nb + nv; j++) {
            if (!isfinite(b[j]) || b[j] < 0.0)
                return 0;
        }
        at += e->points;
        b += nb + nv;
    }
    return 1;
}

/* Build *file from a network as the parser reads one: m records at edge and,
 * in edge order, each edge's departures and arrivals in parsed_xs and
 * parsed_ys, and its boundaries, then its values, in pool.  It shares each
 * distinct row of departures (rewriting xs and each xs_start), computes the
 * floors and builds the CSR in edge order, in one block mapped once at its
 * size.  It checks only what the kernel's reads rest on: the counts, ids in
 * range, a breakpoint per edge, one score value fewer than boundaries (none
 * for none), the totals and no repeated pair; a NaN departure is searched,
 * and the search defers on it.  Returns as ws_load does.  Protected, so
 * that ws_load calls it directly: a call through the PLT would grow it and
 * move every function, the search among them. */
__attribute__((visibility("protected"))) int
ws_build(int64_t n, int64_t m, ws_edge *edge, int64_t points, double *parsed_xs,
         const double *parsed_ys, int64_t pool_size, const double *pool, ws_file *file)
{
    int64_t at = 0, sc = 0, scores = 0;

    *file = (ws_file){0};
    if (n < 1 || n > INT32_MAX || m < 0 || m >= INT32_MAX)
        return WS_DEFER;
    for (int64_t e = 0; e < m; e++) {
        const ws_edge *d = &edge[e];
        const int64_t nb = d->boundaries;
        if (d->tail < 0 || d->tail >= n || d->head < 0 || d->head >= n || d->points < 1
            || d->points > points - at || nb < 0 || nb > pool_size - sc
            || d->values != (nb > 0 ? nb - 1 : 0) || d->values > pool_size - sc - nb)
            return WS_DEFER;
        at += d->points;
        sc += nb + d->values;
        scores += nb;
    }
    if (at != points || sc != pool_size)
        return WS_DEFER;
    const int64_t rows = share_rows(edge, m, parsed_xs);
    if (rows < 0)
        return WS_DEFER;

    const size_t nodes1 = (size_t)n + 1, edges = (size_t)m, edges1 = edges + 1;
    size_t size = 0;
    const size_t o_out_start = take(&size, nodes1 * 8), o_in_start = take(&size, nodes1 * 8),
                 o_bp_start = take(&size, edges1 * 8), o_xs_start = take(&size, edges * 8),
                 o_sc_start = take(&size, edges1 * 8), o_xs = take(&size, (size_t)rows * 8),
                 o_ys = take(&size, (size_t)points * 8), o_floors = take(&size, (size_t)points * 8),
                 o_sb = take(&size, (size_t)scores * 8), o_sv = take(&size, (size_t)scores * 8),
                 o_sdef = take(&size, edges * 8), o_length = take(&size, edges * 8),
                 o_out_edge = take(&size, edges * 4), o_in_edge = take(&size, edges * 4),
                 o_head = take(&size, edges * 4), o_tail = take(&size, edges * 4),
                 o_kind = take(&size, edges);
    char *block = map_block(size);
    if (!block)
        return WS_DEFER;
    int64_t *out_start = (int64_t *)(block + o_out_start);
    int64_t *in_start = (int64_t *)(block + o_in_start);
    int64_t *bp_start = (int64_t *)(block + o_bp_start);
    int64_t *xs_start = (int64_t *)(block + o_xs_start);
    int64_t *sc_start = (int64_t *)(block + o_sc_start);
    double *xs = (double *)(block + o_xs), *ys = (double *)(block + o_ys);
    double *floors = (double *)(block + o_floors);
    double *sb = (double *)(block + o_sb), *sv = (double *)(block + o_sv);
    double *sdef = (double *)(block + o_sdef), *length = (double *)(block + o_length);
    int32_t *out_edge = (int32_t *)(block + o_out_edge);
    int32_t *in_edge = (int32_t *)(block + o_in_edge);
    int32_t *head = (int32_t *)(block + o_head), *tail = (int32_t *)(block + o_tail);
    uint8_t *kind = (uint8_t *)(block + o_kind);

    sc = 0;
    bp_start[0] = sc_start[0] = 0;
    for (int64_t e = 0; e < m; e++) {
        const ws_edge *d = &edge[e];
        const int64_t nb = d->boundaries, lo = sc_start[e];
        tail[e] = (int32_t)d->tail;
        head[e] = (int32_t)d->head;
        bp_start[e + 1] = bp_start[e] + d->points;
        xs_start[e] = d->xs_start;
        sc_start[e + 1] = lo + nb;
        if (nb > 0) {
            memcpy(sb + lo, pool + sc, (size_t)nb * sizeof *sb);
            memcpy(sv + lo, pool + sc + nb, (size_t)(nb - 1) * sizeof *sv);
            sv[lo + nb - 1] = 0.0; /* pads to one value per boundary; never read */
        }
        sc += nb + d->values;
        sdef[e] = d->score_default;
        length[e] = d->length;
        kind[e] = (uint8_t)d->length_kind;
    }
    if (points > 0) { /* the pools may be NULL when empty */
        memcpy(xs, parsed_xs, (size_t)rows * sizeof *xs);
        memcpy(ys, parsed_ys, (size_t)points * sizeof *ys);
    }
    ws_floors(m, bp_start, xs_start, xs, ys, floors);
    group(n, m, tail, out_start, out_edge);
    /* in_start is scratch until the in CSR is built */
    if (has_duplicate(n, out_start, out_edge, head, in_start)) {
        unmap_block(block, size);
        return WS_DEFER;
    }
    group(n, m, head, in_start, in_edge);
    *file = (ws_file){
        .net = {n, m, out_start, out_edge, head, bp_start, xs_start, xs, ys, floors,
                sc_start, sb, sv, sdef},
        .points = points, .row_points = rows, .scores = scores,
        .tail = tail, .in_start = in_start, .in_edge = in_edge,
        .length = length, .length_kind = kind,
        .block = block, .block_size = (int64_t)size,
    };
    return WS_DONE;
}

void ws_free(ws_file *file)
{
    unmap_block(file->block, (size_t)file->block_size);
    *file = (ws_file){0};
}

/* Load the network file at path, memory-mapped, into *file: parse it, run
 * the Python loader's checks on it as yes/no predicates (node_count in
 * [1, max_nodes], edges_ok and ws_build's), and build the kernel's arrays
 * and the columns Python builds its network from (ws_build).  Returns
 * WS_DONE with *file set; the caller then owns its block and releases it
 * with ws_free.
 * Anything else returns WS_DEFER, with *file empty, and the caller reads the
 * file in Python, which names what is wrong: a path that does not open as a
 * regular file, a failed mapping, a check that fails, and any input outside
 * what save_network writes for a network without labels (the labels
 * themselves, other or repeated keys, string values, escapes, bytes outside
 * ASCII, NaN and Infinity, true, false and null, an integer among the
 * breakpoints or past 2**53 in magnitude) or that is not JSON.  Each number
 * equals the float, or the int, that Python's json module reads from its
 * token.  The file must not shrink while it loads.
 *
 * The parser's pools are mapped apart from malloc's heap, each with room for
 * as many items as the file's size allows, going by the fewest bytes each
 * item takes: 9 a breakpoint ("[0e0,0e0]"), 2 a score number ("0,") and 30
 * an edge ({"from":0,"to":1,"arrival":[]}).  They are unmapped before the
 * call returns. */
int ws_load(const char *path, int64_t max_nodes, ws_file *file)
{
    ws_parser ps = {0};
    struct stat st;
    int64_t node_count = 0;
    int parsed = -1, status = WS_DEFER;

    *file = (ws_file){0};
    /* O_NONBLOCK: opening a FIFO does not wait for a writer */
    const int fd = open(path, O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd < 0)
        return WS_DEFER;
    if (fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size == 0) {
        close(fd);
        return WS_DEFER;
    }
    const size_t size = (size_t)st.st_size;
    void *map = mmap(NULL, size, PROT_READ, MAP_PRIVATE, fd, 0);
    close(fd);
    if (map == MAP_FAILED)
        return WS_DEFER;
    ps.p = map;
    ps.end = ps.p + size;
    if (reserve(&ps.edges, (size / 30 + 1) * sizeof(ws_edge)) == 0
        && reserve(&ps.xs, (size / 9 + 1) * sizeof(double)) == 0
        && reserve(&ps.ys, (size / 9 + 1) * sizeof(double)) == 0
        && reserve(&ps.scores, (size / 2 + 1) * sizeof(double)) == 0)
        parsed = parse_document(&ps, &node_count);
    munmap(map, size);
    if (parsed == 0 && node_count >= 1 && node_count <= max_nodes && edges_ok(&ps))
        status = ws_build(node_count, (int64_t)(ps.edges.len / sizeof(ws_edge)),
                          (ws_edge *)ps.edges.data, (int64_t)(ps.ys.len / sizeof(double)),
                          (double *)ps.xs.data, (const double *)ps.ys.data,
                          (int64_t)(ps.scores.len / sizeof(double)),
                          (const double *)ps.scores.data, file);
    unmap_block(ps.edges.data, ps.edges.cap);
    unmap_block(ps.xs.data, ps.xs.cap);
    unmap_block(ps.ys.data, ps.ys.cap);
    unmap_block(ps.scores.data, ps.scores.cap);
    return status;
}
