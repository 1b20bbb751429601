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
 * wayscore/kernel.py builds and calls it.
 *
 * Preconditions, checked by the caller: node ids and edge indices in range,
 * every offset array non-decreasing and one longer than what it indexes,
 * every arrival profile with at least one breakpoint, score values padded to
 * one per boundary, and bounds with one entry per node.  Within them the
 * kernel reads and writes nothing outside its arrays.  What Python would
 * answer with an IndexError (a NaN departure) it returns as WS_DEFER, and
 * the caller runs the Python code instead.
 */

#include <math.h>
#include <pthread.h>
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
