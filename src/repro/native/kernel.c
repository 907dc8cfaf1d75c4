/*
 * The stepping kernel's array code: the seven phases of a model step over
 * the flat state of every member of a batch, and the library routines they
 * are made of (admission and drain of the server buffers, the server law
 * and backend commit, the window update, link accounting).
 *
 * Every routine reproduces, bit for bit, the NumPy expressions it replaced:
 *
 *   - each elementwise operation is done in NumPy's order and association,
 *     on doubles, with no contraction into fused multiply-adds (the loader
 *     compiles with -ffp-contract=off and never with -ffast-math);
 *   - a row sum follows NumPy's pairwise summation tree (pairwise() below)
 *     and is added to an initial 0.0, as np.add.reduce does;
 *   - a bincount accumulates each bin from 0.0 in input order;
 *   - np.maximum and np.minimum return their first operand when it is NaN
 *     or strictly wins, else their second (vmax/vmin);
 *   - a float is cast to int64 by truncation, and booleans are 0/1 bytes.
 *
 * Nothing here draws random numbers: every draw stays a Python call on its
 * member's own generator.
 *
 * Argument passing.  Each object (buffers, windows, deployment, topology)
 * and the kernel itself is described by an address table: an int64 array
 * whose slots hold array addresses, lengths, integer constants and the bits
 * of double constants.  The slot list of each table is declared once below
 * (X-macros) and exported as a string, from which the Python loader builds
 * and checks the tables (repro.native.Table).  A slot is written
 * "type:name:length": type i (int), f (double), T (another table), F
 * (float64 array), I (int64 array), B (bool array), C (int8 array); the
 * length names the lane kind an array spans.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define SLOT_SPEC(type, name, size) #type ":" #name ":" #size " "

static inline double f64(const int64_t *t, int k)
{
    double d;
    memcpy(&d, &t[k], sizeof d);
    return d;
}

#define AT(t, k, type) ((type *)(intptr_t)(t)[k])

static inline double vmax(double a, double b) { return (a > b || a != a) ? a : b; }
static inline double vmin(double a, double b) { return (a < b || a != a) ? a : b; }

/* NumPy's pairwise summation of n contiguous doubles. */
static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* np.add.reduce over one contiguous row. */
static inline double row_sum(const double *a, int64_t n) { return 0.0 + pairwise(a, n); }

/* np.bincount(idx, weights=w, minlength=bins) into out. */
static void bincount(const int64_t *idx, const double *w, int64_t n, double *out, int64_t bins)
{
    for (int64_t b = 0; b < bins; b++)
        out[b] = 0.0;
    for (int64_t i = 0; i < n; i++)
        out[idx[i]] += w[i];
}

/* ------------------------------------------------------------------ */
/* Exported primitives (the bit-rule tests call these)                 */
/* ------------------------------------------------------------------ */

void nk_row_sums(const double *x, int64_t rows, int64_t width, double *out)
{
    for (int64_t r = 0; r < rows; r++)
        out[r] = row_sum(x + r * width, width);
}

void nk_bincount(const int64_t *idx, const double *w, int64_t n, double *out, int64_t bins)
{
    bincount(idx, w, n, out, bins);
}

void nk_maximum(const double *a, const double *b, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = vmax(a[i], b[i]);
}

void nk_minimum(const double *a, const double *b, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = vmin(a[i], b[i]);
}

/* ------------------------------------------------------------------ */
/* Server buffers (repro.network.incast.ServerBuffers)                 */
/* ------------------------------------------------------------------ */

/* Each server's connections, in ascending index order, are its row:
 * order[row_start[s] : row_start[s] + row_width[s]].  A bincount over the
 * connections' servers adds each server's values in that order, so a row
 * sums them from 0.0 in row order.  row_a..row_d and row_mask are scratch
 * of the water-filling, at each connection's place in its row. */
#define BUFFERS(X) \
    X(i, n_conn, -) X(i, n_srv, -) X(f, capacity, -) \
    X(I, order, conn) X(I, row_start, srv) X(I, row_width, srv) \
    X(F, fill, srv) X(F, conn_bytes, conn) X(F, total_admitted, srv) X(F, total_drained, srv) \
    X(F, full_steps, srv) X(F, observed_steps, srv) X(F, admitted_per_server, srv) \
    X(F, drained_per_server, srv) X(F, drained_per_conn, conn) \
    X(F, row_a, conn) X(F, row_b, conn) X(F, row_c, conn) X(F, row_d, conn) X(B, row_mask, conn)

#define BUFFERS_ENUM(type, name, size) BUF_##name,
enum { BUFFERS(BUFFERS_ENUM) BUF_N };
const char nk_buffers_slots[] = BUFFERS(SLOT_SPEC);

/* proportional_share of one over-subscribed row: up to four water-filling
 * passes of `room` over the row's demands dem[0:w] (connections cols[0:w]),
 * in proportion to `weights` (NULL: unit weights), from the unsatisfied
 * mask unsat (dem > 0, `count` of them) and a zero allocation alloc. */
static void water_fill(const double *dem, const int64_t *cols, int64_t w, double room,
                       const double *weights, int64_t count, double *alloc, double *take,
                       double *wv, uint8_t *unsat)
{
    double remaining = room;
    for (int pass = 0; pass < 4; pass++) {
        if (!(remaining > 1e-12))
            break;
        double w_sum;
        if (weights == NULL) {
            w_sum = (double)count;   /* a unit-weight row's weight sum */
        } else {
            for (int64_t j = 0; j < w; j++)
                wv[j] = unsat[j] ? weights[cols[j]] : 0.0;
            w_sum = row_sum(wv, w);
        }
        if (!(w_sum > 0))
            break;
        const double share = remaining / w_sum;
        count = 0;
        for (int64_t j = 0; j < w; j++) {
            const double offer = weights == NULL ? (double)unsat[j] * share
                                                 : remaining * wv[j] / w_sum;
            const double t = vmin(offer, dem[j] - alloc[j]);
            take[j] = t;
            alloc[j] += t;
            unsat[j] = (dem[j] - alloc[j]) > 1e-9;
            count += unsat[j];
        }
        remaining -= row_sum(take, w);
    }
}

/* Server s's admission room: its free space, plus its `extra` bytes (freed
 * by this step's drain) and capped at its `max_admission` when given. */
static inline double admission_room(const int64_t *bt, int64_t s, const double *extra,
                                    const double *max_admission)
{
    double r = vmax(f64(bt, BUF_capacity) - AT(bt, BUF_fill, double)[s], 0.0);
    if (extra != NULL)
        r = r + vmax(extra[s], 0.0);
    if (max_admission != NULL)
        r = vmin(r, vmax(max_admission[s], 0.0));
    return r;
}

/* ServerBuffers.admit of server s's row into `room`.  A row whose offers
 * fit admits them whole (nothing into no room); an over-subscribed one
 * water-fills. */
static void admit_row(const int64_t *bt, int64_t s, double room, const double *offered,
                      const double *weights, double *admitted, uint8_t *oversubscribed)
{
    const int64_t w = AT(bt, BUF_row_width, int64_t)[s];
    const int64_t base = AT(bt, BUF_row_start, int64_t)[s];
    const int64_t *cols = AT(bt, BUF_order, int64_t) + base;
    double *conn_bytes = AT(bt, BUF_conn_bytes, double);
    double *dem = AT(bt, BUF_row_a, double) + base, *alloc = AT(bt, BUF_row_b, double) + base;
    double *take = AT(bt, BUF_row_c, double) + base, *wv = AT(bt, BUF_row_d, double) + base;
    uint8_t *unsat = AT(bt, BUF_row_mask, uint8_t) + base;

    double total = 0.0;       /* offered to the server */
    int64_t count = 0;
    for (int64_t j = 0; j < w; j++) {
        const double o = offered[cols[j]];
        dem[j] = o;
        total += o;
        alloc[j] = 0.0;
        unsat[j] = o > 0;
        count += unsat[j];
    }
    const uint8_t over = total > room + 1e-9;
    /* Rows that offer nothing sum to 0.0, and the room is never negative. */
    const int water = w > 0 && row_sum(dem, w) > room;
    if (water)
        water_fill(dem, cols, w, room, weights, count, alloc, take, wv, unsat);
    const int closed = room <= 0;
    double got = 0.0;         /* admitted by the server */
    for (int64_t j = 0; j < w; j++) {
        const int64_t c = cols[j];
        const double a = water ? alloc[j] : closed ? 0.0 : dem[j];
        admitted[c] = a;
        oversubscribed[c] = over;
        conn_bytes[c] += a;
        got += a;
    }
    AT(bt, BUF_admitted_per_server, double)[s] = got;
    AT(bt, BUF_fill, double)[s] += got;
    AT(bt, BUF_total_admitted, double)[s] += got;
}

/* ServerBuffers.drain of server s's row, up to `capacity` bytes. */
static void drain_row(const int64_t *bt, int64_t s, double capacity)
{
    const int64_t w = AT(bt, BUF_row_width, int64_t)[s];
    const int64_t *cols = AT(bt, BUF_order, int64_t) + AT(bt, BUF_row_start, int64_t)[s];
    double *fill = AT(bt, BUF_fill, double);
    double *conn_bytes = AT(bt, BUF_conn_bytes, double);
    double *per_conn = AT(bt, BUF_drained_per_conn, double);
    const double drained = vmin(fill[s], vmax(capacity, 0.0));
    const double fraction = drained / vmax(fill[s], 1e-300);
    double left_total = 0.0;
    for (int64_t j = 0; j < w; j++) {
        const int64_t c = cols[j];
        const double d = conn_bytes[c] * fraction;
        per_conn[c] = d;
        const double left = conn_bytes[c] - d;
        const double kept = left < 1e-6 ? 0.0 : left;
        conn_bytes[c] = kept;
        left_total += kept;
    }
    fill[s] = left_total;
    AT(bt, BUF_drained_per_server, double)[s] = drained;
    AT(bt, BUF_total_drained, double)[s] += drained;
}

/* ServerBuffers.note_step. */
static void note_step(const int64_t *bt, const double *weight, double threshold)
{
    const int64_t ns = bt[BUF_n_srv];
    const double capacity = f64(bt, BUF_capacity);
    const double *fill = AT(bt, BUF_fill, double);
    double *full_steps = AT(bt, BUF_full_steps, double);
    double *observed_steps = AT(bt, BUF_observed_steps, double);
    for (int64_t s = 0; s < ns; s++) {
        observed_steps[s] += weight[s];
        if (fill[s] / capacity >= threshold)
            full_steps[s] += weight[s];
    }
}

void nk_admit(const int64_t *bt, const double *offered, const double *weights,
              const double *extra, const double *max_admission, double *admitted,
              uint8_t *oversubscribed)
{
    for (int64_t s = 0; s < bt[BUF_n_srv]; s++)
        admit_row(bt, s, admission_room(bt, s, extra, max_admission), offered, weights,
                  admitted, oversubscribed);
}

void nk_drain(const int64_t *bt, const double *drain_capacity)
{
    for (int64_t s = 0; s < bt[BUF_n_srv]; s++)
        drain_row(bt, s, drain_capacity[s]);
}

void nk_note_step(const int64_t *bt, const double *weight, double threshold)
{
    note_step(bt, weight, threshold);
}

/* ------------------------------------------------------------------ */
/* Server laws (repro.pfs.filesystem.PVFSDeployment)                   */
/* ------------------------------------------------------------------ */

/* Sync-mode codes of the mode lanes (repro.pfs.filesystem._MODE_CODES). */
enum { MODE_SYNC_ON = 0, MODE_SYNC_OFF = 1, MODE_NULL_AIO = 2 };

#define DEPLOYMENT(X) \
    X(i, n_srv, -) X(f, op_cost, -) X(f, cache_capacity, -) X(f, memory_bw, -) \
    X(f, flush_fraction, -) X(C, mode, srv) X(F, ingest_rate, srv) X(F, unit_cap, srv) \
    X(F, write_bw, srv) X(F, positioning_cost, srv) X(F, granule_cap, srv) \
    X(F, drained_bytes, srv) X(F, busy_time, srv) X(F, dirty_bytes, srv) \
    X(F, absorbed_bytes, srv) X(F, flushed_bytes, srv) X(F, pending_bytes, srv) \
    X(F, written_bytes, srv) X(F, device_busy_time, srv)

#define DEPLOYMENT_ENUM(type, name, size) DEP_##name,
enum { DEPLOYMENT(DEPLOYMENT_ENUM) DEP_N };
const char nk_deployment_slots[] = DEPLOYMENT(SLOT_SPEC);

typedef struct {
    double op_cost, cache_capacity, memory_bw, flush_fraction;
    const int8_t *mode;
    const double *ingest_rate, *unit_cap, *write_bw, *positioning_cost, *granule_cap;
    const double *dirty_bytes;
} Law;

static void load_law(const int64_t *dt, Law *law)
{
    law->op_cost = f64(dt, DEP_op_cost);
    law->cache_capacity = f64(dt, DEP_cache_capacity);
    law->memory_bw = f64(dt, DEP_memory_bw);
    law->flush_fraction = f64(dt, DEP_flush_fraction);
    law->mode = AT(dt, DEP_mode, int8_t);
    law->ingest_rate = AT(dt, DEP_ingest_rate, double);
    law->unit_cap = AT(dt, DEP_unit_cap, double);
    law->write_bw = AT(dt, DEP_write_bw, double);
    law->positioning_cost = AT(dt, DEP_positioning_cost, double);
    law->granule_cap = AT(dt, DEP_granule_cap, double);
    law->dirty_bytes = AT(dt, DEP_dirty_bytes, double);
}

/* DeviceSpec.effective_write_bw of lane s (granularity >= 1).  An unlimited
 * device takes no penalty: its penalty bandwidth is an exact 0.0. */
static inline double device_bw(const Law *law, int64_t s, int64_t n_streams, double granularity)
{
    const double write_bw = law->write_bw[s];
    const double switch_fraction = 1.0 - 1.0 / (double)(n_streams > 1 ? n_streams : 1);
    const double granule = vmin(granularity, law->granule_cap[s]);
    const double penalty_bw = write_bw == INFINITY ? 0.0 : write_bw;
    const double penalty = switch_fraction * law->positioning_cost[s] * penalty_bw / granule;
    return write_bw / (1.0 + penalty);
}

/* WritebackCache.flush_rate of lane s. */
static inline double flush_rate(const Law *law, int64_t s, double device)
{
    return law->write_bw[s] == INFINITY ? law->memory_bw : device * law->flush_fraction;
}

/* The byte-rate ceiling of lane s at the current cache state. */
static inline double byte_rate(const Law *law, int64_t s, double device)
{
    const double ingest = law->ingest_rate[s];
    switch (law->mode[s]) {
    case MODE_NULL_AIO:
        return ingest;
    case MODE_SYNC_OFF: {
        const int full = law->dirty_bytes[s] >= law->cache_capacity;
        return vmin(ingest, full ? flush_rate(law, s, device) : law->memory_bw);
    }
    default:
        return vmin(ingest, device);
    }
}

/* PVFSServer.drain_rate from a byte-rate ceiling and a processing unit. */
static inline double drain_rate(const Law *law, double rate, double unit)
{
    return law->op_cost <= 0 ? rate : 1.0 / (1.0 / rate + law->op_cost / unit);
}

/* PVFSDeployment.law: every lane's drain rate and device bandwidth.  A
 * non-positive fragment size processes at the flow-buffer unit. */
static void law_rates(const int64_t *dt, const int64_t *n_streams, const double *fragments,
                      double *rates, double *device_out)
{
    Law law;
    load_law(dt, &law);
    const int64_t ns = dt[DEP_n_srv];
    for (int64_t s = 0; s < ns; s++) {
        const double fragment = fragments[s];
        const double granularity = vmax(fragment, 1.0);
        const double device = device_bw(&law, s, n_streams[s], granularity);
        device_out[s] = device;
        const double unit = fragment <= 0 ? law.unit_cap[s] : vmin(law.unit_cap[s], granularity);
        rates[s] = drain_rate(&law, byte_rate(&law, s, device), unit);
    }
}

/* PVFSDeployment.commit_flat: the write-back cache (Sync OFF) or the device
 * queue (Sync ON) of every lane, then busy time at the post-commit cache
 * state (null-aio lanes charge none). */
static void commit(const int64_t *dt, const double *drained, const double *step,
                   const double *fragments, const double *device)
{
    Law law;
    load_law(dt, &law);
    const int64_t ns = dt[DEP_n_srv];
    double *drained_bytes = AT(dt, DEP_drained_bytes, double);
    double *busy_time = AT(dt, DEP_busy_time, double);
    double *dirty_bytes = AT(dt, DEP_dirty_bytes, double);
    double *absorbed_bytes = AT(dt, DEP_absorbed_bytes, double);
    double *flushed_bytes = AT(dt, DEP_flushed_bytes, double);
    double *pending_bytes = AT(dt, DEP_pending_bytes, double);
    double *written_bytes = AT(dt, DEP_written_bytes, double);
    double *device_busy_time = AT(dt, DEP_device_busy_time, double);
    const double cache_capacity = law.cache_capacity;
    for (int64_t s = 0; s < ns; s++) {
        const double d = drained[s], h = step[s];
        const int mode = law.mode[s];
        drained_bytes[s] += d;
        if (mode == MODE_SYNC_OFF) {
            const double flush = flush_rate(&law, s, device[s]);
            double dirty = dirty_bytes[s];
            const double flushed = vmin(dirty, flush * h);
            dirty -= flushed;
            flushed_bytes[s] += flushed;
            if (d > 0) {
                const int full = dirty >= cache_capacity;
                const double rate_limit = (full ? flush : law.memory_bw) * h;
                const double room = vmax(cache_capacity - dirty, 0.0);
                double accepted = vmin(d, rate_limit);
                if (room > 0)
                    accepted = vmin(accepted, room + flush * h);
                dirty = vmin(dirty + accepted, cache_capacity);
                absorbed_bytes[s] += accepted;
            }
            dirty_bytes[s] = dirty;
        } else if (mode == MODE_SYNC_ON) {
            const double capacity = device[s] * h;
            const double pending = pending_bytes[s] + d;
            const double written = vmin(pending, capacity);
            pending_bytes[s] = pending - written;
            written_bytes[s] += written;
            if (capacity > 0)
                device_busy_time[s] += written / capacity * h;
        }
        if (mode != MODE_NULL_AIO) {
            const double granularity = vmax(fragments[s], 1.0);
            const double rate = byte_rate(&law, s, device[s]);
            const double capacity =
                drain_rate(&law, rate, vmin(law.unit_cap[s], granularity)) * h;
            if (d > 0 && capacity > 0)
                busy_time[s] += vmin(d / capacity, 1.0) * h;
        }
    }
}

void nk_law(const int64_t *dt, const int64_t *n_streams, const double *fragments,
            double *rates, double *device)
{
    law_rates(dt, n_streams, fragments, rates, device);
}

void nk_commit(const int64_t *dt, const double *drained, const double *step,
               const double *fragments, const double *device)
{
    commit(dt, drained, step, fragments, device);
}

/* ------------------------------------------------------------------ */
/* Links (repro.network.topology.StarTopology)                         */
/* ------------------------------------------------------------------ */

#define TOPOLOGY(X) \
    X(i, n_node, -) X(i, n_srv, -) X(F, node_transferred, node) X(F, node_busy, node) \
    X(F, server_transferred, srv) X(F, server_busy, srv)

#define TOPOLOGY_ENUM(type, name, size) TOP_##name,
enum { TOPOLOGY(TOPOLOGY_ENUM) TOP_N };
const char nk_topology_slots[] = TOPOLOGY(SLOT_SPEC);

static void record_links(int64_t n, const double *nbytes, const double *limit,
                         const double *step, double *transferred, double *busy)
{
    for (int64_t k = 0; k < n; k++) {
        const double clipped = vmin(nbytes[k], limit[k]);
        transferred[k] += clipped;
        busy[k] += clipped / limit[k] * step[k];
    }
}

/* StarTopology.record_step_flat. */
static void record_step(const int64_t *tt, const double *per_node, const double *per_server,
                        const double *node_dt, const double *server_dt,
                        const double *node_limit, const double *server_limit)
{
    record_links(tt[TOP_n_node], per_node, node_limit, node_dt,
                 AT(tt, TOP_node_transferred, double), AT(tt, TOP_node_busy, double));
    record_links(tt[TOP_n_srv], per_server, server_limit, server_dt,
                 AT(tt, TOP_server_transferred, double), AT(tt, TOP_server_busy, double));
}

void nk_record_step(const int64_t *tt, const double *per_node, const double *per_server,
                    const double *node_dt, const double *server_dt,
                    const double *node_limit, const double *server_limit)
{
    record_step(tt, per_node, per_server, node_dt, server_dt, node_limit, server_limit);
}

/* ------------------------------------------------------------------ */
/* Transport windows (repro.network.congestion.WindowState)            */
/* ------------------------------------------------------------------ */

/* `increase` is additive_increase_segments * mss, combined in Python. */
#define WINDOWS(X) \
    X(i, n_conn, -) X(f, mss, -) X(f, increase, -) X(f, window_max, -) X(f, window_min, -) \
    X(f, decrease, -) X(f, starvation_fraction, -) X(f, rto, -) X(i, max_backoff, -) \
    X(F, cwnd, conn) X(F, stall_until, conn) X(I, backoff, conn) X(F, starved_time, conn) \
    X(F, last_delivery, conn) X(I, collapse_count, conn) X(F, delivered_bytes, conn) \
    X(B, paced, conn) X(B, ever_paced, conn) X(B, keep, conn) X(B, timed_out, conn) \
    X(B, candidates, conn) X(F, draws, conn) X(F, hazard, conn) X(F, jitter, conn)

#define WINDOWS_ENUM(type, name, size) WIN_##name,
enum { WINDOWS(WINDOWS_ENUM) WIN_N };
const char nk_windows_slots[] = WINDOWS(SLOT_SPEC);

/* WindowState.update up to the paced-timeout hazard, and the hazard
 * candidates (paced, loss-prone and active, not timed out).
 *
 *   - A connection that delivered at least half its request recovers its
 *     backoff; one that pushed a segment through has a running ACK clock
 *     (it is paced) again.
 *   - Additive increase: one segment per effective RTT of good progress
 *     (at least 90% delivered).
 *   - Multiplicative decrease: only loss-prone connections read a throttled
 *     step (under half delivered, server oversubscribed) as packet loss.  A
 *     paced connection that gets less than it asked for is under flow
 *     control (advertised window, queueing delay), which real TCP absorbs
 *     without shrinking cwnd; treating it as loss makes one-writer-per-node
 *     configurations underutilize the backend.
 *   - Starvation: only loss-prone connections accumulate it (a burst into a
 *     full buffer was lost; a source-paced trickle was merely delayed), and
 *     a starved time reaching the RTO times the connection out.
 *
 * loss_prone may be NULL (every active connection).  Returns -1 when no
 * connection requested or delivered anything (nothing but delivered_bytes
 * changed), else candidates << 32 | timeouts. */
static int64_t window_update(const int64_t *wt, const double *now, const double *dt,
                             const double *requested, const double *admitted,
                             const double *rtt_eff, const uint8_t *oversubscribed,
                             const uint8_t *loss_prone)
{
    const int64_t n = wt[WIN_n_conn];
    const double mss = f64(wt, WIN_mss), increase = f64(wt, WIN_increase);
    const double window_max = f64(wt, WIN_window_max), window_min = f64(wt, WIN_window_min);
    const double decrease = f64(wt, WIN_decrease), rto = f64(wt, WIN_rto);
    const double starvation_fraction = f64(wt, WIN_starvation_fraction);
    double *cwnd = AT(wt, WIN_cwnd, double);
    int64_t *backoff = AT(wt, WIN_backoff, int64_t);
    double *starved_time = AT(wt, WIN_starved_time, double);
    double *last_delivery = AT(wt, WIN_last_delivery, double);
    double *delivered_bytes = AT(wt, WIN_delivered_bytes, double);
    uint8_t *paced = AT(wt, WIN_paced, uint8_t), *ever_paced = AT(wt, WIN_ever_paced, uint8_t);
    uint8_t *keep = AT(wt, WIN_keep, uint8_t), *timed_out = AT(wt, WIN_timed_out, uint8_t);
    uint8_t *candidates = AT(wt, WIN_candidates, uint8_t);

    /* Every change below needs an active or delivering lane, so the other
     * lanes are untouched, as when no lane is either. */
    int any = 0, any_starving = 0;
    for (int64_t i = 0; i < n; i++) {
        const double asked = requested[i], got = admitted[i];
        const int active = asked > 1e-9, delivered = got > 1e-9;
        delivered_bytes[i] += got;
        any |= active | delivered;
        const double fraction = active ? got / asked : 1.0;
        if (delivered)
            last_delivery[i] = now[i];
        const int half = fraction >= 0.5;
        if (delivered && half)
            backoff[i] = 0;
        if (got >= mss)
            paced[i] = ever_paced[i] = 1;
        if (active && fraction >= 0.9) {
            const double grown = cwnd[i] + dt[i] / vmax(rtt_eff[i], 1e-9) * increase;
            cwnd[i] = vmin(grown, window_max);
        }
        const int kept = active && (loss_prone == NULL || loss_prone[i]);
        keep[i] = kept;
        if (kept && !half && oversubscribed[i])
            cwnd[i] = vmax(cwnd[i] * decrease, window_min);
        if (kept && fraction < starvation_fraction) {
            starved_time[i] = starved_time[i] + dt[i];
            any_starving = 1;
        } else if (active) {
            starved_time[i] = 0.0;
        }
    }
    if (!any)
        return -1;
    int64_t n_candidates = 0, n_timed_out = 0;
    for (int64_t i = 0; i < n; i++) {
        const int out = any_starving && starved_time[i] >= rto;
        const int candidate = paced[i] && !out && keep[i];
        timed_out[i] = out;
        candidates[i] = candidate;
        n_timed_out += out;
        n_candidates += candidate;
    }
    return n_candidates << 32 | n_timed_out;
}

/* Generator.uniform(0.5, 1.5) of a Generator.random() draw u: NumPy
 * computes low + (high - low) * u. */
#define JITTER_LOW 0.5
#define JITTER_RANGE 1.0

/* WindowState.force_timeout of every flagged connection: the window drops
 * to its minimum and the connection stalls for an exponentially backed-off
 * RTO, scaled by its jitter (from the uniform draws `jitter`, consumed in
 * lane order, one per flagged lane) from its clock `now`. */
static void collapse(const int64_t *wt, const uint8_t *flagged, const double *now,
                     const double *jitter)
{
    const int64_t n = wt[WIN_n_conn], max_backoff = wt[WIN_max_backoff];
    const double window_min = f64(wt, WIN_window_min), rto = f64(wt, WIN_rto);
    double *cwnd = AT(wt, WIN_cwnd, double), *stall_until = AT(wt, WIN_stall_until, double);
    double *starved_time = AT(wt, WIN_starved_time, double);
    int64_t *backoff = AT(wt, WIN_backoff, int64_t);
    int64_t *collapse_count = AT(wt, WIN_collapse_count, int64_t);
    uint8_t *paced = AT(wt, WIN_paced, uint8_t);
    int64_t j = 0;
    for (int64_t i = 0; i < n; i++) {
        if (!flagged[i])
            continue;
        const int64_t exponent = backoff[i] < max_backoff ? backoff[i] : max_backoff;
        cwnd[i] = window_min;
        const double scale = JITTER_LOW + JITTER_RANGE * jitter[j++];
        stall_until[i] = now[i] + rto * ldexp(1.0, (int)exponent) * scale;
        backoff[i] = exponent + 1;
        starved_time[i] = 0.0;
        collapse_count[i] += 1;
        paced[i] = 0;
    }
}

void nk_collapse(const int64_t *wt, const uint8_t *flagged, const double *now,
                 const double *jitter)
{
    collapse(wt, flagged, now, jitter);
}

/* Add the hazard's timeouts (candidates whose draw fell under their step's
 * paced-timeout probability `hazard`) and count every timeout. */
int64_t nk_window_hazard(const int64_t *wt)
{
    const int64_t n = wt[WIN_n_conn];
    const uint8_t *candidates = AT(wt, WIN_candidates, uint8_t);
    const double *draws = AT(wt, WIN_draws, double), *hazard = AT(wt, WIN_hazard, double);
    uint8_t *timed_out = AT(wt, WIN_timed_out, uint8_t);
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        timed_out[i] |= candidates[i] && draws[i] < hazard[i];
        count += timed_out[i];
    }
    return count;
}

int64_t nk_window_update(const int64_t *wt, const double *now, const double *dt,
                         const double *requested, const double *admitted,
                         const double *rtt_eff, const uint8_t *oversubscribed,
                         const uint8_t *loss_prone)
{
    return window_update(wt, now, dt, requested, admitted, rtt_eff, oversubscribed,
                         loss_prone);
}

/* ------------------------------------------------------------------ */
/* The kernel's phases (repro.model.stepper / repro.model.batch)       */
/* ------------------------------------------------------------------ */

/* Sizes, the objects' tables and the transport's constants; the flat state's
 * lanes and constants; the step's clocks; the workspace slots (by phase, then
 * the scratch: gated/failed masks, srv_*, node_*); the completion scan's
 * arrays. */
#define KERNEL(X) \
    X(i, n_conn, -) X(i, n_srv, -) X(i, n_node, -) X(i, n_member, -) X(i, n_app, -) \
    X(i, n_proc, -) X(T, buffers, -) X(T, windows, -) X(T, deployment, -) X(T, topology, -) \
    X(f, capacity, -) X(f, collapse_penalty, -) X(f, rwnd_budget, -) X(f, window_min, -) \
    X(i, lossless, -) X(f, source_margin, -) X(f, wl_margin, -) \
    X(f, incast_window_threshold, -) X(f, burst_loss_ratio, -) X(f, send_floor, -) \
    X(f, escape_probability, -) X(f, reentry_probability, -) X(f, epsilon, -) \
    X(i, app_active, -) \
    X(I, conn_server, conn) X(I, conn_node, conn) X(I, conn_member, conn) \
    X(F, send_remaining, conn) X(F, frag_size, conn) X(F, base_rtt, conn) \
    X(F, server_stripe, srv) X(F, node_caps_dt, node) X(F, server_nic_dt, srv) \
    X(F, node_line_rate, node) X(F, last_drain_rate, srv) X(F, last_admission_rate, srv) \
    X(F, now_conn, conn) X(F, dt_conn, conn) X(F, dt_server, srv) X(F, dt_node, node) \
    X(F, dt, member) X(F, observed_time, member) X(F, step_weight, srv) \
    X(F, outstanding, conn) X(B, busy, conn) X(F, busy_f, conn) X(F, n_active, srv) \
    X(I, n_streams, srv) X(F, n_streams_f, srv) X(F, avg_frag, srv) \
    X(B, sending, conn) X(F, n_ready, srv) X(F, drain_rate, srv) X(F, rates, srv) \
    X(F, device_bw, srv) \
    X(F, rtt_eff, conn) X(F, potential, conn) X(F, desired, conn) X(B, active, conn) \
    X(B, loss_prone, conn) X(F, draws, conn) \
    X(F, admitted, conn) X(B, oversubscribed, conn) \
    X(B, gated, conn) X(B, failed, conn) X(I, member_count, member) \
    X(F, srv_a, srv) X(F, srv_b, srv) X(B, srv_mask_a, srv) X(B, srv_mask_b, srv) \
    X(F, node_a, node) X(F, node_b, node) X(F, node_c, node) \
    X(C, app_phase, app) X(I, collapses_per_app, app) X(B, app_collective, app) \
    X(B, app_independent, app) X(I, app_n_procs, app) X(I, conn_app, conn) \
    X(I, conn_proc, conn) X(I, proc_app, proc) X(I, proc_member, proc) \
    X(I, proc_current_op, proc) X(I, proc_last_op, proc) X(F, proc_next_issue, proc) \
    X(B, changed, app) X(B, ready, proc) X(B, settled, app) X(F, per_app, app) \
    X(F, per_proc, proc) X(F, outstanding_scan, conn)

#define KERNEL_ENUM(type, name, size) K_##name,
enum { KERNEL(KERNEL_ENUM) K_N };
const char nk_kernel_slots[] = KERNEL(SLOT_SPEC);

#define KF(name) AT(kt, K_##name, double)
#define KI(name) AT(kt, K_##name, int64_t)
#define KB(name) AT(kt, K_##name, uint8_t)
#define KT(name) AT(kt, K_##name, int64_t)

/* Phase 1: busy connections, active writers and mean fragment per server. */
void nk_workload_mix(const int64_t *kt)
{
    const int64_t nc = kt[K_n_conn], ns = kt[K_n_srv];
    const double epsilon = f64(kt, K_epsilon);
    const int64_t *cs = KI(conn_server);
    const double *send_remaining = KF(send_remaining), *frag_size = KF(frag_size);
    const double *conn_bytes = AT(KT(buffers), BUF_conn_bytes, double);
    const double *stripe = KF(server_stripe);
    double *outstanding = KF(outstanding), *busy_f = KF(busy_f), *n_active = KF(n_active);
    double *n_streams_f = KF(n_streams_f), *avg_frag = KF(avg_frag);
    int64_t *n_streams = KI(n_streams);
    uint8_t *busy = KB(busy);

    for (int64_t s = 0; s < ns; s++)
        n_active[s] = avg_frag[s] = 0.0;
    for (int64_t i = 0; i < nc; i++) {
        const double out = send_remaining[i] + conn_bytes[i];
        outstanding[i] = out;
        busy[i] = out > epsilon;
        busy_f[i] = busy[i];
        n_active[cs[i]] += busy_f[i];
        avg_frag[cs[i]] += frag_size[i] * busy_f[i];   /* fragment sums first */
    }
    for (int64_t s = 0; s < ns; s++) {
        const double writers = vmax(n_active[s], 1.0);
        const double mean = avg_frag[s] / writers;
        /* Idle servers: a neutral granularity, so the law divides by no 0. */
        avg_frag[s] = mean <= 0.0 ? stripe[s] : mean;
        n_streams[s] = (int64_t)writers;
        n_streams_f[s] = (double)n_streams[s];
    }
}

/* Phase 2: the server law and each server's drain capacity, reduced by the
 * fraction of its busy connections stalled in an RTO. */
void nk_drain_phase(const int64_t *kt)
{
    const int64_t nc = kt[K_n_conn], ns = kt[K_n_srv];
    const double collapse_penalty = f64(kt, K_collapse_penalty);
    const int64_t *cs = KI(conn_server);
    const double *stall_until = AT(KT(windows), WIN_stall_until, double);
    const double *now = KF(now_conn), *busy_f = KF(busy_f), *n_active = KF(n_active);
    const double *n_streams_f = KF(n_streams_f), *rates = KF(rates);
    double *n_ready = KF(n_ready), *drain = KF(drain_rate), *last = KF(last_drain_rate);
    uint8_t *sending = KB(sending);

    law_rates(KT(deployment), KI(n_streams), KF(avg_frag), KF(rates), KF(device_bw));
    for (int64_t s = 0; s < ns; s++)
        n_ready[s] = 0.0;
    for (int64_t i = 0; i < nc; i++) {
        sending[i] = stall_until[i] <= now[i];
        n_ready[cs[i]] += busy_f[i] * (double)sending[i];
    }
    for (int64_t s = 0; s < ns; s++) {
        const double stalled = (n_active[s] - n_ready[s]) / n_streams_f[s];
        const double rate = rates[s] * (1.0 - stalled * collapse_penalty);
        drain[s] = rate;
        last[s] = vmax(rate, 1.0);
    }
}

/* Phase 3: window- and source-capped offers, whether each connection is
 * loss-prone, and the burst-escape gate's mask.  Returns the gated count. */
int64_t nk_offer(const int64_t *kt)
{
    const int64_t nc = kt[K_n_conn], ns = kt[K_n_srv], nn = kt[K_n_node];
    const double capacity = f64(kt, K_capacity);
    const double rwnd_budget = f64(kt, K_rwnd_budget), window_min = f64(kt, K_window_min);
    const int64_t *cs = KI(conn_server), *cn = KI(conn_node);
    const int64_t *bt = KT(buffers), *wt = KT(windows);
    const double *fill = AT(bt, BUF_fill, double);
    const double *cwnd = AT(wt, WIN_cwnd, double);
    const uint8_t *paced = AT(wt, WIN_paced, uint8_t);
    const double *send_remaining = KF(send_remaining), *base_rtt = KF(base_rtt);
    const double *last_drain = KF(last_drain_rate), *n_ready = KF(n_ready);
    const double *dt = KF(dt_conn), *caps = KF(node_caps_dt), *busy_f = KF(busy_f);
    const double *n_streams_f = KF(n_streams_f), *line_rate = KF(node_line_rate);
    const uint8_t *sending = KB(sending);
    double *rtt_eff = KF(rtt_eff), *potential = KF(potential), *desired = KF(desired);
    double *queue = KF(srv_a), *window = KF(srv_b);
    double *node_a = KF(node_a), *node_b = KF(node_b), *node_c = KF(node_c);
    uint8_t *active = KB(active), *loss_prone = KB(loss_prone), *gated = KB(gated);
    uint8_t *incast = KB(srv_mask_a), *full = KB(srv_mask_b);

    /* Effective RTT: base RTT plus the server's queueing delay; the
     * receive window: the server's budget over its ready connections. */
    for (int64_t s = 0; s < ns; s++) {
        queue[s] = fill[s] / last_drain[s];
        window[s] = vmax(rwnd_budget / vmax(n_ready[s], 1.0), window_min);
    }
    for (int64_t k = 0; k < nn; k++)
        node_a[k] = node_b[k] = 0.0;
    for (int64_t i = 0; i < nc; i++) {
        const int64_t s = cs[i];
        const double rtt = queue[s] + base_rtt[i];
        rtt_eff[i] = rtt;
        const double offer = vmin(cwnd[i], window[s]) / vmax(rtt, 1e-9) * dt[i]
                             * (double)sending[i];
        potential[i] = offer;
        desired[i] = vmin(offer, send_remaining[i]);
        node_a[cn[i]] += desired[i];      /* offered per node */
        node_b[cn[i]] += busy_f[i];       /* busy connections per node */
    }
    /* Per-node injection cap: an over-capacity node scales its offers by
     * capacity / total (dividing only those sidesteps overflow).  Node
     * shares over busy connections: injection capacity (with the source
     * margin) and line rate. */
    const double source_margin = f64(kt, K_source_margin);
    int capped = 0;
    for (int64_t k = 0; k < nn; k++) {
        if (node_a[k] > caps[k]) {
            node_a[k] = caps[k] / vmax(node_a[k], 1e-300);
            capped = 1;
        } else {
            node_a[k] = 1.0;
        }
        const double busy = vmax(node_b[k], 1.0);
        node_c[k] = caps[k] / busy * source_margin;
        node_b[k] = line_rate[k] / busy;
    }
    /* Server shares: the buffer and the drain per connection; a buffer is
     * full at 90% occupancy. */
    const double threshold = f64(kt, K_incast_window_threshold);
    const double burst_loss_ratio = f64(kt, K_burst_loss_ratio);
    for (int64_t s = 0; s < ns; s++) {
        incast[s] = capacity / n_streams_f[s] < threshold;
        queue[s] = last_drain[s] / n_streams_f[s] * burst_loss_ratio;
        full[s] = fill[s] / capacity >= 0.9;
    }
    /* Lossless transports are never loss-prone, and neither is an idle
     * connection. */
    const int lossy = !kt[K_lossless];
    const double wl_margin = f64(kt, K_wl_margin);
    int64_t n_gated = 0;
    for (int64_t i = 0; i < nc; i++) {
        const int64_t s = cs[i], k = cn[i];
        if (capped)
            desired[i] = desired[i] * node_a[k];
        const int is_active = desired[i] > 1e-9;
        active[i] = is_active;
        const int window_limited = is_active && send_remaining[i] >= potential[i] * wl_margin
                                   && potential[i] <= node_c[k];
        const int prone = lossy && window_limited && incast[s] && node_b[k] >= queue[s];
        loss_prone[i] = prone;
        gated[i] = prone && !paced[i] && full[s];
        n_gated += gated[i];
    }
    return n_gated;
}

/* The burst-escape gate's failures: gated connections whose draw reached
 * their escape probability (the re-entry one once ever paced), counted per
 * member in member_count.  Returns their count. */
int64_t nk_gate(const int64_t *kt)
{
    const int64_t nc = kt[K_n_conn], nm = kt[K_n_member];
    const double escape = f64(kt, K_escape_probability);
    const double reentry = f64(kt, K_reentry_probability);
    const uint8_t *ever_paced = AT(KT(windows), WIN_ever_paced, uint8_t);
    const uint8_t *gated = KB(gated);
    const int64_t *conn_member = KI(conn_member);
    const double *draws = KF(draws);
    uint8_t *failed = KB(failed);
    int64_t *member_count = KI(member_count);
    int64_t n_failed = 0;
    for (int64_t m = 0; m < nm; m++)
        member_count[m] = 0;
    for (int64_t i = 0; i < nc; i++) {
        failed[i] = gated[i] && draws[i] >= (ever_paced[i] ? reentry : escape);
        member_count[conn_member[i]] += failed[i];
        n_failed += failed[i];
    }
    return n_failed;
}

/* Tally every flagged connection's collapse on its application. */
static void count_collapses(const int64_t *kt, const uint8_t *flagged)
{
    const int64_t nc = kt[K_n_conn];
    const int64_t *conn_app = KI(conn_app);
    int64_t *collapses = KI(collapses_per_app);
    for (int64_t i = 0; i < nc; i++)
        collapses[conn_app[i]] += flagged[i];
}

/* The gate's failed connections time out (force_timeout, with the jitter
 * their members drew in lane order) and offer nothing this step. */
void nk_gate_collapse(const int64_t *kt)
{
    const int64_t nc = kt[K_n_conn];
    const int64_t *wt = KT(windows);
    const uint8_t *failed = KB(failed);
    double *desired = KF(desired);
    collapse(wt, failed, KF(now_conn), AT(wt, WIN_jitter, double));
    count_collapses(kt, failed);
    for (int64_t i = 0; i < nc; i++)
        if (failed[i])
            desired[i] = 0.0;
}

/* Tally the window update's timeouts on their applications. */
void nk_count_timeouts(const int64_t *kt)
{
    count_collapses(kt, AT(KT(windows), WIN_timed_out, uint8_t));
}

/* Phase 4: admission into the buffers (with the room this step's drain
 * frees), the send floor, the drain and the backend commit. */
void nk_admission(const int64_t *kt)
{
    const int64_t ns = kt[K_n_srv];
    const double send_floor = f64(kt, K_send_floor);
    const int64_t *bt = KT(buffers);
    const int64_t *order = AT(bt, BUF_order, int64_t);
    const int64_t *row_start = AT(bt, BUF_row_start, int64_t);
    const int64_t *row_width = AT(bt, BUF_row_width, int64_t);
    const double *drain_rate = KF(drain_rate), *dt_server = KF(dt_server);
    const double *desired = KF(desired), *nic = KF(server_nic_dt);
    double *admitted = KF(admitted), *send_remaining = KF(send_remaining), *extra = KF(srv_b);
    uint8_t *oversubscribed = KB(oversubscribed);

    /* Rows are independent: each server admits, its connections send (a
     * send under the floor snaps to 0), and it drains, before the next
     * server. */
    for (int64_t s = 0; s < ns; s++) {
        extra[s] = drain_rate[s] * dt_server[s];
        admit_row(bt, s, admission_room(bt, s, extra, nic), desired, NULL, admitted,
                  oversubscribed);
        const int64_t *cols = order + row_start[s];
        for (int64_t j = 0; j < row_width[s]; j++) {
            const int64_t c = cols[j];
            const double left = send_remaining[c] - admitted[c];
            send_remaining[c] = left < send_floor ? 0.0 : left;
        }
        drain_row(bt, s, extra[s]);
    }
    commit(KT(deployment), AT(bt, BUF_drained_per_server, double), dt_server,
           KF(avg_frag), KF(device_bw));
}

/* Phase 5 up to the hazard (see window_update). */
int64_t nk_window_dynamics(const int64_t *kt)
{
    return window_update(KT(windows), KF(now_conn), KF(dt_conn), KF(desired), KF(admitted),
                         KF(rtt_eff), KB(oversubscribed), KB(loss_prone));
}

/* Phase 6: link accounting, observed time, buffer pressure and admission
 * rates. */
void nk_accounting(const int64_t *kt)
{
    const int64_t nc = kt[K_n_conn], ns = kt[K_n_srv], nm = kt[K_n_member];
    const double *per_server = AT(KT(buffers), BUF_admitted_per_server, double);
    const double *dt_server = KF(dt_server), *dt = KF(dt);
    double *per_node = KF(node_a), *observed = KF(observed_time);
    double *admission_rate = KF(last_admission_rate);

    bincount(KI(conn_node), KF(admitted), nc, per_node, kt[K_n_node]);
    record_step(KT(topology), per_node, per_server, KF(dt_node), dt_server,
                KF(node_caps_dt), KF(server_nic_dt));
    for (int64_t m = 0; m < nm; m++)
        observed[m] += dt[m];
    note_step(KT(buffers), KF(step_weight), 0.95);
    for (int64_t s = 0; s < ns; s++)
        admission_rate[s] = per_server[s] / dt_server[s];
}

/* Phase 7's scan: the applications whose state changes at the end of this
 * step (collective ones whose operation drained; independent ones with a
 * process ready to issue or every process done), the per-process ready and
 * per-application settled masks, at the member clocks `now`.  Returns the
 * number of changed applications. */
int64_t nk_completion(const int64_t *kt, const double *now)
{
    const int64_t nc = kt[K_n_conn], na = kt[K_n_app], np = kt[K_n_proc];
    const double epsilon = f64(kt, K_epsilon);
    const int64_t app_active = kt[K_app_active];   /* an operation in flight */
    const int8_t *phase = AT(kt, K_app_phase, int8_t);
    const uint8_t *collective = KB(app_collective), *independent = KB(app_independent);
    const int64_t *n_procs = KI(app_n_procs), *proc_app = KI(proc_app);
    const int64_t *proc_member = KI(proc_member), *current_op = KI(proc_current_op);
    const int64_t *last_op = KI(proc_last_op);
    const double *next_issue = KF(proc_next_issue);
    const double *send_remaining = KF(send_remaining);
    const double *conn_bytes = AT(KT(buffers), BUF_conn_bytes, double);
    double *per_app = KF(per_app), *per_proc = KF(per_proc);
    uint8_t *changed = KB(changed), *ready = KB(ready), *settled = KB(settled);

    int any_active = 0, any_collective = 0, any_independent = 0;
    for (int64_t a = 0; a < na; a++) {
        const int active = phase[a] == app_active;
        any_active |= active;
        changed[a] = active && collective[a];
        any_collective |= changed[a];
        any_independent |= active && independent[a];
    }
    if (!any_active)
        return 0;
    double *outstanding = KF(outstanding_scan);
    if (any_collective || any_independent)
        for (int64_t i = 0; i < nc; i++)
            outstanding[i] = send_remaining[i] + conn_bytes[i];
    if (any_collective) {
        bincount(KI(conn_app), outstanding, nc, per_app, na);
        for (int64_t a = 0; a < na; a++)
            changed[a] = changed[a] && per_app[a] <= epsilon;
    }
    if (any_independent) {
        bincount(KI(conn_proc), outstanding, nc, per_proc, np);
        for (int64_t a = 0; a < na; a++)
            per_app[a] = 0.0;
        for (int64_t p = 0; p < np; p++) {
            const int64_t a = proc_app[p];
            const int idle = per_proc[p] <= epsilon;
            const int exhausted = current_op[p] >= last_op[p];
            ready[p] = idle && !exhausted && next_issue[p] <= now[proc_member[p]]
                       && phase[a] == app_active && independent[a];
            per_app[a] += (double)(idle && exhausted);
        }
        for (int64_t a = 0; a < na; a++) {
            settled[a] = per_app[a] == (double)n_procs[a] && phase[a] == app_active
                         && independent[a];
            changed[a] |= settled[a];
        }
        for (int64_t p = 0; p < np; p++)
            if (ready[p])
                changed[proc_app[p]] = 1;
    }
    int64_t n_changed = 0;
    for (int64_t a = 0; a < na; a++)
        n_changed += changed[a];
    return n_changed;
}
