/**
 * @file
 * Parallel experiment engine: run a grid of independent simulation
 * points on a few threads, merge results back into exact serial
 * order, and serve repeated points from the result cache.
 *
 * Every point is a pure function of its Experiment, so the engine
 * can schedule them in any order and still return a result vector
 * byte-identical to the historical serial `run_sweep` — results are
 * written into their precomputed slot (the serial index), which *is*
 * the deterministic merge; there is no reduction step to get wrong.
 * With jobs > 1, min(jobs, n) threads claim serial indices from one
 * shared atomic counter until the grid is exhausted.
 *
 * Progress-callback contract: with jobs == 1 the callback fires on
 * the calling thread, in serial order, before each point — exactly
 * the historical behavior. With jobs > 1 it fires on WORKER threads,
 * concurrently, in the order the threads claim points; callbacks
 * must be thread-safe (take a lock around printing, use atomics for
 * counting). Either way it fires exactly once per point, since each
 * serial index is claimed once. Cached points still get a callback:
 * progress reports points *delivered*, not simulations executed.
 *
 * Failure contract: if a point (or its progress callback) throws,
 * threads stop claiming new points, every thread is joined, and
 * run_all rethrows the exception of the lowest-index failed point.
 * A point that exhausts opts.point_timeout_ms does not throw: it
 * yields a *degraded* result (identity fields filled, everything
 * else zero, an `exec.degraded` counter in its metrics) that
 * degraded_report() names.
 *
 * Cache interaction: a point whose config carries run observers
 * (cfg.tracer / cfg.timeline) is never served from — or stored to —
 * the cache, since a cached result cannot replay their side effects.
 */

#ifndef SGMS_EXEC_PARALLEL_RUNNER_H
#define SGMS_EXEC_PARALLEL_RUNNER_H

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "exec/exec_options.h"
#include "exec/result_cache.h"
#include "obs/metrics.h"

namespace sgms::exec
{

/**
 * Expand @p spec into its experiment points in the canonical serial
 * order (app-major, then mem, then policy, then subpage size) that
 * run_sweep has always used. Policies without a subpage dimension
 * ("fullpage", "disk") expand once per (app, mem).
 */
std::vector<Experiment> expand_sweep(const SweepSpec &spec);

/**
 * One line per degraded entry of @p results (those whose metrics
 * carry an `exec.degraded` counter), which must be paired by index
 * with @p points: "point I: LABEL app APP mem MEM key HEX".
 * Empty when every point completed. export_grid and the benches
 * print it and exit non-zero, so a timed-out point never passes as a
 * zero row.
 */
std::string degraded_report(const std::vector<Experiment> &points,
                            const std::vector<SimResult> &results);

/** Aggregate engine counters (monotone over the engine lifetime). */
struct ExecStats
{
    uint64_t points_total = 0;  ///< points delivered (run + cached)
    uint64_t points_run = 0;    ///< simulated for real
    uint64_t points_cached = 0; ///< served from the result cache
    uint64_t points_degraded = 0; ///< points over their wall budget
    uint64_t timeouts = 0;      ///< wall-budget aborts
    /** Most threads one run_all used (0: never went parallel). */
    unsigned workers = 0;
    CacheStats cache;           ///< zero when the cache is disabled
};

class Engine
{
  public:
    using Progress = std::function<void(const Experiment &)>;

    explicit Engine(ExecOptions opts = ExecOptions{});
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Run (or fetch) a single point. */
    SimResult run(const Experiment &ex);

    /**
     * Run every point, returning results in input order. See the
     * file header for the progress contract.
     */
    std::vector<SimResult>
    run_all(const std::vector<Experiment> &points,
            const Progress &progress = nullptr);

    /** expand_sweep + run_all. */
    std::vector<SimResult>
    run_sweep(const SweepSpec &spec,
              const Progress &progress = nullptr);

    const ExecOptions &options() const { return opts_; }

    ExecStats stats() const;

    /**
     * exec.* counters as a metrics snapshot (obs/metrics.h):
     * exec.points_run, exec.points_cached, exec.cache_stores,
     * exec.cache_decode_failures, exec.cache_evictions,
     * exec.points_degraded, exec.timeouts, exec.pool_workers.
     */
    std::vector<obs::MetricSample> metrics_snapshot() const;

    /**
     * Process-wide engine configured from the environment (SGMS_JOBS,
     * SGMS_POINT_TIMEOUT_MS, SGMS_CACHE, SGMS_CACHE_DIR,
     * SGMS_CACHE_MAX_MB) at first use; what the benches' run_labeled
     * routes through.
     */
    static Engine &shared();

  private:
    SimResult run_point(const Experiment &ex);
    /**
     * Simulate @p ex, applying the cooperative wall budget when
     * opts_.point_timeout_ms is set. On budget exhaustion @p degraded
     * is set and the deterministic degraded result shape is
     * returned; degraded results are never cached.
     */
    SimResult execute_point(const Experiment &ex, bool &degraded);

    ExecOptions opts_;
    std::unique_ptr<ResultCache> cache_;
    std::atomic<uint64_t> points_run_{0};
    std::atomic<uint64_t> points_cached_{0};
    std::atomic<uint64_t> points_degraded_{0};
    std::atomic<uint64_t> timeouts_{0};
    std::atomic<unsigned> workers_{0};
};

} // namespace sgms::exec

#endif // SGMS_EXEC_PARALLEL_RUNNER_H
