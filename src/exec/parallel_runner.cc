#include "exec/parallel_runner.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

#include "core/simulator.h"

namespace sgms::exec
{

namespace
{

bool
has_subpage_dimension(const std::string &policy)
{
    return policy != "fullpage" && policy != "disk";
}

bool
has_observers(const Experiment &ex)
{
    return ex.base.tracer != nullptr || ex.base.timeline != nullptr;
}

/**
 * Stand-in result for a point that exhausted its wall budget.
 * Identity fields are filled from the spec alone — no footprint
 * computation, the point may be the very thing that hangs — all
 * measurements stay zero, and an `exec.degraded` counter marks it
 * for downstream consumers. Pure function of the experiment, so
 * reruns stay deterministic.
 */
SimResult
degraded_result(const Experiment &ex)
{
    SimResult r;
    r.app = ex.app;
    r.policy = ex.policy;
    r.page_size = ex.base.page_size;
    r.subpage_size = has_subpage_dimension(ex.policy)
                         ? ex.subpage_size
                         : ex.base.page_size;
    obs::MetricSample degraded;
    degraded.name = "exec.degraded";
    degraded.kind = obs::MetricKind::Counter;
    degraded.value = 1.0;
    r.metrics.push_back(std::move(degraded));
    return r;
}

bool
is_degraded(const SimResult &r)
{
    for (const auto &m : r.metrics)
        if (m.name == "exec.degraded")
            return true;
    return false;
}

} // namespace

std::vector<Experiment>
expand_sweep(const SweepSpec &spec)
{
    std::vector<Experiment> points;
    points.reserve(spec.point_count());
    for (const auto &app : spec.apps) {
        for (MemConfig mem : spec.mems) {
            for (const auto &policy : spec.policies) {
                std::vector<uint32_t> sizes =
                    has_subpage_dimension(policy)
                        ? spec.subpage_sizes
                        : std::vector<uint32_t>{spec.base.page_size};
                std::vector<uint32_t> nclients =
                    spec.clients.empty() ? std::vector<uint32_t>{1}
                                         : spec.clients;
                for (uint32_t sp : sizes) {
                    for (uint32_t nc : nclients) {
                        Experiment ex;
                        ex.app = app;
                        ex.scale = spec.scale;
                        ex.seed = spec.seed;
                        ex.policy = policy;
                        ex.subpage_size = sp;
                        ex.mem = mem;
                        ex.clients = nc;
                        ex.trace_bin = spec.trace_bin;
                        ex.base = spec.base;
                        points.push_back(std::move(ex));
                    }
                }
            }
        }
    }
    return points;
}

std::string
degraded_report(const std::vector<Experiment> &points,
                const std::vector<SimResult> &results)
{
    std::string report;
    for (size_t i = 0; i < results.size() && i < points.size(); ++i) {
        if (!is_degraded(results[i]))
            continue;
        const Experiment &ex = points[i];
        report += "point " + std::to_string(i) + ": " + ex.label() +
                  " app " + ex.app + " mem " +
                  mem_config_name(ex.mem) + " key " +
                  cache_key_of(ex).hex() + "\n";
    }
    return report;
}

Engine::Engine(ExecOptions opts) : opts_(opts)
{
    if (opts_.jobs == 0)
        opts_.jobs = 1;
    if (opts_.cache_enabled) {
        cache_ = std::make_unique<ResultCache>(
            opts_.cache_dir, opts_.cache_max_bytes);
    }
    if (opts_.cache_gc) {
        // One-shot eviction pass, honored even when caching is off
        // for this run: `--cache-gc --no-cache` prunes a directory
        // without touching it otherwise.
        if (cache_) {
            cache_->gc();
        } else {
            ResultCache(opts_.cache_dir, opts_.cache_max_bytes).gc();
        }
    }
}

Engine::~Engine() = default;

SimResult
Engine::execute_point(const Experiment &ex, bool &degraded)
{
    degraded = false;
    if (opts_.point_timeout_ms > 0) {
        Experiment budgeted = ex;
        budgeted.base.wall_budget_ms = opts_.point_timeout_ms;
        try {
            return budgeted.run();
        } catch (const SimTimeoutError &) {
            degraded = true;
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            points_degraded_.fetch_add(1, std::memory_order_relaxed);
            return degraded_result(ex);
        }
    }
    return ex.run();
}

SimResult
Engine::run_point(const Experiment &ex)
{
    if (cache_ && !has_observers(ex)) {
        CacheKey key = cache_key_of(ex);
        if (auto hit = cache_->load(key)) {
            points_cached_.fetch_add(1, std::memory_order_relaxed);
            return std::move(*hit);
        }
        bool degraded = false;
        SimResult r = execute_point(ex, degraded);
        if (!degraded) {
            cache_->store(key, r);
            points_run_.fetch_add(1, std::memory_order_relaxed);
        }
        return r;
    }
    bool degraded = false;
    SimResult r = execute_point(ex, degraded);
    if (!degraded)
        points_run_.fetch_add(1, std::memory_order_relaxed);
    return r;
}

SimResult
Engine::run(const Experiment &ex)
{
    return run_point(ex);
}

std::vector<SimResult>
Engine::run_all(const std::vector<Experiment> &points,
                const Progress &progress)
{
    const size_t n = points.size();
    std::vector<SimResult> out(n);

    if (opts_.jobs <= 1 || n <= 1) {
        // Serial fast path: historical semantics, caller's thread.
        for (size_t i = 0; i < n; ++i) {
            if (progress)
                progress(points[i]);
            out[i] = run_point(points[i]);
        }
        return out;
    }

    // Parallel: each point is a whole simulation (milliseconds to
    // minutes), so one shared counter hands out serial indices and no
    // queue or stealing is needed to keep the threads busy. Each
    // thread computes into its point's slot, so the slots are the
    // deterministic merge.
    std::atomic<size_t> next{0};
    std::mutex failure_mutex;
    size_t failed_index = n;
    std::exception_ptr failure;
    auto drain = [&] {
        for (size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                if (progress)
                    progress(points[i]); // worker thread
                out[i] = run_point(points[i]);
            } catch (...) {
                // Stop handing out points. Every lower index is
                // already claimed and runs to completion, so the
                // lowest-index failure is still seen and the choice
                // below does not depend on timing.
                next.store(n);
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (i < failed_index) {
                    failed_index = i;
                    failure = std::current_exception();
                }
            }
        }
    };

    const unsigned nthreads =
        static_cast<unsigned>(std::min<size_t>(opts_.jobs, n));
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    try {
        for (unsigned t = 0; t < nthreads; ++t)
            threads.emplace_back(drain);
    } catch (...) {
        next.store(n); // could not start a thread: finish and rethrow
        for (auto &t : threads)
            t.join();
        throw;
    }
    for (auto &t : threads)
        t.join();

    unsigned seen = workers_.load();
    while (seen < nthreads &&
           !workers_.compare_exchange_weak(seen, nthreads)) {
    }
    if (failure)
        std::rethrow_exception(failure);
    return out;
}

std::vector<SimResult>
Engine::run_sweep(const SweepSpec &spec, const Progress &progress)
{
    return run_all(expand_sweep(spec), progress);
}

ExecStats
Engine::stats() const
{
    ExecStats s;
    s.points_run = points_run_.load(std::memory_order_relaxed);
    s.points_cached = points_cached_.load(std::memory_order_relaxed);
    s.points_degraded =
        points_degraded_.load(std::memory_order_relaxed);
    s.points_total =
        s.points_run + s.points_cached + s.points_degraded;
    s.timeouts = timeouts_.load(std::memory_order_relaxed);
    s.workers = workers_.load(std::memory_order_relaxed);
    if (cache_)
        s.cache = cache_->stats();
    return s;
}

std::vector<obs::MetricSample>
Engine::metrics_snapshot() const
{
    ExecStats s = stats();
    obs::MetricsRegistry reg;
    reg.counter("exec.points_run").inc(s.points_run);
    reg.counter("exec.points_cached").inc(s.points_cached);
    reg.counter("exec.cache_stores").inc(s.cache.stores);
    reg.counter("exec.cache_decode_failures")
        .inc(s.cache.decode_failures);
    reg.counter("exec.cache_evictions").inc(s.cache.evictions);
    reg.counter("exec.points_degraded").inc(s.points_degraded);
    reg.counter("exec.timeouts").inc(s.timeouts);
    reg.gauge("exec.pool_workers").set(s.workers);
    return reg.snapshot();
}

Engine &
Engine::shared()
{
    static Engine engine(ExecOptions::from_env());
    return engine;
}

} // namespace sgms::exec
