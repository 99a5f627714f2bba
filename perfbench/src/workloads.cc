#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "checks.h"
#include "common/logging.h"
#include "common/types.h"
#include "core/experiment.h"
#include "exec/parallel_runner.h"
#include "exec/result_cache.h"
#include "exec/result_codec.h"
#include "spans.h"
#include "stats.h"
#include "trace/apps.h"
#include "trace/trace_store.h"

namespace perfbench
{

using sgms::Experiment;
using sgms::MemConfig;
using sgms::SimResult;
namespace fs = std::filesystem;

const std::vector<MetricDef> &
end_to_end_metrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"refs_per_s", "refs/s"},
        {"points_per_s", "points/s"},
        {"warm_points_per_s", "points/s"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
per_layer_metrics()
{
    static const std::vector<MetricDef> defs = {
        {"trace.acquire_s", "s"},
        {"trace.footprint_s", "s"},
        {"trace.replay_ns_per_ref", "ns"},
        {"trace.store_hits", "count"},
        {"trace.store_misses", "count"},
        {"trace.store_fallbacks", "count"},
        {"trace.store_heap_mb", "MiB"},
        {"trace.store_mapped_mb", "MiB"},
        {"core.run_s_p50", "s"},
        {"core.run_s_max", "s"},
        {"core.ns_per_ref", "ns"},
        {"core.self_ns_per_ref", "ns"},
        {"core.ns_per_kernel_event", "ns"},
        {"sim.refs", "count"},
        {"sim.page_faults", "count"},
        {"sim.kernel_events", "count"},
        {"sim.runtime_ns", "ns"},
        {"net.messages", "count"},
        {"net.bytes", "bytes"},
        {"policy.plans", "count"},
        {"gms.putpages", "count"},
        {"gms.server_cpu_util_max", "ratio"},
        {"mem.evictions", "count"},
        {"exec.cold_cpu_util", "ratio"},
        {"exec.points_run", "count"},
        {"exec.points_cached", "count"},
        {"exec.cache_hit_ratio", "ratio"},
        {"exec.tasks_stolen", "count"},
        {"exec.queue_peak", "count"},
        {"exec.cache_key_us", "us"},
        {"exec.encode_us", "us"},
        {"exec.decode_us", "us"},
        {"exec.blob_kb", "KiB"},
        {"exec.cache_load_us", "us"},
        {"exec.cache_store_us", "us"},
        {"bench.trace_overhead_pct", "%"},
    };
    return defs;
}

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> names = {"paper_mix", "sweep",
                                                   "cluster"};
    return names;
}

namespace
{

/** The repository's default heap-store budget, set explicitly. */
constexpr uint64_t kStoreBudgetBytes = 256ull << 20;

struct Spec
{
    sgms::SweepSpec grid;
    /** Traces from the mmap tier, baked under the work directory. */
    bool mapped = false;
    /** Through exec::Engine at jobs = hardware threads. */
    bool engine = false;
    /**
     * Set-up rounds per cycle (setup_s is the median over all of
     * them) and warm passes per cycle (timed together as one
     * warm_points_per_s sample).
     */
    int setup_rounds = 1;
    int warm_passes = 1;
};

/**
 * The grid of a workload. Its traces use the default synthesis seed
 * (1), the only one export_grid and the figure benches run, and the
 * only one app_footprint_pages measures: under any other seed a
 * process holds two copies of every trace. The benchmark seed orders
 * the points instead (see shuffle_order).
 */
Spec
spec_for(const std::string &name, bool smoke)
{
    Spec s;
    s.grid.policies = {"fullpage", "eager", "pipelining"};
    s.grid.subpage_sizes = {1024};
    s.grid.mems = {MemConfig::Half};
    s.grid.clients = {1};
    if (name == "paper_mix") {
        // All five traces fit the 256 MiB heap store (194 MiB).
        s.grid.apps = sgms::app_names();
        s.grid.scale = smoke ? 0.002 : 0.05;
        s.warm_passes = 60; // ~9 ms each
    } else if (name == "sweep") {
        // 388 MiB of traces against the 256 MiB budget: the store
        // falls back to streaming generation for what does not fit.
        s.grid.apps = sgms::app_names();
        s.grid.mems = {MemConfig::Full, MemConfig::Half,
                       MemConfig::Quarter};
        s.grid.subpage_sizes = {1024, 256};
        s.grid.scale = smoke ? 0.002 : 0.1;
        s.engine = true;
        s.warm_passes = 60; // ~25 ms each
    } else if (name == "cluster") {
        s.grid.apps = {"gdb"};
        s.grid.clients = {16, 64, 256};
        // 125k refs (1 MB): ~750 refs per fault, ~33 per kernel event,
        // and a pass short enough for several cycles per run.
        s.grid.scale = smoke ? 0.02 : 0.25;
        s.mapped = true;
        // Set-up is ~15 ms; blobs are large (a record per fault), so
        // a warm pass takes ~0.5 s.
        s.setup_rounds = 5;
        s.warm_passes = 2;
    } else {
        sgms::fatal("unknown workload '%s'", name.c_str());
    }
    return s;
}

unsigned
host_threads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

double
cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double
peak_rss_mib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

double
metric_of(const SimResult &r, const std::string &name)
{
    for (const auto &m : r.metrics)
        if (m.name == name)
            return m.value;
    return 0;
}

double
metric_of(const std::vector<sgms::obs::MetricSample> &snap,
          const std::string &name)
{
    for (const auto &m : snap)
        if (m.name == name)
            return m.value;
    return 0;
}

uint64_t
drain(sgms::TraceSource &t)
{
    static thread_local sgms::TraceEvent buf[1024];
    uint64_t n = 0;
    size_t got;
    while ((got = t.next_batch(buf, 1024)) > 0)
        n += got;
    return n;
}

double
to_s(int64_t ns)
{
    return ns / 1e9;
}

/** Checks one pass's results against the first pass and the laws. */
class Checker
{
  public:
    explicit Checker(const std::vector<Experiment> &points)
        : points_(points)
    {}

    /** Length of each app's drained trace, for the refs law. */
    std::map<std::string, uint64_t> trace_len;

    /** Check @p results (one per point); returns the pass digest. */
    uint64_t
    check(const std::vector<SimResult> &results, const char *what)
    {
        // Encoding every result is the costly part of a check; spread
        // it over the hardware threads (checks are never timed).
        std::vector<uint64_t> digests(results.size());
        size_t workers = std::min<size_t>(host_threads(), results.size());
        std::vector<std::thread> pool;
        for (size_t w = 0; w < workers; ++w) {
            pool.emplace_back([&, w] {
                for (size_t i = w; i < results.size(); i += workers)
                    digests[i] = blob_digest(results[i]);
            });
        }
        for (std::thread &t : pool)
            t.join();
        for (size_t i = 0; i < results.size(); ++i) {
            ++attempted;
            const Experiment &ex = points_[i];
            uint64_t d = digests[i];
            std::string why = check_result(
                results[i], trace_len.at(ex.app) * ex.clients, ex.clients);
            if (why.empty() && !first_.empty() && d != first_[i])
                why = "result differs from the first pass";
            if (!why.empty()) {
                failures.push_back(std::string(what) + " point " +
                                   std::to_string(i) + " (" +
                                   ex.app + " " + ex.label() +
                                   " clients=" +
                                   std::to_string(ex.clients) +
                                   "): " + why);
            }
        }
        if (first_.empty())
            first_ = digests;
        return combine_digests(digests);
    }

    uint64_t attempted = 0;
    std::vector<std::string> failures;

  private:
    const std::vector<Experiment> &points_;
    std::vector<uint64_t> first_;
};

struct SetupTimes
{
    double total_s = 0;
    double acquire_s = 0;
    double footprint_s = 0;
};

/**
 * One set-up, the work a fresh process does before its first point:
 * the traces the points replay (heap materialization, or a bake and a
 * map on the mmap tier), then their footprints, the memoized scan
 * Experiment::config reads. The footprint scan finds its trace in the
 * store, as it does in the program. Round 0 goes through
 * app_footprint_pages, priming its memo; later rounds repeat its steps
 * and must agree with it. Emptying the store (and deleting the bakes)
 * left by the previous round is teardown and is not timed.
 */
SetupTimes
setup_round(const Spec &spec, int round, const std::string &trace_dir,
            SpanLog &log)
{
    sgms::trace_store_clear();
    if (spec.mapped) {
        for (const auto &e : fs::directory_iterator(trace_dir))
            fs::remove(e.path());
    }
    const double scale = spec.grid.scale;
    const uint32_t page_size = spec.grid.base.page_size;
    SetupTimes t;
    ScopedSpan root(log, "setup");
    int64_t a0 = now_ns();
    for (const auto &app : spec.grid.apps) {
        ScopedSpan s(log, "trace.acquire");
        if (spec.mapped)
            sgms::bake_app_trace(app, scale, spec.grid.seed, trace_dir);
        sgms::make_stored_app_trace(app, scale, spec.grid.seed);
    }
    int64_t f0 = now_ns();
    for (const auto &app : spec.grid.apps) {
        ScopedSpan s(log, "trace.footprint");
        uint64_t fp = sgms::app_footprint_pages(app, scale, page_size);
        if (round > 0) {
            auto trace = sgms::make_stored_app_trace(app, scale);
            if (sgms::measure_footprint_pages(*trace, page_size) != fp)
                sgms::fatal("footprint of %s changed between set-ups",
                            app.c_str());
        }
    }
    int64_t t1 = now_ns();
    t.total_s = to_s(t1 - a0);
    t.acquire_s = to_s(f0 - a0);
    t.footprint_s = to_s(t1 - f0);
    return t;
}

/**
 * Advance @p order to the next seeded permutation: Fisher-Yates over a
 * splitmix64 stream, so a seed gives the same orders on every
 * platform.
 */
void
shuffle_order(std::vector<size_t> &order, uint64_t &state)
{
    for (size_t i = order.size(); i > 1; --i) {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        std::swap(order[i - 1], order[z % i]);
    }
}

/** Host time of the codec and cache calls, per point (traced run). */
struct CodecTimes
{
    double key_us = 0, encode_us = 0, decode_us = 0;
    double load_us = 0, store_us = 0, blob_kb = 0;
};

/**
 * Time the exec layer's per-point calls on @p results from the spans
 * recorded around them (so @p log must be enabled), and count the
 * results that do not survive encode/decode or a cache store/load.
 */
CodecTimes
time_codec(const std::vector<Experiment> &points,
           const std::vector<SimResult> &results,
           const std::string &dir, SpanLog &log, size_t &failures)
{
    sgms::exec::ResultCache cache(dir);
    uint64_t bytes = 0;
    {
        ScopedSpan root(log, "exec.codec");
        for (size_t i = 0; i < points.size(); ++i) {
            int id = static_cast<int>(i);
            sgms::exec::CacheKey k;
            std::string blob;
            SimResult back;
            std::optional<SimResult> loaded;
            bool ok;
            {
                ScopedSpan s(log, "exec.cache_key", id);
                k = sgms::exec::cache_key_of(points[i]);
            }
            {
                ScopedSpan s(log, "exec.encode", id);
                blob = sgms::exec::result_blob(results[i]);
            }
            {
                ScopedSpan s(log, "exec.decode", id);
                ok = sgms::exec::read_result_blob(blob, back);
            }
            {
                ScopedSpan s(log, "exec.cache_store", id);
                cache.store(k, results[i]);
            }
            {
                ScopedSpan s(log, "exec.cache_load", id);
                loaded = cache.load(k);
            }
            if (!ok || !loaded || sgms::exec::result_blob(back) != blob ||
                sgms::exec::result_blob(*loaded) != blob)
                ++failures;
            bytes += blob.size();
        }
    }
    double n = static_cast<double>(points.size());
    auto per_point_us = [&](const char *name) {
        return log.total_ns(name) / 1e3 / n;
    };
    CodecTimes c;
    c.key_us = per_point_us("exec.cache_key");
    c.encode_us = per_point_us("exec.encode");
    c.decode_us = per_point_us("exec.decode");
    c.store_us = per_point_us("exec.cache_store");
    c.load_us = per_point_us("exec.cache_load");
    c.blob_kb = bytes / 1024.0 / n;
    return c;
}

/** Simulated-time work of one pass; identical on every pass. */
struct SimCounts
{
    double refs = 0, page_faults = 0, kernel_events = 0, runtime_ns = 0;
    double messages = 0, bytes = 0, plans = 0, putpages = 0;
    double server_cpu_util_max = 0, evictions = 0;
};

SimCounts
sim_counts(const std::vector<SimResult> &results)
{
    SimCounts c;
    for (const SimResult &r : results) {
        c.refs += r.refs;
        c.page_faults += r.page_faults;
        c.kernel_events += metric_of(r, "sim.kernel_events");
        c.runtime_ns += static_cast<double>(r.runtime) / sgms::ticks::NS;
        c.messages += r.net_stats.messages;
        c.bytes += r.net_stats.bytes;
        c.plans += metric_of(r, "policy.plans");
        c.putpages += r.putpages;
        c.server_cpu_util_max =
            std::max(c.server_cpu_util_max,
                     metric_of(r, "gms.server_cpu_util_max"));
        c.evictions += r.evictions;
    }
    return c;
}

/** Simulated Figure 9 reductions beside the paper's bands. */
void
print_accuracy(const std::vector<Experiment> &points,
               const std::vector<SimResult> &results)
{
    std::printf("\naccuracy (SIMULATED time, not host time): Figure 9 "
                "runtime reduction vs p_8192, 1/2-mem, sp_1024\n");
    std::printf("  %-8s %10s %12s\n", "app", "eager", "pipelining");
    std::map<std::string, std::map<std::string, const SimResult *>> by;
    for (size_t i = 0; i < points.size(); ++i)
        by[points[i].app][points[i].policy] = &results[i];
    for (const auto &app : sgms::app_names()) {
        auto &p = by[app];
        if (!p["fullpage"] || !p["eager"] || !p["pipelining"])
            continue;
        std::printf("  %-8s %9.1f%% %11.1f%%\n", app.c_str(),
                    100 * p["eager"]->reduction_vs(*p["fullpage"]),
                    100 * p["pipelining"]->reduction_vs(*p["fullpage"]));
    }
    std::printf("  paper:   eager 20-44%%, pipelining 30-54%% (at scale "
                "1.0). The network model was calibrated to Table 2, so "
                "this is not held-back validation.\n");
}

void
print_layer_table(const SpanLog &log, double replay_ns, double run_ns)
{
    std::vector<LayerRow> rows = log.table();
    int64_t roots = 0;
    for (const Span &s : log.spans())
        if (s.parent < 0)
            roots += s.end_ns - s.start_ns;
    std::printf("\nper-layer self time (host; set-up and warm spans from "
                "every cycle, pass spans from traced cycles):\n");
    std::printf("  %-22s %8s %12s %12s %8s\n", "span", "count",
                "total_ms", "self_ms", "self_%");
    for (const LayerRow &r : rows) {
        std::printf("  %-22s %8" PRIu64 " %12.3f %12.3f %7.2f%%\n",
                    r.name.c_str(), r.count, r.total_ns / 1e6,
                    r.self_ns / 1e6,
                    roots ? 100.0 * r.self_ns / roots : 0.0);
    }
    if (run_ns > 0) {
        std::printf("  derived: core.run %.3f ms = trace replay %.3f ms "
                    "(drain estimate) + kernel self %.3f ms\n",
                    run_ns / 1e6, replay_ns / 1e6,
                    (run_ns - replay_ns) / 1e6);
    }
}

} // namespace

std::string
workload_params_json(const std::string &workload, bool smoke)
{
    Spec s = spec_for(workload, smoke);
    std::string apps, mems, pols, sps, cls;
    for (const auto &a : s.grid.apps)
        apps += (apps.empty() ? "\"" : ",\"") + a + "\"";
    for (auto m : s.grid.mems)
        mems += (mems.empty() ? "\"" : ",\"") +
                std::string(sgms::mem_config_name(m)) + "\"";
    for (const auto &p : s.grid.policies)
        pols += (pols.empty() ? "\"" : ",\"") + p + "\"";
    for (auto v : s.grid.subpage_sizes)
        sps += (sps.empty() ? "" : ",") + std::to_string(v);
    for (auto v : s.grid.clients)
        cls += (cls.empty() ? "" : ",") + std::to_string(v);
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"scale\": %g, \"apps\": [%s], \"mems\": [%s], "
        "\"policies\": [%s], \"subpage_sizes\": [%s], \"clients\": [%s], "
        "\"points\": %zu, \"trace_tier\": \"%s\", \"jobs\": %u, "
        "\"store_budget_bytes\": %" PRIu64 ", \"trace_seed\": %" PRIu64 ", "
        "\"point_order\": \"seeded shuffle per cycle\", "
        "\"setup_rounds_per_cycle\": %d, \"warm_passes_per_cycle\": %d}",
        s.grid.scale, apps.c_str(), mems.c_str(), pols.c_str(),
        sps.c_str(), cls.c_str(), sgms::exec::expand_sweep(s.grid).size(),
        s.mapped ? "mmap" : "heap", s.engine ? host_threads() : 1u,
        kStoreBudgetBytes, s.grid.seed, s.setup_rounds, s.warm_passes);
    return buf;
}

Outcome
run_workload(const RunArgs &args)
{
    Spec spec = spec_for(args.workload, args.smoke);
    std::vector<Experiment> points = sgms::exec::expand_sweep(spec.grid);
    const size_t n = points.size();
    const unsigned jobs = spec.engine ? host_threads() : 1;

    // Store settings come from here, never from SGMS_* variables.
    std::string trace_dir = args.workdir + "/traces";
    fs::create_directories(trace_dir);
    sgms::trace_store_set_enabled(true);
    sgms::trace_store_set_budget_bytes(kStoreBudgetBytes);
    sgms::trace_store_set_dir(spec.mapped ? trace_dir : "");

    SpanLog spans(args.trace);
    SpanLog off(false);

    Checker checker(points);
    std::vector<double> setup_s, acquire_s, footprint_s;
    std::vector<double> pass_refs_per_s, pass_points_per_s;
    std::vector<double> warm_points_per_s;
    std::vector<double> untraced_wall, traced_wall;
    std::vector<double> point_run_s;
    double cpu_s = 0, cold_wall_s = 0;
    int64_t replay_ns = 0, run_ns = 0;
    double replay_refs = 0, run_refs = 0, run_kernel_events = 0;
    double store_hits = 0, store_misses = 0, store_fallbacks = 0;
    int untraced_passes = 0;
    sgms::TraceStoreStats store_end;
    std::vector<SimResult> results;
    std::vector<sgms::obs::MetricSample> cold_metrics, warm_metrics;
    uint64_t first_digest = 0;
    // Serial workloads re-serve their first pass's results from here.
    const std::string serial_cache = args.workdir + "/cache-warm";

    // Each cycle submits the points in a new order drawn from the
    // seed; results are put back in serial order for the checks.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    uint64_t order_state = args.seed;
    std::vector<Experiment> batch;
    auto run_batch = [&](sgms::exec::Engine &e) {
        std::vector<SimResult> out = e.run_all(batch);
        std::vector<SimResult> serial(n);
        for (size_t k = 0; k < n; ++k)
            serial[order[k]] = std::move(out[k]);
        return serial;
    };

    // One warm sample per cycle: every warm pass of the cycle, each on
    // a new Engine over the same cache, timed together (checks are
    // outside the timed spans).
    auto warm_block = [&](const std::string &dir, int cycle) {
        int64_t block_ns = 0;
        for (int w = 0; w < spec.warm_passes; ++w) {
            sgms::exec::ExecOptions o;
            o.jobs = jobs;
            o.cache_enabled = true;
            o.cache_dir = dir;
            int64_t t0 = now_ns();
            std::vector<SimResult> warm;
            {
                sgms::exec::Engine e(o);
                ScopedSpan s(w == 0 ? spans : off, "exec.run_all.warm");
                warm = run_batch(e);
                warm_metrics = e.metrics_snapshot();
            }
            block_ns += now_ns() - t0;
            if (metric_of(warm_metrics, "exec.points_cached") != n)
                checker.failures.push_back(
                    "warm pass in cycle " + std::to_string(cycle) +
                    " did not serve every point from the cache");
            checker.check(warm, "warm pass");
        }
        warm_points_per_s.push_back(double(n) * spec.warm_passes /
                                    to_s(block_ns));
    };

    // Each cycle is set-up, a cold pass and warm passes, so every
    // metric samples the whole run rather than one stretch of it: on
    // a shared host the machine's speed drifts over seconds.
    int cycles = 0;
    int64_t start = now_ns();
    do {
        for (int r = 0; r < spec.setup_rounds; ++r) {
            int round = cycles * spec.setup_rounds + r;
            SetupTimes t = setup_round(spec, round, trace_dir, spans);
            setup_s.push_back(t.total_s);
            acquire_s.push_back(t.acquire_s);
            footprint_s.push_back(t.footprint_s);
        }
        std::printf("cycle %d: setup %.4f s", cycles, setup_s.back());
        if (cycles == 0) {
            for (const Experiment &ex : points) {
                if (!checker.trace_len.count(ex.app)) {
                    auto t = ex.trace();
                    checker.trace_len[ex.app] = drain(*t);
                }
            }
        }
        shuffle_order(order, order_state);
        batch.clear();
        for (size_t i : order)
            batch.push_back(points[i]);

        // In a traced run odd cycles record spans; even cycles give
        // the untraced reference for bench.trace_overhead_pct.
        bool traced = args.trace && cycles % 2 == 1;
        SpanLog &log = traced ? spans : off;
        std::string cache_dir =
            args.workdir + "/cache" + std::to_string(cycles);
        sgms::TraceStoreStats store0 = sgms::trace_store_stats();
        double cpu0 = cpu_seconds();
        int64_t t0 = now_ns();
        int64_t pass_replay = 0;
        if (spec.engine) {
            ScopedSpan pass(log, "pass.cold");
            sgms::exec::ExecOptions o;
            o.jobs = jobs;
            o.cache_enabled = true;
            o.cache_dir = cache_dir;
            sgms::exec::Engine e(o);
            ScopedSpan s(log, "exec.run_all.cold");
            results = run_batch(e);
            cold_metrics = e.metrics_snapshot();
        } else {
            results.assign(n, SimResult{});
            ScopedSpan pass(log, "pass");
            for (size_t i : order) {
                const Experiment &ex = points[i];
                ScopedSpan pt(log, "point", static_cast<int>(i));
                if (traced) {
                    int64_t d0 = now_ns();
                    {
                        ScopedSpan s(log, "trace.replay",
                                     static_cast<int>(i));
                        for (auto &t : ex.client_traces(ex.clients))
                            replay_refs += drain(*t);
                    }
                    pass_replay += now_ns() - d0;
                }
                int64_t r0 = now_ns();
                {
                    ScopedSpan s(log, "core.run", static_cast<int>(i));
                    results[i] = ex.run();
                }
                if (traced) {
                    int64_t dt = now_ns() - r0;
                    point_run_s.push_back(to_s(dt));
                    run_ns += dt;
                    run_refs += results[i].refs;
                    run_kernel_events +=
                        metric_of(results[i], "sim.kernel_events");
                }
            }
        }
        int64_t t1 = now_ns();
        double wall = to_s(t1 - t0);
        cpu_s += cpu_seconds() - cpu0;
        cold_wall_s += wall;
        replay_ns += pass_replay;
        (traced ? traced_wall : untraced_wall)
            .push_back(wall - to_s(pass_replay));
        store_end = sgms::trace_store_stats();
        if (!traced) { // a traced pass also opens traces to drain them
            ++untraced_passes;
            store_hits += store_end.hits - store0.hits;
            store_misses += store_end.misses - store0.misses;
            store_fallbacks += store_end.fallbacks - store0.fallbacks;
        }

        double refs = 0;
        for (const SimResult &r : results)
            refs += r.refs;
        pass_refs_per_s.push_back(refs / wall);
        pass_points_per_s.push_back(n / wall);
        uint64_t digest = checker.check(results, "pass");
        if (cycles == 0)
            first_digest = digest;
        std::printf(", pass%s %.4f s, %.0f refs/s, %.3f points/s, "
                    "digest %s",
                    traced ? " (traced)" : "", wall, refs / wall,
                    n / wall, digest_hex(digest).c_str());

        if (spec.engine) {
            warm_block(cache_dir, cycles);
            fs::remove_all(cache_dir);
        } else {
            if (cycles == 0) {
                sgms::exec::ResultCache cache(serial_cache);
                for (size_t i = 0; i < n; ++i)
                    cache.store(sgms::exec::cache_key_of(points[i]),
                                results[i]);
            }
            warm_block(serial_cache, cycles);
        }
        double elapsed = to_s(now_ns() - start);
        std::printf(", warm %.1f points/s, at %.1f s\n",
                    warm_points_per_s.back(), elapsed);
        std::fflush(stdout);
        ++cycles;
        // Start another cycle only if at least half of it fits in the
        // requested time, so runs last about --seconds on average.
        if (cycles >= 2 && elapsed + elapsed / cycles / 2 >= args.seconds)
            break;
    } while (true);
    fs::remove_all(serial_cache);

    if (args.workload == "paper_mix")
        print_accuracy(points, results);

    Outcome out;
    size_t codec_failures = 0;
    CodecTimes codec;
    if (args.trace) {
        std::string dir = args.workdir + "/cache-codec";
        codec = time_codec(points, results, dir, spans, codec_failures);
        fs::remove_all(dir);
        if (codec_failures)
            checker.failures.push_back(
                std::to_string(codec_failures) +
                " results did not survive the codec or cache round trip");
    }

    out.attempted = checker.attempted;
    out.failures = checker.failures;
    double failed_ratio =
        out.attempted ? double(out.failures.size()) / out.attempted : 1.0;
    std::printf("\ndigest %s over %zu points, %d passes + %zu warm "
                "passes; checked %" PRIu64 " results, %zu failed, "
                "failed_ratio %.6g\n",
                digest_hex(first_digest).c_str(), n, cycles,
                warm_points_per_s.size() * spec.warm_passes, out.attempted,
                out.failures.size(), failed_ratio);
    for (const auto &f : out.failures)
        std::printf("FAILED: %s\n", f.c_str());

    if (!args.trace) {
        std::vector<double> rss = {peak_rss_mib()};
        const std::vector<double> *samples[] = {
            &setup_s, &pass_refs_per_s, &pass_points_per_s,
            &warm_points_per_s, &rss};
        const auto &defs = end_to_end_metrics();
        std::printf("\nwithin-run spread: (q3 - q1) / median of each "
                    "metric's samples\n");
        for (size_t i = 0; i < defs.size(); ++i) {
            out.metrics.push_back(
                {defs[i].name, defs[i].unit, median(*samples[i])});
            std::printf("  %-20s %4zu samples, spread %.4f\n",
                        defs[i].name, samples[i]->size(),
                        relative_iqr(*samples[i]));
        }
        std::printf("failed_ratio %.6g (points failed / attempted)\n",
                    failed_ratio);
        return out;
    }

    SimCounts sc = sim_counts(results);
    double replay_per_ref = replay_refs ? replay_ns / replay_refs : 0;
    double run_per_ref = run_refs ? run_ns / run_refs : 0;
    double run_max = point_run_s.empty()
                         ? 0
                         : *std::max_element(point_run_s.begin(),
                                             point_run_s.end());
    double overhead =
        untraced_wall.empty() || traced_wall.empty()
            ? 0
            : 100 * (median(traced_wall) / median(untraced_wall) - 1);
    std::map<std::string, double> v = {
        {"trace.acquire_s", median(acquire_s)},
        {"trace.footprint_s", median(footprint_s)},
        {"trace.replay_ns_per_ref", replay_per_ref},
        {"trace.store_hits", store_hits / untraced_passes},
        {"trace.store_misses", store_misses / untraced_passes},
        {"trace.store_fallbacks", store_fallbacks / untraced_passes},
        {"trace.store_heap_mb", store_end.bytes / 1048576.0},
        {"trace.store_mapped_mb", store_end.mapped_bytes / 1048576.0},
        {"core.run_s_p50", median(point_run_s)},
        {"core.run_s_max", run_max},
        {"core.ns_per_ref", run_per_ref},
        {"core.self_ns_per_ref", run_per_ref ? run_per_ref - replay_per_ref
                                             : 0},
        {"core.ns_per_kernel_event",
         run_kernel_events ? run_ns / run_kernel_events : 0},
        {"sim.refs", sc.refs},
        {"sim.page_faults", sc.page_faults},
        {"sim.kernel_events", sc.kernel_events},
        {"sim.runtime_ns", sc.runtime_ns},
        {"net.messages", sc.messages},
        {"net.bytes", sc.bytes},
        {"policy.plans", sc.plans},
        {"gms.putpages", sc.putpages},
        {"gms.server_cpu_util_max", sc.server_cpu_util_max},
        {"mem.evictions", sc.evictions},
        {"exec.cold_cpu_util", cpu_s / (jobs * cold_wall_s)},
        {"exec.points_run", metric_of(cold_metrics, "exec.points_run")},
        {"exec.points_cached",
         metric_of(warm_metrics, "exec.points_cached")},
        {"exec.cache_hit_ratio",
         metric_of(warm_metrics, "exec.points_cached") / n},
        {"exec.tasks_stolen", metric_of(cold_metrics, "exec.tasks_stolen")},
        {"exec.queue_peak", metric_of(cold_metrics, "exec.queue_peak")},
        {"exec.cache_key_us", codec.key_us},
        {"exec.encode_us", codec.encode_us},
        {"exec.decode_us", codec.decode_us},
        {"exec.blob_kb", codec.blob_kb},
        {"exec.cache_load_us", codec.load_us},
        {"exec.cache_store_us", codec.store_us},
        {"bench.trace_overhead_pct", overhead},
    };
    for (const MetricDef &d : per_layer_metrics())
        out.metrics.push_back({d.name, d.unit, v.at(d.name)});

    print_layer_table(spans, static_cast<double>(replay_ns),
                      static_cast<double>(run_ns));
    if (!args.spans_out.empty() &&
        !spans.write_chrome_json(args.spans_out, args.provenance))
        sgms::warn("could not write spans to %s", args.spans_out.c_str());
    return out;
}

} // namespace perfbench
