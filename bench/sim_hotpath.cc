/**
 * @file
 * Hot-path throughput: refs/sec and events/sec for the subsystems on
 * the single-point critical path —
 *
 *   events   the allocation-free event kernel (pool-backed 4-ary
 *            heap, inline callbacks): schedule+dispatch rate
 *   lru      the intrusive replacement list: touch (move-to-front)
 *            rate for a resident working set
 *   trace    synthetic generation vs replay from the shared trace
 *            store (the store turns per-point regeneration into a
 *            bulk copy out of an immutable buffer)
 *   mix      end-to-end Experiment::run over the default app mix
 *            (all five apps x fullpage/eager/pipelining at 1 KiB
 *            subpages, half memory), cold (first materialization
 *            included) and warm (steady state; the median of five
 *            passes, each paired with a pass generating the five
 *            apps' traces)
 *   mc       the simulator at 16 interleaved clients
 *            (core/simulator.h): dispatch rate of one gdb point
 *
 * The warm mix refs/sec is the headline number; the JSON summary
 * (default results/BENCH_sim_hotpath.json) records it with the
 * commit, core count and compiler that produced it. Absolute rates
 * differ between machines, so scripts/check.sh gates on a ratio
 * taken within one run: warm mix refs/sec over trace generation
 * refs/sec (synthesis exercises none of the kernel), both medians of
 * the same interleaved passes. The perf smoke fails when that ratio
 * drops more than 25% below the committed file's.
 *
 * Usage: sim_hotpath [--scale=S] [--out=FILE]
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <vector>

#include "bench/bench_common.h"
#include "common/inline_function.h"
#include "mem/replacement.h"
#include "sim/event_queue.h"
#include "trace/apps.h"
#include "trace/trace_store.h"

using namespace sgms;

namespace
{

/**
 * Pre-PR single-pass mix rate (refs/sec) measured on the reference
 * box before the hot-path overhaul, with per-point trace
 * regeneration, std::function events, and std::list-based LRU. The
 * speedup_vs_baseline field in the JSON is relative to this.
 */
constexpr double BASELINE_MIX_REFS_PER_SEC = 30189308.0;

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Deterministic 64-bit mix (splitmix64 step) for access patterns. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Schedule/dispatch rate of the event kernel. */
double
bench_events(uint64_t total)
{
    EventQueue eq;
    uint64_t sink = 0;
    Tick t = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t done = 0; done < total;) {
        // A due batch interleaved with future events, like a fault
        // wave: 64 events across 8 distinct ticks.
        for (int i = 0; i < 64; ++i) {
            eq.schedule(t + (i & 7),
                        [&sink, i] { sink += static_cast<uint64_t>(i); });
        }
        t += 8;
        eq.run_until(t);
        done += 64;
    }
    eq.run_all();
    double secs = seconds_since(t0);
    SGMS_ASSERT(sink != 0);
    return static_cast<double>(eq.executed()) / secs;
}

/** Touch (move-to-front) rate of the intrusive LRU list. */
double
bench_lru(uint64_t touches, uint64_t pages)
{
    auto lru = make_replacement_policy("lru");
    lru->reserve(pages);
    for (uint64_t p = 0; p < pages; ++p)
        lru->insert(p);
    auto t0 = std::chrono::steady_clock::now();
    uint64_t s = 1;
    for (uint64_t i = 0; i < touches; ++i) {
        s = mix64(s);
        lru->touch(s % pages);
    }
    double secs = seconds_since(t0);
    return static_cast<double>(touches) / secs;
}

/** Passes of the paired warm-mix and generation legs. */
constexpr int kReps = 5;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** References drained from a trace and the seconds it took. */
struct Drained
{
    uint64_t refs = 0;
    double secs = 0.0;

    double rate() const { return static_cast<double>(refs) / secs; }
};

/** Drain @p src to completion via next_batch. */
Drained
drain(TraceSource &src)
{
    TraceEvent batch[512];
    Drained d;
    uint64_t sink = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (;;) {
        size_t n = src.next_batch(batch, 512);
        if (n == 0)
            break;
        d.refs += n;
        sink ^= batch[n - 1].addr;
    }
    d.secs = seconds_since(t0);
    SGMS_ASSERT(sink != 1); // keep the reads alive
    return d;
}

/**
 * Generate the default mix's five traces (no trace store), one pass
 * each; returns refs/sec over all of them.
 */
double
generate_mix_rate(double scale)
{
    Drained all;
    for (const std::string &app : app_names()) {
        auto gen = make_app_trace(app, scale, /*seed=*/1);
        Drained d = drain(*gen);
        all.refs += d.refs;
        all.secs += d.secs;
    }
    return all.rate();
}

struct MixRate
{
    double refs_per_sec = 0.0;
    uint64_t refs = 0;
    double secs = 0.0;
};

/** One pass over the default app mix through Experiment::run. */
MixRate
run_mix(double scale)
{
    const std::vector<std::string> &apps = app_names();
    const char *policies[] = {"fullpage", "eager", "pipelining"};
    MixRate m;
    auto t0 = std::chrono::steady_clock::now();
    for (const std::string &app : apps) {
        for (const char *policy : policies) {
            Experiment ex;
            ex.app = app;
            ex.scale = scale;
            ex.policy = policy;
            ex.subpage_size = 1024;
            ex.mem = MemConfig::Half;
            SimResult r = ex.run();
            m.refs += r.refs;
        }
    }
    m.secs = seconds_since(t0);
    m.refs_per_sec = static_cast<double>(m.refs) / m.secs;
    return m;
}

struct McRate
{
    double events_per_sec = 0.0;
    uint64_t events = 0;
    double secs = 0.0;
};

/**
 * Multi-client kernel dispatch rate: one gdb point at @p n clients
 * through the interleaved-timeline kernel (core/simulator.h).
 */
McRate
run_multi_client(double scale, uint32_t n)
{
    Experiment ex;
    ex.app = "gdb";
    ex.scale = scale;
    ex.policy = "eager";
    ex.subpage_size = 1024;
    ex.mem = MemConfig::Half;
    ex.clients = n;
    auto t0 = std::chrono::steady_clock::now();
    SimResult r = ex.run();
    McRate m;
    m.secs = seconds_since(t0);
    for (const auto &g : r.metrics)
        if (g.name == "sim.kernel_events")
            m.events = static_cast<uint64_t>(g.value);
    m.events_per_sec =
        m.secs > 0 ? static_cast<double>(m.events) / m.secs : 0.0;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    // Default scale matches the committed baseline measurement; keep
    // them in sync or the speedup field compares unlike quantities.
    double scale = opts.get_double("scale", scale_from_env(0.05));
    std::string out_path =
        opts.get("out", "results/BENCH_sim_hotpath.json");

    bench::banner("HOTPATH",
                  "single-point hot path: events, lru, trace, mix",
                  scale);

    bench::section("event kernel (schedule+dispatch)");
    uint64_t fallbacks_before = inline_function_heap_fallbacks();
    double events_ps = bench_events(2'000'000);
    uint64_t fallbacks = inline_function_heap_fallbacks() -
                         fallbacks_before;
    std::printf("%.0f events/s, %llu heap fallbacks\n", events_ps,
                static_cast<unsigned long long>(fallbacks));

    bench::section("intrusive lru (touch)");
    double lru_ps = bench_lru(20'000'000, 4096);
    std::printf("%.0f touches/s\n", lru_ps);

    bench::section("trace: stored replay");
    // First request materializes (excluded: rate measured on a
    // second, warm request).
    make_stored_app_trace("modula3", scale, /*seed=*/1);
    auto replay = make_stored_app_trace("modula3", scale, /*seed=*/1);
    double replay_ps = drain(*replay).rate();
    std::printf("replay %.0f refs/s (modula3)\n", replay_ps);

    bench::section("mix: 5 apps x {fullpage,eager,pipelining}");
    MixRate cold = run_mix(scale);
    std::printf("cold: %.0f refs/s (%llu refs, %.2f s)\n",
                cold.refs_per_sec,
                static_cast<unsigned long long>(cold.refs),
                cold.secs);
    // Each warm pass is paired with a pass generating the same five
    // traces, so the two medians see the same stretch of machine time.
    std::vector<double> warm_ps, gen_ps;
    MixRate warm;
    for (int rep = 0; rep < kReps; ++rep) {
        gen_ps.push_back(generate_mix_rate(scale));
        warm = run_mix(scale);
        warm_ps.push_back(warm.refs_per_sec);
        std::printf("pass %d: warm %.0f refs/s, generate %.0f refs/s\n",
                    rep + 1, warm_ps.back(), gen_ps.back());
    }
    double warm_med = median(warm_ps);
    double gen_med = median(gen_ps);
    std::printf("median of %d: warm %.0f refs/s, generate %.0f refs/s, "
                "warm / generate %.3f\n",
                kReps, warm_med, gen_med, warm_med / gen_med);
    std::printf("stored replay / generate: %.1fx\n", replay_ps / gen_med);
    double speedup = warm_med / BASELINE_MIX_REFS_PER_SEC;
    std::printf("speedup vs pre-overhaul baseline (%.0f refs/s): "
                "%.2fx\n",
                BASELINE_MIX_REFS_PER_SEC, speedup);

    bench::section("multi-client kernel (gdb, 16 clients)");
    McRate mc = run_multi_client(scale, 16);
    std::printf("%.0f events/s (%llu kernel events, %.2f s)\n",
                mc.events_per_sec,
                static_cast<unsigned long long>(mc.events), mc.secs);

    TraceStoreStats ts = trace_store_stats();
    std::printf("trace store: %llu hits, %llu misses, %llu "
                "fallbacks, %.1f MiB heap, %.1f MiB mapped\n",
                static_cast<unsigned long long>(ts.hits),
                static_cast<unsigned long long>(ts.misses),
                static_cast<unsigned long long>(ts.fallbacks),
                static_cast<double>(ts.bytes) / (1024.0 * 1024.0),
                static_cast<double>(ts.mapped_bytes) /
                    (1024.0 * 1024.0));

    std::ofstream out(out_path);
    if (out) {
        char buf[1024];
        std::snprintf(
            buf, sizeof(buf),
            "{\"bench\":\"sim_hotpath\",\"commit\":\"%s\","
            "\"nproc\":%u,\"compiler\":\"%s\",\"scale\":%g,"
            "\"reps\":%d,"
            "\"baseline_refs_per_sec\":%.0f,"
            "\"mix_warm_refs_per_sec\":%.0f,"
            "\"mix_cold_refs_per_sec\":%.0f,"
            "\"mix_refs\":%llu,"
            "\"speedup_vs_baseline\":%.3f,"
            "\"events_per_sec\":%.0f,"
            "\"event_heap_fallbacks\":%llu,"
            "\"mc_events_per_sec\":%.0f,"
            "\"mc_kernel_events\":%llu,"
            "\"lru_touches_per_sec\":%.0f,"
            "\"trace_generate_refs_per_sec\":%.0f,"
            "\"trace_replay_refs_per_sec\":%.0f,"
            "\"trace_store\":{\"hits\":%llu,\"misses\":%llu,"
            "\"fallbacks\":%llu,\"bytes\":%llu,"
            "\"mapped_bytes\":%llu}}\n",
            bench::source_commit().c_str(), exec::hardware_workers(),
            bench::compiler(), scale, kReps, BASELINE_MIX_REFS_PER_SEC,
            warm_med, cold.refs_per_sec,
            static_cast<unsigned long long>(warm.refs), speedup,
            events_ps, static_cast<unsigned long long>(fallbacks),
            mc.events_per_sec,
            static_cast<unsigned long long>(mc.events), lru_ps,
            gen_med, replay_ps,
            static_cast<unsigned long long>(ts.hits),
            static_cast<unsigned long long>(ts.misses),
            static_cast<unsigned long long>(ts.fallbacks),
            static_cast<unsigned long long>(ts.bytes),
            static_cast<unsigned long long>(ts.mapped_bytes));
        out << buf;
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        warn("cannot write %s", out_path.c_str());
    }
    return 0;
}
