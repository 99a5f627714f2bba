/**
 * @file
 * Execution-engine throughput: points/sec for the same experiment
 * grid run three ways —
 *
 *   serial     jobs=1, cache off (the historical run_sweep path)
 *   parallel   jobs=N, cache off (threads on a shared point index,
 *              deterministic merge; N = SGMS_JOBS or all hardware
 *              threads)
 *   warm-cache jobs=N, every point served from the result cache
 *
 * Verifies along the way that all three produce byte-identical
 * result blobs and json_report output, and that the warm passes
 * simulate zero points. Then runs the grid at every thread count
 * from 1 to N, recording a points/sec scaling curve. Every leg runs
 * three times; the machine-readable summary (default
 * results/BENCH_exec.json) reports each leg's median, min and max
 * wall time, computes speedups from medians, and records the host's
 * hardware thread count and the source commit (`git describe
 * --always --dirty` in the working directory).
 *
 * Usage: exec_throughput [--scale=S] [--jobs=N] [--out=FILE]
 *                        [--keep-cache-dir=DIR]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "bench/bench_common.h"
#include "core/json_report.h"
#include "core/sweep.h"
#include "exec/result_codec.h"

using namespace sgms;

namespace
{

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string
blobs_of(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    for (const auto &r : results)
        exec::write_result_blob(os, r);
    return os.str();
}

std::string
report_of(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    write_results_json(os, results, /*include_faults=*/true);
    return os.str();
}

/** Repetitions of every timed leg. */
constexpr int kReps = 3;

/** Median and range of one leg's repeated wall times. */
struct Samples
{
    double median = 0;
    double min = 0;
    double max = 0;

    static Samples
    of(std::vector<double> secs)
    {
        std::sort(secs.begin(), secs.end());
        size_t n = secs.size();
        double mid = n % 2 ? secs[n / 2]
                           : (secs[n / 2 - 1] + secs[n / 2]) / 2;
        return {mid, secs.front(), secs.back()};
    }
};

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    // Default scale keeps the 28-point grid CI-sized; SGMS_SCALE or
    // --scale raise it for steadier numbers on a quiet box.
    double scale = opts.get_double("scale", scale_from_env(0.1));
    unsigned jobs = static_cast<unsigned>(opts.get_u64(
        "jobs", env_u64("SGMS_JOBS", 0)));
    if (jobs == 0)
        jobs = exec::hardware_workers();
    if (jobs < 2)
        jobs = 2; // exercise the threads even on a 1-core box
    std::string out_path = opts.get("out", "results/BENCH_exec.json");

    bench::banner("EXEC", "engine throughput: serial vs parallel vs "
                          "warm cache",
                  scale);

    SweepSpec spec;
    spec.apps = {"modula3", "gdb"};
    spec.policies = {"fullpage", "eager", "pipelining"};
    spec.subpage_sizes = {512, 1024, 2048};
    spec.mems = {MemConfig::Half, MemConfig::Quarter};
    spec.scale = scale;
    std::vector<Experiment> points = exec::expand_sweep(spec);
    std::printf("grid: %zu points, %u threads\n", points.size(),
                jobs);

    // Hermetic cache directory unless the caller wants to keep one.
    std::string cache_dir = opts.get("keep-cache-dir", "");
    bool scratch_cache = cache_dir.empty();
    if (scratch_cache) {
        cache_dir = (std::filesystem::temp_directory_path() /
                     ("sgms-exec-bench-" +
                      std::to_string(::getpid())))
                        .string();
    }

    bool identical = true;
    bool all_cached = true;

    // Every leg is timed kReps times; the summary reports the median
    // and the spread, and speedups are ratios of medians, so one slow
    // pass (a noisy neighbour, first-touch page faults) cannot skew
    // them.
    auto time_leg = [&](unsigned jobs_n, exec::ExecOptions eo,
                        std::vector<SimResult> &results) {
        eo.jobs = jobs_n;
        std::vector<double> secs;
        for (int rep = 0; rep < kReps; ++rep) {
            exec::Engine engine(eo);
            auto t0 = std::chrono::steady_clock::now();
            auto r = engine.run_all(points);
            secs.push_back(seconds_since(t0));
            if (rep == 0)
                results = std::move(r);
            else
                identical = identical && blobs_of(r) == blobs_of(results);
            exec::ExecStats st = engine.stats();
            all_cached = all_cached &&
                         (!eo.cache_enabled ||
                          (st.points_cached == points.size() &&
                           st.points_run == 0));
        }
        return Samples::of(secs);
    };
    auto print_leg = [&](const Samples &leg, const Samples *base) {
        std::printf("%.2f s median (%.2f-%.2f over %d), %.2f points/s",
                    leg.median, leg.min, leg.max, kReps,
                    points.size() / leg.median);
        if (base)
            std::printf(" (%.2fx serial)", base->median / leg.median);
        std::printf("\n");
    };

    bench::section("serial (jobs=1, cache off)");
    std::vector<SimResult> serial;
    Samples serial_s = time_leg(1, exec::ExecOptions{}, serial);
    print_leg(serial_s, nullptr);

    bench::section("parallel (cache off)");
    std::vector<SimResult> parallel;
    Samples parallel_s = time_leg(jobs, exec::ExecOptions{}, parallel);
    print_leg(parallel_s, &serial_s);

    bench::section("warm cache");
    exec::ExecOptions cache_eo;
    cache_eo.cache_enabled = true;
    cache_eo.cache_dir = cache_dir;
    cache_eo.jobs = jobs;
    {
        exec::Engine cold(cache_eo); // populate
        cold.run_all(points);
    }
    std::vector<SimResult> warm;
    Samples warm_s = time_leg(jobs, cache_eo, warm);
    print_leg(warm_s, &serial_s);

    identical = identical && blobs_of(serial) == blobs_of(parallel) &&
                report_of(serial) == report_of(parallel) &&
                report_of(serial) == report_of(warm);
    std::printf("byte-identical results (parallel+warm): %s\n",
                identical ? "yes" : "NO");
    std::printf("warm passes simulated zero points: %s\n",
                all_cached ? "yes" : "NO");

    // Scaling curve: points/sec at every thread count up to jobs.
    bench::section("scaling (points/s vs threads)");
    std::vector<Samples> curve; // at n = index + 1
    Table st({"threads", "median s", "min s", "max s", "points/s",
              "speedup"});
    for (unsigned n = 1; n <= jobs; ++n) {
        std::vector<SimResult> r;
        Samples secs = time_leg(n, exec::ExecOptions{}, r);
        identical = identical && blobs_of(r) == blobs_of(serial);
        curve.push_back(secs);
        st.add_row({Table::fmt_int(n), Table::fmt(secs.median, 2),
                    Table::fmt(secs.min, 2), Table::fmt(secs.max, 2),
                    Table::fmt(points.size() / secs.median, 2),
                    Table::fmt(serial_s.median / secs.median, 2) +
                        "x"});
    }
    st.print(std::cout);

    if (scratch_cache) {
        std::error_code ec;
        std::filesystem::remove_all(cache_dir, ec);
    }

    std::ofstream out(out_path);
    if (out) {
        char buf[1024];
        auto leg_json = [&](const char *name, const Samples &leg) {
            std::snprintf(buf, sizeof(buf),
                          "\"%s\":{\"median_s\":%.4f,\"min_s\":%.4f,"
                          "\"max_s\":%.4f,\"pps\":%.3f},",
                          name, leg.median, leg.min, leg.max,
                          points.size() / leg.median);
            out << buf;
        };
        std::snprintf(buf, sizeof(buf),
                      "{\"bench\":\"exec_throughput\",\"commit\":\"%s\","
                      "\"nproc\":%u,\"points\":%zu,"
                      "\"scale\":%g,\"jobs\":%u,\"reps\":%d,",
                      bench::source_commit().c_str(),
                      exec::hardware_workers(), points.size(), scale,
                      jobs, kReps);
        out << buf;
        leg_json("serial", serial_s);
        leg_json("parallel", parallel_s);
        leg_json("warm_cache", warm_s);
        std::snprintf(buf, sizeof(buf),
                      "\"parallel_speedup\":%.3f,"
                      "\"warm_cache_speedup\":%.3f,"
                      "\"identical\":%s,\"warm_all_cached\":%s,"
                      "\"scaling\":[",
                      serial_s.median / parallel_s.median,
                      serial_s.median / warm_s.median,
                      identical ? "true" : "false",
                      all_cached ? "true" : "false");
        out << buf;
        for (size_t i = 0; i < curve.size(); ++i) {
            std::snprintf(buf, sizeof(buf),
                          "%s{\"threads\":%zu,\"median_s\":%.4f,"
                          "\"min_s\":%.4f,\"max_s\":%.4f,"
                          "\"pps\":%.3f}",
                          i ? "," : "", i + 1, curve[i].median,
                          curve[i].min, curve[i].max,
                          points.size() / curve[i].median);
            out << buf;
        }
        out << "]}\n";
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        warn("cannot write %s", out_path.c_str());
    }

    return (identical && all_cached) ? 0 : 1;
}
