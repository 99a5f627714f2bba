/**
 * @file
 * The benchmark's three workloads and the metrics they report.
 *
 *  - paper_mix: serial Experiment::run over the Figure 9 mix on the
 *    heap trace store (the per-reference kernel loop and heap replay).
 *  - sweep: a 75-point figure grid through exec::Engine::run_all at
 *    jobs = hardware threads with the result cache on, a cold pass
 *    then warm passes (pool balance, codec, cache I/O, trace store
 *    under budget pressure).
 *  - cluster: serial multi-client runs of gdb at 16/64/256 clients
 *    over mmap-tier traces (event dispatch and the fault path).
 *
 * Every workload is a closed batch: it submits a fixed set of points,
 * waits for them, and repeats until the requested seconds are spent.
 * perfbench/README.md gives the reasons and the metric definitions.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    /** Traced run: per-layer metrics and spans instead of end to end. */
    bool trace = false;
    /** Tiny inputs, for the benchmark's own smoke test. */
    bool smoke = false;
    /** Scratch directory for baked traces and result caches. */
    std::string workdir;
    /** Where a traced run writes its spans ("" = nowhere). */
    std::string spans_out;
    /** Provenance JSON object, echoed into the span file. */
    std::string provenance;
};

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Metrics an untraced run reports, in output order. */
const std::vector<MetricDef> &end_to_end_metrics();

/** Metrics a traced run reports, in output order. */
const std::vector<MetricDef> &per_layer_metrics();

/** Names of the workloads. */
const std::vector<std::string> &workload_names();

/** JSON object with the workload's fixed parameters (for provenance). */
std::string workload_params_json(const std::string &workload, bool smoke);

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

struct Outcome
{
    /** end_to_end_metrics() or per_layer_metrics(), in that order. */
    std::vector<Metric> metrics;
    /** Point results checked (every pass, warm passes included). */
    uint64_t attempted = 0;
    /** One entry per point result that failed a check. */
    std::vector<std::string> failures;
};

/**
 * Run one workload, printing progress, checks and tables to stdout.
 * fatal()s on an unknown workload or a setup error.
 */
Outcome run_workload(const RunArgs &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
