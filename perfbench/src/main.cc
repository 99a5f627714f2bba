/**
 * @file
 * perfbench: the repository benchmark (see perfbench/README.md).
 *
 *   perfbench --workload paper_mix|sweep|cluster --seed N --seconds S
 *             --trace 0|1 --workdir DIR [--spans-out FILE]
 *             [--commit SHA --dirty 0|1 --src-digest HEX] [--smoke]
 *
 * Prints progress, checks and tables, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
 * any point fails a check.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

extern char **environ;

namespace
{

std::string
json_string(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/**
 * Every SGMS_* variable in the environment. The benchmark sets the
 * trace store and the exec options itself, so these are recorded but
 * cannot change what is measured.
 */
std::string
sgms_env_json()
{
    std::string out = "{";
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "SGMS_", 5) != 0)
            continue;
        const char *eq = std::strchr(*e, '=');
        if (!eq)
            continue;
        if (out.size() > 1)
            out += ", ";
        out += json_string(std::string(*e, static_cast<size_t>(eq - *e))) +
               ": " +
               json_string(eq + 1);
    }
    return out + "}";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_mix|sweep|cluster --seed N --seconds S --trace "
                 "0|1 --workdir DIR [--spans-out FILE] [--commit SHA] "
                 "[--dirty 0|1] [--src-digest HEX] [--smoke]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunArgs args;
    std::string commit = "unknown", dirty = "unknown",
                src_digest = "unknown";
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !v.empty();
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v.c_str(), &end);
            have_seconds = end && *end == '\0' && args.seconds > 0 &&
                           std::isfinite(args.seconds);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            args.trace = v == "1";
        } else if (a == "--workdir") {
            args.workdir = v;
        } else if (a == "--spans-out") {
            args.spans_out = v;
        } else if (a == "--commit") {
            commit = v;
        } else if (a == "--dirty") {
            dirty = v;
        } else if (a == "--src-digest") {
            src_digest = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    bool known = false;
    for (const auto &w : perfbench::workload_names())
        known = known || w == args.workload;
    if (!known)
        usage("--workload must be paper_mix, sweep or cluster");
    if (!have_seed || !have_seconds || args.workdir.empty())
        usage("--seed, --seconds and --workdir are required");

    char head[4096];
    std::snprintf(
        head, sizeof head,
        "{\"workload\": %s, \"seed\": %" PRIu64 ", \"seconds\": %g, "
        "\"trace\": %d, \"smoke\": %s, \"commit\": %s, \"dirty\": %s, "
        "\"src_digest\": %s, \"build_type\": %s, \"compiler\": %s, "
        "\"nproc\": %u, \"params\": %s, \"sgms_env\": %s}",
        json_string(args.workload).c_str(), args.seed, args.seconds,
        args.trace ? 1 : 0, args.smoke ? "true" : "false",
        json_string(commit).c_str(), json_string(dirty).c_str(),
        json_string(src_digest).c_str(),
        json_string(PERFBENCH_BUILD_TYPE).c_str(),
        json_string("g++ " __VERSION__).c_str(),
        std::thread::hardware_concurrency(),
        perfbench::workload_params_json(args.workload, args.smoke).c_str(),
        sgms_env_json().c_str());
    args.provenance = head;
    std::printf("provenance %s\n", args.provenance.c_str());
    std::fflush(stdout);

    perfbench::Outcome out = perfbench::run_workload(args);

    std::printf("\n%-26s %22s  %s\n", "metric", "value", "unit");
    for (const auto &m : out.metrics)
        std::printf("%-26s %22.6f  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string metrics;
    for (const auto &m : out.metrics) {
        double value = std::isfinite(m.value) ? m.value : 0;
        char buf[128];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (!metrics.empty())
            metrics += ", ";
        metrics += json_string(m.name) + ": {\"value\": " + buf +
                   ", \"unit\": " + json_string(m.unit) + "}";
    }
    bool correct = out.failures.empty();
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %zu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", out.attempted,
                out.failures.size(), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
