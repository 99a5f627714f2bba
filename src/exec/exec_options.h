/**
 * @file
 * Execution-engine knobs and their CLI/environment wiring.
 *
 * Every driver resolves an ExecOptions the same way, layered
 * flag-over-environment-over-default:
 *
 *   --jobs=N        worker threads; 0 = all hardware threads.
 *                   Env: SGMS_JOBS. Default 1 (serial fast path).
 *                   Output is byte-identical to the serial path at
 *                   any thread count.
 *   --point-timeout=MS  per-point wall-clock budget, checked
 *                   cooperatively by the simulator at trace-batch
 *                   boundaries. A point over budget is aborted and
 *                   surfaced as a deterministic degraded result,
 *                   counted in exec.timeouts. Env:
 *                   SGMS_POINT_TIMEOUT_MS. Default 0 (no budget).
 *   --cache-dir=D   result-cache directory; giving it enables the
 *                   cache. Env: SGMS_CACHE_DIR. Default .sgms-cache/.
 *   --no-cache      disable the result cache for this run.
 *   SGMS_CACHE=1    enable the cache (0 disables); default off, so a
 *                   code change without a schema bump can never
 *                   silently serve stale results to a casual run.
 *   --cache-max-mb=N  size bound for the cache directory; least-
 *                   recently-used blobs are evicted after each store
 *                   to keep the directory under N MiB. Env:
 *                   SGMS_CACHE_MAX_MB. Default 0 (unbounded).
 *   --cache-gc      run one eviction pass at engine construction,
 *                   even when caching is off for the run.
 *
 * Benches (bench/bench_common.h) run under env control alone, so
 * `SGMS_JOBS=8 SGMS_CACHE=1 ./build/bench/fig9_summary` parallelizes
 * and caches any bench with no per-bench code.
 */

#ifndef SGMS_EXEC_EXEC_OPTIONS_H
#define SGMS_EXEC_EXEC_OPTIONS_H

#include <cstdint>
#include <string>

#include "common/options.h"

namespace sgms::exec
{

struct ExecOptions
{
    /** Worker threads for grid runs; 1 = serial in-caller. */
    unsigned jobs = 1;

    /** Cooperative per-point wall-clock budget; 0 = none. */
    uint64_t point_timeout_ms = 0;

    /** Consult/populate the on-disk result cache. */
    bool cache_enabled = false;

    /** Blob directory for the result cache. */
    std::string cache_dir = ".sgms-cache";

    /** Cache directory size bound in bytes; 0 = unbounded. */
    uint64_t cache_max_bytes = 0;

    /** Run one eviction pass up front, even with caching off. */
    bool cache_gc = false;

    /**
     * Environment layer only (SGMS_JOBS, SGMS_POINT_TIMEOUT_MS,
     * SGMS_CACHE[_DIR], SGMS_CACHE_MAX_MB).
     */
    static ExecOptions from_env();

    /**
     * Flags layered over the environment: --jobs, --point-timeout,
     * --cache-dir, --no-cache, --cache-max-mb, --cache-gc (see file
     * header).
     */
    static ExecOptions from_options(const Options &opts);

    /** One-line help text for the flags above. */
    static const char *help();
};

/** A sensible default thread count for this machine (>= 1). */
unsigned hardware_workers();

} // namespace sgms::exec

#endif // SGMS_EXEC_EXEC_OPTIONS_H
