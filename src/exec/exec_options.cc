#include "exec/exec_options.h"

#include <thread>

namespace sgms::exec
{

unsigned
hardware_workers()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace
{

unsigned
resolve_jobs(uint64_t requested)
{
    if (requested == 0)
        return hardware_workers();
    return static_cast<unsigned>(requested);
}

} // namespace

ExecOptions
ExecOptions::from_env()
{
    ExecOptions eo;
    eo.jobs = resolve_jobs(env_u64("SGMS_JOBS", 1));
    eo.point_timeout_ms = env_u64("SGMS_POINT_TIMEOUT_MS", 0);
    eo.cache_dir = env_string("SGMS_CACHE_DIR", eo.cache_dir);
    eo.cache_enabled = env_u64("SGMS_CACHE", 0) != 0;
    eo.cache_max_bytes =
        env_u64("SGMS_CACHE_MAX_MB", 0) * 1024 * 1024;
    return eo;
}

ExecOptions
ExecOptions::from_options(const Options &opts)
{
    ExecOptions eo = from_env();
    if (opts.has("jobs"))
        eo.jobs = resolve_jobs(opts.get_u64("jobs", 1));
    if (opts.has("point-timeout"))
        eo.point_timeout_ms = opts.get_u64("point-timeout", 0);
    if (opts.has("cache-dir")) {
        eo.cache_dir = opts.get("cache-dir", eo.cache_dir);
        eo.cache_enabled = true;
    }
    if (opts.get_bool("no-cache"))
        eo.cache_enabled = false;
    if (opts.has("cache-max-mb")) {
        eo.cache_max_bytes =
            opts.get_u64("cache-max-mb", 0) * 1024 * 1024;
    }
    if (opts.get_bool("cache-gc"))
        eo.cache_gc = true;
    return eo;
}

const char *
ExecOptions::help()
{
    return "execution: --jobs=N (0=all cores; SGMS_JOBS)\n"
           "  --point-timeout=MS (cooperative wall budget; "
           "SGMS_POINT_TIMEOUT_MS) "
           "--cache-dir=DIR (SGMS_CACHE_DIR; implies cache on)\n"
           "  --no-cache (SGMS_CACHE=1 enables; default off) "
           "--cache-max-mb=N (LRU bound; SGMS_CACHE_MAX_MB) "
           "--cache-gc";
}

} // namespace sgms::exec
