/**
 * @file
 * Correctness checks on simulation results: a digest over the
 * lossless result codec, the time-partition law, the reference count
 * and the degraded-point marker.
 */

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/sim_result.h"

namespace perfbench
{

/** FNV-1a-64 of exec::result_blob(@p r), the lossless encoding. */
uint64_t blob_digest(const sgms::SimResult &r);

/**
 * Digest of a sequence of points, from their blob digests in order.
 * Two result vectors share it exactly when every blob does (up to
 * hash collisions).
 */
uint64_t combine_digests(const std::vector<uint64_t> &blob_digests);

/** A digest as 16 hex digits. */
std::string digest_hex(uint64_t digest);

/** True when the exec engine zero-filled the point (exec.degraded). */
bool is_degraded(const sgms::SimResult &r);

/**
 * Check one result: not degraded, refs equal to @p expected_refs,
 * and the time partition. With one client, runtime equals the sum of
 * the time components exactly. With N clients the components are
 * summed over clients whose clocks all start at 0 while runtime is
 * the latest client's clock, so runtime <= sum <= N x runtime.
 * Returns an empty string when every law holds, else the first
 * violation.
 */
std::string check_result(const sgms::SimResult &r, uint64_t expected_refs,
                         uint32_t clients = 1);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
