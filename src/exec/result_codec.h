/**
 * @file
 * Lossless SimResult <-> binary blob codec for the result cache.
 *
 * Unlike core/json_report.h — a reporting format with rounded
 * millisecond fields — this codec is a faithful serialization: every
 * field of SimResult round-trips exactly (ticks as integer
 * picoseconds, doubles as their IEEE-754 bits, so inf, NaN and -0.0
 * survive too), so a cache hit is indistinguishable from re-running
 * the simulation, down to the last byte of any downstream report.
 *
 * SGMR layout (multi-byte fields in the writing host's byte order,
 * gated by the endianness tag, as in SGMB; trace/binfmt.h):
 *
 *   offset  size  field
 *   ------  ----  -----------------------------------------------
 *        0     4  magic "SGMR"
 *        4     4  schema (kResultBlobSchema)
 *        8     4  endianness tag 0x01020304
 *       12     8  payload length in bytes
 *       20     8  payload hash (FNV-1a 64, fnv1a_bytes)
 *       28     -  payload
 *
 * The payload is a scalar block of fixed-width fields (every counter
 * and tick, the NetStats arrays, TLB and reliability counts), then
 * length-prefixed sections, each prefixed by a u64 count: the app and
 * policy strings; the fault records, one column per field with
 * `from_disk` as one byte; the clustering series name and its x and
 * y columns; the distance histogram's key and count columns; and the
 * metrics, each a name followed by kind (one byte), value, count,
 * mean, min and max. Fields are written one at a time, never as a
 * padded struct, so equal results give equal bytes.
 *
 * Readers never trust the bytes: magic, schema, endianness, payload
 * length against the input size and the payload hash are all checked
 * before any field is decoded, and every count is checked against
 * the bytes that remain before anything is allocated. Any failure —
 * including a blob of another schema — returns false, which the
 * cache treats as a miss.
 */

#ifndef SGMS_EXEC_RESULT_CODEC_H
#define SGMS_EXEC_RESULT_CODEC_H

#include <ostream>
#include <string>

#include "core/sim_result.h"

namespace sgms::exec
{

/**
 * Version of both the blob layout and the simulator's observable
 * result semantics. Bump whenever the layout or SimResult's fields
 * change OR a simulator change alters results for an unchanged
 * SimConfig — the version participates in the cache key, so a bump
 * invalidates every cached point at once.
 */
inline constexpr uint32_t kResultBlobSchema = 2;

/** Serialize every field of @p r as one SGMR blob. */
void write_result_blob(std::ostream &os, const SimResult &r);

/** Convenience: write_result_blob into a string. */
std::string result_blob(const SimResult &r);

/**
 * Decode a blob produced by write_result_blob. Returns false (leaving
 * @p out default-constructed) on any header mismatch, checksum
 * failure, truncation or malformed field; never fatals or throws,
 * because the input may be a truncated or corrupted cache file.
 */
bool read_result_blob(const std::string &blob, SimResult &out);

} // namespace sgms::exec

#endif // SGMS_EXEC_RESULT_CODEC_H
