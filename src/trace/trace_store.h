/**
 * @file
 * Process-wide store of replayable synthetic traces.
 *
 * A sweep runs the same (app, scale, seed) trace under dozens of
 * configurations, and with `--jobs` several threads replay it at
 * once. Regenerating the trace per point costs about as much as
 * simulating it (the generator draws 2-3 RNG samples per reference),
 * so the store serves each trace from one immutable copy and hands
 * out cheap per-point cursors. Two tiers:
 *
 *  - **mapped tier** (SGMS_TRACE_DIR set): the trace is baked once
 *    into a content-named SGMB file in the directory (atomic
 *    tmp+rename, like exec::ResultCache blobs) and subsequently
 *    mmap'd (trace/mmap_trace.h). Process start is an open+mmap
 *    instead of a generation pass, traces bigger than RAM replay
 *    through the page cache, concurrent processes share one
 *    physical copy, and a later process reuses the bake.
 *    Mapped bytes are file-backed and evictable by the kernel, so
 *    they do NOT count against the heap budget below; they are
 *    reported separately as TraceStoreStats::mapped_bytes.
 *
 *  - **heap tier** (default): the trace is materialized once per
 *    process into an immutable shared buffer of 32-bit words (4 bytes
 *    per reference), bounded by a cumulative byte budget
 *    (SGMS_TRACE_STORE_MAX_MB, default 256); traces that would
 *    exceed it, or that reach an address of 2^31 or more, fall back
 *    to streaming generation per point.
 *
 * SGMS_TRACE_STORE=0 disables the store entirely (every caller gets
 * a streaming generator, the pre-store behavior).
 *
 * Lifetime rules (DESIGN.md §13-14): buffers and mappings are
 * immutable after creation; cursors carry only their own position,
 * so concurrent replay from many threads needs no locking. Both
 * tiers store (addr << 1) | write per reference, in 32-bit heap words
 * here and 64-bit SGMB records in the mapped tier (trace/binfmt.h);
 * each unpacks to the same TraceEvent, so heap, mapped, and streamed
 * replay are byte-equivalent through full Experiment::run results
 * (tested).
 */

#ifndef SGMS_TRACE_TRACE_STORE_H
#define SGMS_TRACE_TRACE_STORE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace sgms
{

/**
 * Immutable packed trace: each event is one 32-bit word
 * (addr << 1) | write, so only addresses below kPackedAddrLimit are
 * storable. Synthetic addresses span about 23 bits at scale 0.1 and
 * 26 at scale 1.0.
 */
using PackedTrace = std::vector<uint32_t>;

/** One past the largest address a PackedTrace word can hold (2^31). */
inline constexpr uint64_t kPackedAddrLimit = uint64_t{1} << 31;

/** The event one PackedTrace word holds. */
inline TraceEvent
unpack_event(PackedTrace::value_type word)
{
    return {word >> 1, (word & 1) != 0};
}

/**
 * Pack all of @p src (from its start) into a new buffer. Returns
 * nullptr as soon as an address reaches kPackedAddrLimit: such a
 * trace is not stored.
 */
std::shared_ptr<const PackedTrace> pack_trace(TraceSource &src);

/** Cursor over a shared packed trace; cheap to create per point. */
class ReplayTrace : public TraceSource
{
  public:
    explicit ReplayTrace(std::shared_ptr<const PackedTrace> events)
        : events_(std::move(events))
    {}

    bool
    next(TraceEvent &ev) override
    {
        if (pos_ >= events_->size())
            return false;
        ev = unpack_event((*events_)[pos_++]);
        return true;
    }

    size_t
    next_batch(TraceEvent *out, size_t n) override
    {
        const PackedTrace &ev = *events_;
        size_t avail = ev.size() - pos_;
        size_t got = n < avail ? n : avail;
        for (size_t i = 0; i < got; ++i)
            out[i] = unpack_event(ev[pos_ + i]);
        pos_ += got;
        return got;
    }

    void reset() override { pos_ = 0; }

    void
    skip(uint64_t n) override
    {
        uint64_t avail = events_->size() - pos_;
        pos_ += static_cast<size_t>(n < avail ? n : avail);
    }

    uint64_t size_hint() const override { return events_->size(); }

    /** The shared buffer (for tests asserting sharing). */
    const std::shared_ptr<const PackedTrace> &buffer() const
    {
        return events_;
    }

  private:
    std::shared_ptr<const PackedTrace> events_;
    size_t pos_ = 0;
};

/**
 * An app trace ready to replay: an mmap cursor over the baked file
 * when the mapped tier is configured, a ReplayTrace cursor over the
 * shared heap store when the trace is (or can be) materialized
 * within budget and its addresses fit a PackedTrace word, a
 * streaming SyntheticTrace otherwise. Thread-safe;
 * concurrent callers of the same key block on one materialization.
 */
std::unique_ptr<TraceSource>
make_stored_app_trace(const std::string &app, double scale,
                      uint64_t seed = 1);

/**
 * The content-addressed file the mapped tier uses for
 * (app, scale, seed) under @p dir. The name embeds the app and a
 * hash of (format version, app, scale, seed), so distinct traces
 * never collide and a format bump never aliases old bakes.
 */
std::string baked_trace_path(const std::string &dir,
                             const std::string &app, double scale,
                             uint64_t seed);

/**
 * Ensure (app, scale, seed) is baked under @p dir and return its
 * path. The bake streams the generator straight to disk (no heap
 * materialization, so bigger-than-RAM traces bake fine) into a temp
 * file renamed into place, so concurrent bakers and killed runs
 * never leave a half-written file under the live name. An existing
 * valid file is reused untouched; an invalid one (truncated copy,
 * foreign format) is re-baked over. fatal() on I/O errors.
 */
std::string bake_app_trace(const std::string &app, double scale,
                           uint64_t seed, const std::string &dir);

/** Store observability (tests, bench/sim_hotpath, bench/trace_io). */
struct TraceStoreStats
{
    /** Requests served from an already-materialized buffer or map. */
    uint64_t hits = 0;
    /** Requests that materialized or mapped a new trace. */
    uint64_t misses = 0;
    /**
     * Requests that fell back to streaming generation: over the
     * budget, or an address too wide for a PackedTrace word.
     */
    uint64_t fallbacks = 0;
    /** Bytes held by heap-materialized buffers (budgeted). */
    uint64_t bytes = 0;
    /** Bytes mmap'd from baked files (file-backed, NOT budgeted). */
    uint64_t mapped_bytes = 0;
    /** Baked files written by this process. */
    uint64_t baked_files = 0;
    /** Baked files mapped (whether baked here or found on disk). */
    uint64_t mapped_files = 0;
};

TraceStoreStats trace_store_stats();

/** Drop every stored trace (tests; not thread-safe vs. replayers). */
void trace_store_clear();

// Test/config hooks. Each overrides the corresponding environment
// variable (SGMS_TRACE_STORE / SGMS_TRACE_DIR /
// SGMS_TRACE_STORE_MAX_MB) for the rest of the process; they do not
// drop traces already stored, so tests usually call
// trace_store_clear() alongside.

/** Enable/disable the store (env: SGMS_TRACE_STORE=0 disables). */
void trace_store_set_enabled(bool enabled);

/** Set the mapped-tier directory; "" disables the mapped tier. */
void trace_store_set_dir(const std::string &dir);

/** Set the heap-tier budget in bytes. */
void trace_store_set_budget_bytes(uint64_t bytes);

/** The active mapped-tier directory ("" when disabled). */
std::string trace_store_dir();

} // namespace sgms

#endif // SGMS_TRACE_TRACE_STORE_H
