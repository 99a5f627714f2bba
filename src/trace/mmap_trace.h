/**
 * @file
 * Zero-copy replay of SGMB trace files through mmap(2).
 *
 * A MappedTraceFile is one immutable read-only mapping of a baked
 * trace, shared by shared_ptr exactly like the heap store's
 * PackedTrace buffers. Its records stay 64-bit (real traces may use
 * addresses too wide for the heap's 32-bit words); each unpacks to
 * the same TraceEvent a heap word does. Cursors (MmapReplayTrace)
 * carry only their own position, so any number of threads replay
 * one mapping concurrently with no locking and no per-reference copy
 * or allocation: next_batch unpacks records straight from the
 * mapping into the simulator's batch buffer.
 *
 * Because the mapping is backed by the file, replay throughput of a
 * cold trace is bounded by the page cache, not by a load pass:
 * startup to first reference is an open+mmap (microseconds, however
 * large the trace), traces far bigger than RAM replay with the
 * kernel paging the window in and out, and concurrent processes
 * share one physical copy of every baked trace.
 */

#ifndef SGMS_TRACE_MMAP_TRACE_H
#define SGMS_TRACE_MMAP_TRACE_H

#include <memory>
#include <string>

#include "trace/binfmt.h"
#include "trace/trace.h"

namespace sgms
{

/** One shared read-only mapping of an SGMB file. */
class MappedTraceFile
{
  public:
    /**
     * Map @p path, validating the header first. Returns nullptr and
     * sets @p error on any problem (missing file, bad magic, wrong
     * version or endianness, truncation, mmap failure).
     */
    static std::shared_ptr<const MappedTraceFile>
    try_open(const std::string &path, std::string &error);

    /** Map @p path; fatal() with the validation error on failure. */
    static std::shared_ptr<const MappedTraceFile>
    open(const std::string &path);

    ~MappedTraceFile();

    MappedTraceFile(const MappedTraceFile &) = delete;
    MappedTraceFile &operator=(const MappedTraceFile &) = delete;

    const BinTraceHeader &header() const { return header_; }
    const std::string &path() const { return path_; }

    /** The record array inside the mapping (header().ref_count long). */
    const uint64_t *
    records() const
    {
        return reinterpret_cast<const uint64_t *>(
            static_cast<const unsigned char *>(base_) +
            kBinTraceHeaderBytes);
    }

    uint64_t size() const { return header_.ref_count; }

    /** Total bytes mapped (header + records). */
    uint64_t mapped_bytes() const { return mapped_bytes_; }

    /** FNV-1a over the mapped payload; compare to header().payload_hash. */
    uint64_t payload_hash() const;

  private:
    MappedTraceFile() = default;

    std::string path_;
    BinTraceHeader header_;
    void *base_ = nullptr;
    uint64_t mapped_bytes_ = 0;
};

/** Cursor over a shared mapping; cheap to create per point. */
class MmapReplayTrace : public TraceSource
{
  public:
    explicit MmapReplayTrace(std::shared_ptr<const MappedTraceFile> file)
        : file_(std::move(file))
    {}

    bool
    next(TraceEvent &ev) override
    {
        if (pos_ >= file_->size())
            return false;
        ev = unpack_trace_event(file_->records()[pos_++]);
        return true;
    }

    size_t
    next_batch(TraceEvent *out, size_t n) override
    {
        const uint64_t *rec = file_->records();
        uint64_t avail = file_->size() - pos_;
        size_t got = n < avail ? n : static_cast<size_t>(avail);
        for (size_t i = 0; i < got; ++i)
            out[i] = unpack_trace_event(rec[pos_ + i]);
        pos_ += got;
        return got;
    }

    void reset() override { pos_ = 0; }

    void
    skip(uint64_t n) override
    {
        uint64_t avail = file_->size() - pos_;
        pos_ += n < avail ? n : avail;
    }

    uint64_t size_hint() const override { return file_->size(); }

    /** Position the cursor (multi-cursor replay windows). */
    void seek(uint64_t ref_index) { pos_ = ref_index; }
    uint64_t position() const { return pos_; }

    /** The shared mapping (for tests asserting sharing). */
    const std::shared_ptr<const MappedTraceFile> &file() const
    {
        return file_;
    }

  private:
    std::shared_ptr<const MappedTraceFile> file_;
    uint64_t pos_ = 0;
};

/** Map @p path and return a replay cursor; fatal() on invalid files. */
std::unique_ptr<TraceSource> make_mapped_trace(const std::string &path);

} // namespace sgms

#endif // SGMS_TRACE_MMAP_TRACE_H
