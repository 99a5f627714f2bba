/**
 * @file
 * Wall-clock spans recorded by the benchmark around its calls into
 * the simulator's layers, and the per-layer self time derived from
 * them.
 *
 * Spans live in memory until the run ends; nothing is written while
 * a measurement is running. A span's self time is its duration
 * minus the part of its interval covered by its children, counting
 * time where children overlap each other once.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the steady clock. */
int64_t now_ns();

struct Span
{
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int point = -1;  ///< simulation point the span belongs to, -1 if none
};

/** One row of the self-time table: all spans sharing a name. */
struct LayerRow
{
    std::string name;
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
};

class SpanLog
{
  public:
    /** A disabled log records nothing and open() returns -1. */
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Start a span nested in the innermost open one; returns its id. */
    int open(const std::string &name, int point = -1);

    /** End span @p id (and any span still open inside it). */
    void close(int id);

    /** Append a finished span as is (tests, and spans timed elsewhere). */
    int add(const Span &s);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span, indexed like spans(). */
    std::vector<int64_t> self_ns() const;

    /** Spans grouped by name, in order of first appearance. */
    std::vector<LayerRow> table() const;

    /** Total duration of the spans named @p name. */
    int64_t total_ns(const std::string &name) const;

    /**
     * Write the spans as a Chrome trace_event file, with @p meta (a
     * JSON object) under "perfbench". Returns false on I/O failure.
     */
    bool write_chrome_json(const std::string &path,
                           const std::string &meta) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span for the lifetime of the object (no-op when disabled). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, int point = -1)
        : log_(log), id_(log.enabled() ? log.open(name, point) : -1)
    {}
    ~ScopedSpan()
    {
        if (id_ >= 0)
            log_.close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
