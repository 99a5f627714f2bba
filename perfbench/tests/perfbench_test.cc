/**
 * @file
 * Tests of the benchmark's own machinery: order statistics, span
 * self time, and the correctness checks applied to results.
 */

#include <gtest/gtest.h>

#include "checks.h"
#include "core/experiment.h"
#include "exec/result_codec.h"
#include "spans.h"
#include "stats.h"

namespace perfbench
{
namespace
{

TEST(Stats, MedianOddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7);
    EXPECT_DOUBLE_EQ(median({}), 0);
}

// Reference values from Python: statistics.quantiles(v, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q2, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);

    q = quartiles({10, 1, 7, 3, 5}); // unsorted input
    EXPECT_DOUBLE_EQ(q.q1, 2.0);
    EXPECT_DOUBLE_EQ(q.q2, 5.0);
    EXPECT_DOUBLE_EQ(q.q3, 8.5);

    q = quartiles({1, 2}); // extrapolates, as Python does
    EXPECT_DOUBLE_EQ(q.q1, 0.75);
    EXPECT_DOUBLE_EQ(q.q2, 1.5);
    EXPECT_DOUBLE_EQ(q.q3, 2.25);
}

TEST(Stats, RelativeIqr)
{
    EXPECT_DOUBLE_EQ(relative_iqr({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                     (8.25 - 2.75) / 5.5);
    EXPECT_DOUBLE_EQ(relative_iqr({4, 4, 4, 4}), 0);
    EXPECT_DOUBLE_EQ(relative_iqr({0, 0}), 0);
}

Span
span(const char *name, int64_t start, int64_t end, int parent)
{
    Span s;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    return s;
}

TEST(Spans, SelfTimeSubtractsNestedChildren)
{
    SpanLog log(true);
    int root = log.add(span("pass", 0, 100, -1));
    int a = log.add(span("core.run", 10, 40, root));
    log.add(span("trace.replay", 15, 25, a));
    log.add(span("core.run", 50, 90, root));
    std::vector<int64_t> self = log.self_ns();
    EXPECT_EQ(self[0], 100 - 30 - 40);
    EXPECT_EQ(self[1], 30 - 10);
    EXPECT_EQ(self[2], 10);
    EXPECT_EQ(self[3], 40);

    std::vector<LayerRow> rows = log.table();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1].name, "core.run");
    EXPECT_EQ(rows[1].count, 2u);
    EXPECT_EQ(rows[1].total_ns, 70);
    EXPECT_EQ(rows[1].self_ns, 60);
    EXPECT_EQ(log.total_ns("core.run"), 70);
}

TEST(Spans, OverlappingChildrenCountOnceAndAreClipped)
{
    SpanLog log(true);
    int root = log.add(span("pass", 100, 200, -1));
    log.add(span("w", 110, 150, root)); // overlaps the next one
    log.add(span("w", 140, 170, root)); //   union 110..170 = 60
    log.add(span("w", 120, 130, root)); // inside the first
    log.add(span("w", 190, 230, root)); // clipped to 190..200 = 10
    log.add(span("w", 50, 90, root));   // wholly outside: ignored
    EXPECT_EQ(log.self_ns()[0], 100 - 60 - 10);
}

TEST(Spans, OpenCloseNestsAndDisabledLogRecordsNothing)
{
    SpanLog log(true);
    {
        ScopedSpan outer(log, "outer");
        ScopedSpan inner(log, "inner", 7);
    }
    ASSERT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.spans()[0].parent, -1);
    EXPECT_EQ(log.spans()[1].parent, 0);
    EXPECT_EQ(log.spans()[1].point, 7);
    EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
    EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);

    SpanLog off(false);
    {
        ScopedSpan s(off, "x");
    }
    EXPECT_TRUE(off.spans().empty());
}

sgms::SimResult
small_result()
{
    sgms::Experiment ex;
    ex.app = "gdb";
    ex.scale = 0.01;
    ex.policy = "eager";
    return ex.run();
}

TEST(Checks, DigestFiresOnAPerturbedResult)
{
    sgms::SimResult r = small_result();
    sgms::SimResult same = r;
    EXPECT_EQ(blob_digest(r), blob_digest(same));
    EXPECT_EQ(check_result(r, r.refs), "");
    // The streamed digest is FNV-1a-64 of the whole encoded blob,
    // which is larger than the hashing buffer's window.
    std::string blob = sgms::exec::result_blob(r);
    ASSERT_GT(blob.size(), 4096u);
    uint64_t h = 14695981039346656037ull;
    for (char c : blob) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    EXPECT_EQ(blob_digest(r), h);

    sgms::SimResult moved = r;
    moved.page_faults += 1;
    EXPECT_NE(blob_digest(moved), blob_digest(r));
    EXPECT_NE(combine_digests({blob_digest(r), blob_digest(moved)}),
              combine_digests({blob_digest(r), blob_digest(r)}));
    // Order matters: a swapped pair is a different sequence.
    EXPECT_NE(combine_digests({blob_digest(r), blob_digest(moved)}),
              combine_digests({blob_digest(moved), blob_digest(r)}));
}

TEST(Checks, TimePartitionRefsAndDegradedAreChecked)
{
    sgms::SimResult r = small_result();
    ASSERT_GT(r.refs, 0u);

    sgms::SimResult bad = r;
    bad.page_wait += 1;
    EXPECT_NE(check_result(bad, r.refs).find("time partition"),
              std::string::npos);

    EXPECT_NE(check_result(r, r.refs + 1).find("refs"), std::string::npos);

    // N clients: the summed components lie in [runtime, N x runtime].
    sgms::SimResult multi = r;
    multi.exec_time += r.runtime; // sum is now 2 x runtime
    EXPECT_EQ(check_result(multi, r.refs, 2), "");
    EXPECT_NE(check_result(multi, r.refs, 1), "");
    multi.exec_time += r.runtime; // 3 x runtime: too much for 2 clients
    EXPECT_NE(check_result(multi, r.refs, 2).find("time partition"),
              std::string::npos);

    sgms::SimResult degraded = r;
    sgms::obs::MetricSample m;
    m.name = "exec.degraded";
    m.value = 1;
    degraded.metrics.push_back(m);
    EXPECT_TRUE(is_degraded(degraded));
    EXPECT_NE(check_result(degraded, r.refs).find("degraded"),
              std::string::npos);
}

} // namespace
} // namespace perfbench
