/**
 * @file
 * Tests for the parallel execution engine (src/exec/): result-blob
 * codec fidelity, cache keying and blob robustness, and the engine's
 * determinism, progress and exception contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/json_report.h"
#include "core/sweep.h"
#include "exec/parallel_runner.h"
#include "exec/result_cache.h"
#include "exec/result_codec.h"
#include "net/timeline.h"
#include "trace/binfmt.h"

namespace sgms
{
namespace
{

using exec::CacheKey;
using exec::Engine;
using exec::ExecOptions;
using exec::ResultCache;

/** Fresh, empty per-test cache directory under the gtest temp dir. */
std::string
scratch_dir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "sgms_exec_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
blobs_of(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    for (const auto &r : results)
        exec::write_result_blob(os, r);
    return os.str();
}

std::string
report_of(const std::vector<SimResult> &results)
{
    std::ostringstream os;
    write_results_json(os, results, /*include_faults=*/true);
    return os.str();
}

// --------------------------------------------------------------- codec

/** A SimResult with every field (and nested array) populated. */
SimResult
rich_result()
{
    SimResult r;
    r.app = "app \"quoted\"\n";
    r.policy = "pipelining";
    r.page_size = 8192;
    r.subpage_size = 512;
    r.mem_pages = 321;
    r.refs = 123456789;
    r.page_faults = 1021;
    r.lazy_subpage_faults = 77;
    r.evictions = 5;
    r.putpages = 6;
    r.emulated_accesses = 7;
    r.runtime = 9007199254740993ll; // needs exact 64-bit decode
    r.exec_time = 123;
    r.sp_latency = 456;
    r.page_wait = 789;
    r.recv_overhead = 10;
    r.emulation_overhead = 11;
    r.tlb_overhead = 12;
    r.io_overlap = 13;
    r.comp_overlap = 14;
    r.faults.push_back({42, 9, 1000, 2000, 3000, true});
    r.faults.push_back({43, 10, 1001, 2001, 0, false});
    r.clustering.name = "clustering";
    r.clustering.add(0.1, 1); // 0.1 is not exact in binary
    r.clustering.add(2e6, 3.25);
    r.next_subpage_distance.add(-3, 2);
    r.next_subpage_distance.add(1, 9);
    r.net_stats.messages = 100;
    r.net_stats.bytes = 200;
    for (size_t k = 0; k < kMsgKindCount; ++k) {
        r.net_stats.messages_by_kind[k] = 10 + k;
        r.net_stats.bytes_by_kind[k] = 20 + k;
    }
    r.net_stats.dropped = 1;
    r.net_stats.corrupted = 2;
    r.net_stats.duplicated = 3;
    r.tlb_stats.hits = 5000;
    r.tlb_stats.misses = 60;
    r.global_discards = 4;
    r.retries = 3;
    r.timeouts = 2;
    r.degraded_fetches = 1;
    r.duplicate_deliveries = 8;
    r.server_failures = 1;
    r.metrics.push_back(
        {"a.counter", obs::MetricKind::Counter, 4.0, 0, 0, 0, 0});
    r.metrics.push_back(
        {"b.gauge", obs::MetricKind::Gauge, 0.125, 0, 0, 0, 0});
    r.metrics.push_back({"c.dist", obs::MetricKind::Distribution,
                         6.6e6, 3, 2.2e6, 1.0e6, 3.0e6});
    r.requester_wire_busy = 15;
    r.requester_dma_busy = 16;
    r.requester_cpu_busy = 17;
    return r;
}

TEST(ResultCodec, RoundTripsEveryFieldExactly)
{
    SimResult r = rich_result();
    std::string blob = exec::result_blob(r);
    SimResult back;
    ASSERT_TRUE(exec::read_result_blob(blob, back));
    // Byte-identical re-encode is the strongest equality we have
    // (SimResult has no operator==) and exactly what the cache needs.
    EXPECT_EQ(exec::result_blob(back), blob);
    // Spot-check the trickiest representations anyway.
    EXPECT_EQ(back.app, r.app);
    EXPECT_EQ(back.runtime, 9007199254740993ll);
    ASSERT_EQ(back.faults.size(), 2u);
    EXPECT_EQ(back.faults[0].page, 42u);
    EXPECT_TRUE(back.faults[0].from_disk);
    EXPECT_FALSE(back.faults[1].from_disk);
    ASSERT_EQ(back.clustering.points.size(), 2u);
    EXPECT_EQ(back.clustering.points[0].first, 0.1);
    EXPECT_EQ(back.next_subpage_distance.count(-3), 2u);
    EXPECT_EQ(back.net_stats.messages_by_kind[kMsgKindCount - 1],
              10 + kMsgKindCount - 1);
    ASSERT_EQ(back.metrics.size(), 3u);
    EXPECT_EQ(back.metrics[2].kind, obs::MetricKind::Distribution);
    EXPECT_EQ(back.metrics[2].count, 3u);
}

TEST(ResultCodec, EmptyResultRoundTrips)
{
    SimResult r;
    std::string blob = exec::result_blob(r);
    SimResult back;
    ASSERT_TRUE(exec::read_result_blob(blob, back));
    EXPECT_EQ(exec::result_blob(back), blob);
}

TEST(ResultCodec, RoundTripsNonFiniteDoublesBitExact)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    SimResult r = rich_result();
    r.metrics.push_back({"d.nonfinite", obs::MetricKind::Distribution,
                         inf, 2, -inf, nan, -0.0});
    r.clustering.add(inf, nan);
    r.clustering.add(-0.0, -inf);
    std::string blob = exec::result_blob(r);
    SimResult back;
    ASSERT_TRUE(exec::read_result_blob(blob, back));
    EXPECT_EQ(exec::result_blob(back), blob);

    auto bits = [](double v) {
        uint64_t b;
        std::memcpy(&b, &v, sizeof(b));
        return b;
    };
    const obs::MetricSample &m = back.metrics.back();
    EXPECT_EQ(bits(m.value), bits(inf));
    EXPECT_EQ(bits(m.mean), bits(-inf));
    EXPECT_EQ(bits(m.min), bits(nan));
    EXPECT_EQ(bits(m.max), bits(-0.0));
    const auto &pts = back.clustering.points;
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(bits(pts[2].first), bits(inf));
    EXPECT_EQ(bits(pts[2].second), bits(nan));
    EXPECT_EQ(bits(pts[3].first), bits(-0.0));
    EXPECT_EQ(bits(pts[3].second), bits(-inf));
}

// SGMR header offsets (exec/result_codec.h layout table).
constexpr size_t kBlobSchemaOff = 4;
constexpr size_t kBlobLengthOff = 12;
constexpr size_t kBlobHashOff = 20;
constexpr size_t kBlobHeaderBytes = 28;

/**
 * Rewrite @p blob's payload length and hash to match its payload, so
 * a damaged payload reaches the field decoder instead of failing the
 * checksum.
 */
std::string
resealed(std::string blob)
{
    uint64_t len = blob.size() - kBlobHeaderBytes;
    uint64_t hash = fnv1a_bytes(blob.data() + kBlobHeaderBytes, len);
    std::memcpy(blob.data() + kBlobLengthOff, &len, sizeof(len));
    std::memcpy(blob.data() + kBlobHashOff, &hash, sizeof(hash));
    return blob;
}

/** @p blob with the u64 at @p off set to @p v, resealed. */
std::string
with_u64(std::string blob, size_t off, uint64_t v)
{
    std::memcpy(blob.data() + off, &v, sizeof(v));
    return resealed(std::move(blob));
}

TEST(ResultCodec, RejectsDamagedBlobs)
{
    // Runs under ASan+UBSan in scripts/check.sh: every input below
    // must come back false without an overrun or a huge allocation.
    const std::string good = exec::result_blob(rich_result());
    ASSERT_GT(good.size(), kBlobHeaderBytes);
    SimResult out;
    ASSERT_TRUE(exec::read_result_blob(good, out));
    EXPECT_FALSE(exec::read_result_blob("", out));
    EXPECT_FALSE(exec::read_result_blob("{\"schema\":2}", out));

    // Every truncation: as torn off (length check), and resealed so
    // the decoder itself runs out of bytes.
    for (size_t n = 0; n < good.size(); ++n) {
        SCOPED_TRACE(n);
        EXPECT_FALSE(exec::read_result_blob(good.substr(0, n), out));
        if (n >= kBlobHeaderBytes) {
            EXPECT_FALSE(
                exec::read_result_blob(resealed(good.substr(0, n)), out));
        }
    }
    // Trailing bytes, with and without a matching header.
    EXPECT_FALSE(exec::read_result_blob(good + '\0', out));
    EXPECT_FALSE(exec::read_result_blob(resealed(good + '\0'), out));

    // Wrong magic, wrong schema.
    std::string magic = good;
    magic[3] = 'B';
    EXPECT_FALSE(exec::read_result_blob(magic, out));
    std::string schema = good;
    uint32_t v = exec::kResultBlobSchema + 1;
    std::memcpy(schema.data() + kBlobSchemaOff, &v, sizeof(v));
    EXPECT_FALSE(exec::read_result_blob(schema, out));

    // A length prefix or element count of 2^63 behind a valid
    // checksum: the policy string's length, the fault count after
    // it, and the clustering point count after the series name.
    const uint64_t huge = 1ull << 63;
    size_t policy = good.find("pipelining");
    size_t series = good.find("clustering");
    ASSERT_NE(policy, std::string::npos);
    ASSERT_NE(series, std::string::npos);
    EXPECT_FALSE(exec::read_result_blob(
        with_u64(good, policy - sizeof(uint64_t), huge), out));
    EXPECT_FALSE(exec::read_result_blob(
        with_u64(good, policy + 10, huge), out));
    EXPECT_FALSE(exec::read_result_blob(
        with_u64(good, series + 10, huge), out));

    // Distance-histogram keys out of order: the second key (1) set to
    // the first (-3) would merge the bins and re-encode differently.
    const int64_t keys[2] = {-3, 1};
    size_t bins = good.find(
        std::string(reinterpret_cast<const char *>(keys), sizeof(keys)));
    ASSERT_NE(bins, std::string::npos);
    EXPECT_FALSE(exec::read_result_blob(
        with_u64(good, bins + sizeof(int64_t), static_cast<uint64_t>(-3)),
        out));

    // Seeded single-byte flips over every header byte and across the
    // payload. As flipped, the header check or checksum rejects each
    // one. Resealed, the decoder either rejects it or decodes a blob
    // that re-encodes to exactly these bytes.
    std::mt19937_64 rng(20240611);
    std::vector<size_t> offsets;
    for (size_t i = 0; i < kBlobHeaderBytes; ++i)
        offsets.push_back(i);
    for (int i = 0; i < 400; ++i)
        offsets.push_back(kBlobHeaderBytes +
                          rng() % (good.size() - kBlobHeaderBytes));
    for (size_t off : offsets) {
        SCOPED_TRACE(off);
        std::string bad = good;
        bad[off] = static_cast<char>(bad[off] ^ (1 + rng() % 255));
        EXPECT_FALSE(exec::read_result_blob(bad, out));
        if (off < kBlobHeaderBytes)
            continue;
        std::string sealed = resealed(bad);
        if (exec::read_result_blob(sealed, out)) {
            EXPECT_EQ(exec::result_blob(out), sealed);
        }
    }
}

// --------------------------------------------------------------- cache

TEST(ResultCache, KeyIsStableAcrossIdenticalExperiments)
{
    Experiment a;
    a.app = "modula3";
    a.scale = 0.1;
    Experiment b = a;
    EXPECT_EQ(exec::cache_key_of(a), exec::cache_key_of(b));
    EXPECT_EQ(exec::cache_key_of(a).hex(),
              exec::cache_key_of(b).hex());
    EXPECT_EQ(exec::cache_key_of(a).hex().size(), 32u);
    EXPECT_EQ(exec::experiment_fingerprint(a),
              exec::experiment_fingerprint(b));
}

TEST(ResultCache, KeyChangesWhenAnyInputChanges)
{
    Experiment base;
    base.app = "modula3";
    base.scale = 0.1;
    base.policy = "eager";

    std::vector<Experiment> variants;
    auto vary = [&](auto &&mutate) {
        Experiment ex = base;
        mutate(ex);
        variants.push_back(ex);
    };
    vary([](Experiment &e) { e.app = "gdb"; });
    vary([](Experiment &e) { e.scale = 0.2; });
    vary([](Experiment &e) { e.seed = 2; });
    vary([](Experiment &e) { e.policy = "pipelining"; });
    vary([](Experiment &e) { e.subpage_size = 2048; });
    vary([](Experiment &e) { e.mem = MemConfig::Quarter; });
    vary([](Experiment &e) { e.base.net.wire_per_byte *= 2; });
    vary([](Experiment &e) { e.base.gms.servers += 1; });
    vary([](Experiment &e) { e.base.disk.base += 1; });
    vary([](Experiment &e) { e.base.faults.duplicate_prob = 0.5; });
    vary([](Experiment &e) { e.base.faults.seed += 1; });
    vary([](Experiment &e) { e.base.retry.max_attempts += 1; });
    vary([](Experiment &e) { e.base.tlb_entries += 1; });
    vary([](Experiment &e) { e.base.record_faults = false; });

    std::set<std::string> keys;
    keys.insert(exec::cache_key_of(base).hex());
    for (const Experiment &ex : variants)
        keys.insert(exec::cache_key_of(ex).hex());
    // Every variant — and the base — must land on its own key.
    EXPECT_EQ(keys.size(), variants.size() + 1);
}

TEST(ResultCache, StoreThenLoadRoundTrips)
{
    ResultCache cache(scratch_dir("roundtrip"));
    CacheKey key{0x1234, 0x5678};
    EXPECT_FALSE(cache.load(key).has_value()); // cold miss
    SimResult r = rich_result();
    cache.store(key, r);
    auto back = cache.load(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(exec::result_blob(*back), exec::result_blob(r));
    exec::CacheStats s = cache.stats();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.decode_failures, 0u);
    // A different key is a different blob: no accidental aliasing.
    EXPECT_FALSE(cache.load(CacheKey{0x1234, 0x5679}).has_value());
}

TEST(ResultCache, CorruptedBlobReadsAsMissNotFatal)
{
    ResultCache cache(scratch_dir("corrupt"));
    CacheKey key{1, 2};
    cache.store(key, rich_result());
    {
        std::ofstream f(cache.blob_path(key),
                        std::ios::binary | std::ios::trunc);
        // A valid blob with one payload byte flipped: the checksum
        // no longer matches.
        std::string blob = exec::result_blob(rich_result());
        blob.back() = static_cast<char>(blob.back() ^ 0x5a);
        f << blob;
    }
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().decode_failures, 1u);
}

TEST(ResultCache, TruncatedBlobReadsAsMissNotFatal)
{
    ResultCache cache(scratch_dir("truncated"));
    CacheKey key{3, 4};
    SimResult r = rich_result();
    cache.store(key, r);
    std::string blob = exec::result_blob(r);
    {
        // Simulate a torn write: the first half of a valid blob.
        std::ofstream f(cache.blob_path(key),
                        std::ios::binary | std::ios::trunc);
        f << blob.substr(0, blob.size() / 2);
    }
    EXPECT_FALSE(cache.load(key).has_value());
    EXPECT_EQ(cache.stats().decode_failures, 1u);
    // Re-store repairs it.
    cache.store(key, r);
    EXPECT_TRUE(cache.load(key).has_value());
}

// ------------------------------------------------------------ eviction

/** Bytes of result blobs currently in @p dir. */
uint64_t
blob_bytes(const std::string &dir)
{
    uint64_t total = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.is_regular_file() &&
            e.path().extension() == ".sgmr") {
            total += e.file_size();
        }
    }
    return total;
}

TEST(ResultCache, EvictionKeepsTheDirectoryUnderTheBound)
{
    std::string dir = scratch_dir("bound");
    SimResult r = rich_result();
    uint64_t blob = exec::result_blob(r).size();
    // Room for two blobs and change; never three.
    ResultCache cache(dir, 2 * blob + blob / 2);
    for (uint64_t i = 0; i < 8; ++i) {
        cache.store(CacheKey{i, i}, r);
        // The bound holds after EVERY store, not just eventually.
        EXPECT_LE(blob_bytes(dir), cache.max_bytes()) << i;
    }
    EXPECT_EQ(cache.stats().stores, 8u);
    EXPECT_EQ(cache.stats().evictions, 6u);
    // The most recent key is still resident.
    EXPECT_TRUE(cache.load(CacheKey{7, 7}).has_value());
}

TEST(ResultCache, EvictionIsLruSoATouchedBlobSurvives)
{
    std::string dir = scratch_dir("lru");
    SimResult r = rich_result();
    uint64_t blob = exec::result_blob(r).size();
    ResultCache cache(dir, 2 * blob + blob / 2);
    CacheKey a{1, 1}, b{2, 2}, c{3, 3};
    cache.store(a, r);
    cache.store(b, r);
    ASSERT_TRUE(cache.load(a).has_value()); // touch: a newer than b
    cache.store(c, r);                      // forces one eviction
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(cache.load(a).has_value());
    EXPECT_FALSE(cache.load(b).has_value()); // b was the LRU victim
    EXPECT_TRUE(cache.load(c).has_value());
}

TEST(ResultCache, EvictionNeverYanksABlobMidRead)
{
    std::string dir = scratch_dir("midread");
    SimResult r = rich_result();
    std::string blob = exec::result_blob(r);
    ResultCache cache(dir, 0); // unbounded writer
    CacheKey key{9, 9};
    cache.store(key, r);

    // A reader opens the blob...
    std::ifstream in(cache.blob_path(key), std::ios::binary);
    ASSERT_TRUE(in.good());

    // ...then gc (any process) unlinks it out from under them.
    ResultCache bounded(dir, 1); // bound smaller than any blob
    EXPECT_EQ(bounded.gc(), 1u);
    EXPECT_FALSE(std::filesystem::exists(cache.blob_path(key)));

    // POSIX unlink semantics: the open stream still reads the whole
    // blob, which still decodes.
    std::ostringstream got;
    got << in.rdbuf();
    EXPECT_EQ(got.str(), blob);
    SimResult back;
    EXPECT_TRUE(exec::read_result_blob(got.str(), back));
    EXPECT_EQ(exec::result_blob(back), blob);
}

TEST(ResultCache, GcAdoptsBlobsWrittenWithoutAManifest)
{
    // An unbounded cache appends no manifest records; a later bounded
    // gc() must still rank those blobs — by file mtime — instead of
    // ignoring (or worse, always evicting) them.
    std::string dir = scratch_dir("adopt");
    SimResult r = rich_result();
    uint64_t blob = exec::result_blob(r).size();
    ResultCache unbounded(dir, 0);
    CacheKey old_key{1, 0}, mid_key{2, 0}, new_key{3, 0};
    unbounded.store(old_key, r);
    unbounded.store(mid_key, r);
    unbounded.store(new_key, r);
    auto now = std::filesystem::file_time_type::clock::now();
    std::filesystem::last_write_time(unbounded.blob_path(old_key),
                                     now - std::chrono::hours(2));
    std::filesystem::last_write_time(unbounded.blob_path(mid_key),
                                     now - std::chrono::hours(1));

    ResultCache bounded(dir, blob + blob / 2); // room for one
    EXPECT_EQ(bounded.gc(), 2u);
    EXPECT_FALSE(bounded.load(old_key).has_value());
    EXPECT_FALSE(bounded.load(mid_key).has_value());
    EXPECT_TRUE(bounded.load(new_key).has_value());
}

// -------------------------------------------------------------- engine

/** The determinism grid: small but multi-policy, multi-size. */
SweepSpec
engine_spec()
{
    SweepSpec spec;
    spec.apps = {"gdb"};
    spec.policies = {"fullpage", "eager", "pipelining"};
    spec.subpage_sizes = {1024, 2048};
    spec.mems = {MemConfig::Half};
    spec.scale = 0.3;
    return spec;
}

TEST(Engine, ExpandSweepMatchesPointCountAndOrder)
{
    SweepSpec spec = engine_spec();
    std::vector<Experiment> points = exec::expand_sweep(spec);
    ASSERT_EQ(points.size(), spec.point_count());
    EXPECT_EQ(points[0].policy, "fullpage");
    EXPECT_EQ(points[1].policy, "eager");
    EXPECT_EQ(points[1].subpage_size, 1024u);
    EXPECT_EQ(points[2].subpage_size, 2048u);
    EXPECT_EQ(points[3].policy, "pipelining");
}

TEST(Engine, ParallelResultsAreByteIdenticalToSerial)
{
    SweepSpec spec = engine_spec();

    ExecOptions serial_eo;
    serial_eo.jobs = 1;
    Engine serial(serial_eo);
    std::vector<SimResult> s = serial.run_sweep(spec);

    ASSERT_EQ(s.size(), spec.point_count());

    // Any thread count: fewer threads than points, a count that does
    // not divide the grid, and more threads than points.
    for (unsigned jobs : {2u, 3u, 8u}) {
        ExecOptions par_eo;
        par_eo.jobs = jobs;
        Engine par(par_eo);
        std::vector<SimResult> p = par.run_sweep(spec);

        ASSERT_EQ(p.size(), s.size()) << jobs;
        // Bytes, not fields: the lossless blob covers every field,
        // and the report is what downstream tooling actually diffs.
        EXPECT_EQ(blobs_of(p), blobs_of(s)) << jobs;
        EXPECT_EQ(report_of(p), report_of(s)) << jobs;

        exec::ExecStats ps = par.stats();
        EXPECT_EQ(ps.points_run, s.size()) << jobs;
        EXPECT_EQ(ps.points_cached, 0u) << jobs;
        EXPECT_EQ(ps.workers,
                  std::min<size_t>(jobs, s.size())) << jobs;
    }
}

TEST(Engine, SerialProgressRunsOnCallerThreadInOrder)
{
    std::vector<Experiment> points =
        exec::expand_sweep(engine_spec());
    Engine engine(ExecOptions{}); // jobs = 1
    std::vector<std::string> seen;
    std::thread::id caller = std::this_thread::get_id();
    bool all_on_caller = true;
    engine.run_all(points, [&](const Experiment &ex) {
        seen.push_back(ex.label());
        all_on_caller &= std::this_thread::get_id() == caller;
    });
    ASSERT_EQ(seen.size(), points.size());
    EXPECT_TRUE(all_on_caller);
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(seen[i], points[i].label()) << i;
}

TEST(Engine, ParallelProgressFiresOncePerPointFromWorkerThreads)
{
    std::vector<Experiment> points =
        exec::expand_sweep(engine_spec());
    ExecOptions eo;
    eo.jobs = 4;
    Engine engine(eo);
    std::mutex mu;
    std::multiset<std::string> seen;
    std::set<std::thread::id> threads;
    std::thread::id caller = std::this_thread::get_id();
    engine.run_all(points, [&](const Experiment &ex) {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(ex.label());
        threads.insert(std::this_thread::get_id());
    });
    // Exactly once per point (multiset catches duplicates) ...
    ASSERT_EQ(seen.size(), points.size());
    for (const Experiment &ex : points)
        EXPECT_EQ(seen.count(ex.label()),
                  static_cast<size_t>(
                      std::count_if(points.begin(), points.end(),
                                    [&](const Experiment &p) {
                                        return p.label() == ex.label();
                                    })))
            << ex.label();
    // ... and never on the calling thread: the documented contract is
    // that jobs>1 callbacks arrive on worker threads.
    EXPECT_EQ(threads.count(caller), 0u);
    EXPECT_GE(threads.size(), 1u);
}

TEST(Engine, RethrowsLowestIndexFailureAfterJoiningEveryThread)
{
    std::vector<Experiment> points =
        exec::expand_sweep(engine_spec());
    ASSERT_EQ(points.size(), 5u);
    ExecOptions eo;
    eo.jobs = 4;
    Engine engine(eo);

    // Points 1 and 3 throw from their progress callback. Point 1
    // throws last (after a sleep), so an engine that rethrew the
    // first failure to arrive, or rethrew before joining, would
    // surface point 3's exception.
    std::atomic<int> inside{0};
    auto progress = [&](const Experiment &ex) {
        struct Inside
        {
            std::atomic<int> &n;
            explicit Inside(std::atomic<int> &c) : n(c) { ++n; }
            ~Inside() { --n; }
        } guard(inside);
        if (ex.label() == points[1].label()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            throw std::runtime_error("point 1");
        }
        if (ex.label() == points[3].label())
            throw std::runtime_error("point 3");
    };
    try {
        engine.run_all(points, progress);
        FAIL() << "expected run_all to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "point 1");
    }
    // Every callback had returned (or thrown) before run_all did.
    EXPECT_EQ(inside.load(), 0);

    // The engine holds no broken state: the next run succeeds.
    std::vector<SimResult> again = engine.run_all(points);
    ASSERT_EQ(again.size(), points.size());
    Engine serial(ExecOptions{});
    EXPECT_EQ(blobs_of(again), blobs_of(serial.run_all(points)));
}

TEST(Engine, WarmCacheServesEveryPointWithoutSimulating)
{
    std::string dir = scratch_dir("engine_warm");
    std::vector<Experiment> points =
        exec::expand_sweep(engine_spec());

    ExecOptions eo;
    eo.jobs = 2;
    eo.cache_enabled = true;
    eo.cache_dir = dir;

    Engine cold(eo);
    std::vector<SimResult> first = cold.run_all(points);
    exec::ExecStats cs = cold.stats();
    EXPECT_EQ(cs.points_run, points.size());
    EXPECT_EQ(cs.points_cached, 0u);
    EXPECT_EQ(cs.cache.stores, points.size());

    Engine warm(eo);
    std::vector<SimResult> second = warm.run_all(points);
    exec::ExecStats ws = warm.stats();
    EXPECT_EQ(ws.points_run, 0u);
    EXPECT_EQ(ws.points_cached, points.size());
    EXPECT_EQ(ws.cache.hits, points.size());

    // Cache hits are indistinguishable from re-simulation.
    EXPECT_EQ(blobs_of(second), blobs_of(first));
    EXPECT_EQ(report_of(second), report_of(first));
}

TEST(Engine, CacheMissesWhenSeedChanges)
{
    std::string dir = scratch_dir("engine_seed");
    Experiment ex;
    ex.app = "modula3";
    ex.scale = 0.1;

    ExecOptions eo;
    eo.cache_enabled = true;
    eo.cache_dir = dir;
    Engine engine(eo);

    engine.run(ex); // miss + store
    engine.run(ex); // hit
    Experiment other = ex;
    other.seed = 99;
    engine.run(other); // different key: miss, simulate again

    exec::ExecStats s = engine.stats();
    EXPECT_EQ(s.points_run, 2u);
    EXPECT_EQ(s.points_cached, 1u);
    EXPECT_EQ(s.cache.stores, 2u);
}

TEST(Engine, ObservedRunsBypassTheCache)
{
    std::string dir = scratch_dir("engine_observed");
    Experiment ex;
    ex.app = "modula3";
    ex.scale = 0.1;

    ExecOptions eo;
    eo.cache_enabled = true;
    eo.cache_dir = dir;
    Engine engine(eo);
    engine.run(ex); // populates the cache for the plain config

    // Attach an observer: the cached result cannot replay its side
    // effects, so the engine must simulate — and must not store.
    TimelineRecorder recorder;
    Experiment observed = ex;
    observed.base.timeline = &recorder;
    engine.run(observed);
    EXPECT_FALSE(recorder.entries().empty());

    exec::ExecStats s = engine.stats();
    EXPECT_EQ(s.points_run, 2u);
    EXPECT_EQ(s.points_cached, 0u);
    EXPECT_EQ(s.cache.stores, 1u);
}

TEST(Engine, BoundedCacheEvictsAndReportsTheMetric)
{
    std::string dir = scratch_dir("engine_evict");
    std::vector<Experiment> points =
        exec::expand_sweep(engine_spec());

    ExecOptions eo;
    eo.jobs = 1;
    eo.cache_enabled = true;
    eo.cache_dir = dir;
    eo.cache_max_bytes = 1; // smaller than any blob: evict everything
    Engine engine(eo);
    engine.run_all(points);

    exec::ExecStats s = engine.stats();
    EXPECT_EQ(s.cache.stores, points.size());
    EXPECT_GE(s.cache.evictions, points.size());
    EXPECT_LE(blob_bytes(dir), eo.cache_max_bytes);

    bool found = false;
    for (const auto &m : engine.metrics_snapshot()) {
        if (m.name == "exec.cache_evictions") {
            found = true;
            EXPECT_GE(m.value, static_cast<double>(points.size()));
        }
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace sgms
