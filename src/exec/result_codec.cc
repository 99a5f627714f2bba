#include "exec/result_codec.h"

#include <cstring>
#include <type_traits>
#include <vector>

#include "trace/binfmt.h"

namespace sgms::exec
{

namespace
{

constexpr char kMagic[4] = {'S', 'G', 'M', 'R'};
constexpr uint32_t kEndianTag = 0x01020304;

// Header field offsets (see result_codec.h layout table).
constexpr size_t kOffSchema = 4;
constexpr size_t kOffEndian = 8;
constexpr size_t kOffLength = 12;
constexpr size_t kOffHash = 20;
constexpr size_t kHeaderBytes = 28;

// Smallest encoding of one element of each counted section, used to
// bound a count by the bytes that remain before allocating for it.
constexpr size_t kFaultBytes = 5 * sizeof(uint64_t) + 1;
constexpr size_t kPointBytes = 2 * sizeof(double);
constexpr size_t kBinBytes = sizeof(int64_t) + sizeof(uint64_t);
constexpr size_t kMetricMinBytes =
    sizeof(uint64_t) + 1 + 5 * sizeof(uint64_t);

static_assert(sizeof(size_t) == sizeof(uint64_t),
              "mem_pages is stored as 8 bytes");

using Bins = std::vector<std::pair<int64_t, uint64_t>>;

/** Appends fields to a blob; the writing half of codec() below. */
class Writer
{
  public:
    explicit Writer(std::string &out) : out_(out) {}

    template <typename T>
    void
    field(const T &v)
    {
        static_assert(std::is_arithmetic_v<T>);
        char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        out_.append(b, sizeof(T));
    }

    void flag(bool v) { field<uint8_t>(v ? 1 : 0); }

    void
    kind(obs::MetricKind k)
    {
        field(static_cast<uint8_t>(k));
    }

    void
    string(const std::string &s)
    {
        field<uint64_t>(s.size());
        out_.append(s);
    }

    template <typename T>
    void
    count(const std::vector<T> &v, size_t)
    {
        field<uint64_t>(v.size());
    }

  private:
    std::string &out_;
};

/**
 * Decodes fields from a blob; the reading half of codec() below. The
 * first short read or malformed field fails the reader for good: it
 * then consumes nothing and reads zeros and empty sections, so a
 * damaged blob can neither overrun its bytes nor allocate for a count
 * its bytes cannot hold.
 */
class Reader
{
  public:
    Reader(const char *p, size_t n) : p_(p), left_(n) {}

    template <typename T>
    void
    field(T &v)
    {
        static_assert(std::is_arithmetic_v<T>);
        v = T();
        if (left_ < sizeof(T))
            return fail();
        std::memcpy(&v, p_, sizeof(T));
        p_ += sizeof(T);
        left_ -= sizeof(T);
    }

    void
    flag(bool &v)
    {
        uint8_t b;
        field(b);
        if (b > 1)
            fail();
        v = b == 1;
    }

    void
    kind(obs::MetricKind &k)
    {
        uint8_t b;
        field(b);
        if (b > static_cast<uint8_t>(obs::MetricKind::Distribution))
            fail();
        k = static_cast<obs::MetricKind>(b);
    }

    void
    string(std::string &s)
    {
        uint64_t n;
        field(n);
        if (n > left_)
            return fail();
        s.assign(p_, n);
        p_ += n;
        left_ -= n;
    }

    /** Read a count of elements each at least @p min_bytes long. */
    template <typename T>
    void
    count(std::vector<T> &v, size_t min_bytes)
    {
        uint64_t n;
        field(n);
        if (n > left_ / min_bytes)
            return fail();
        v.resize(n);
    }

    /** True when every field decoded and no byte is left over. */
    bool ok() const { return ok_ && left_ == 0; }

  private:
    void
    fail()
    {
        ok_ = false;
        left_ = 0;
    }

    const char *p_;
    size_t left_;
    bool ok_ = true;
};

/**
 * The payload layout, written once for both directions: with a
 * Writer @p r is const and every field is appended; with a Reader
 * every field is decoded into @p r. The histogram, which has no
 * vector to fill in place, goes through @p bins.
 */
template <typename IO, typename R>
void
codec(IO &io, R &r, Bins &bins)
{
    io.field(r.page_size);
    io.field(r.subpage_size);
    io.field(r.mem_pages);

    io.field(r.refs);
    io.field(r.page_faults);
    io.field(r.lazy_subpage_faults);
    io.field(r.evictions);
    io.field(r.putpages);
    io.field(r.emulated_accesses);

    io.field(r.runtime);
    io.field(r.exec_time);
    io.field(r.sp_latency);
    io.field(r.page_wait);
    io.field(r.recv_overhead);
    io.field(r.emulation_overhead);
    io.field(r.tlb_overhead);
    io.field(r.io_overlap);
    io.field(r.comp_overlap);

    io.field(r.net_stats.messages);
    io.field(r.net_stats.bytes);
    for (size_t k = 0; k < kMsgKindCount; ++k)
        io.field(r.net_stats.messages_by_kind[k]);
    for (size_t k = 0; k < kMsgKindCount; ++k)
        io.field(r.net_stats.bytes_by_kind[k]);
    io.field(r.net_stats.dropped);
    io.field(r.net_stats.corrupted);
    io.field(r.net_stats.duplicated);

    io.field(r.tlb_stats.hits);
    io.field(r.tlb_stats.misses);
    io.field(r.global_discards);

    io.field(r.retries);
    io.field(r.timeouts);
    io.field(r.degraded_fetches);
    io.field(r.duplicate_deliveries);
    io.field(r.server_failures);

    io.field(r.requester_wire_busy);
    io.field(r.requester_dma_busy);
    io.field(r.requester_cpu_busy);

    io.string(r.app);
    io.string(r.policy);

    io.count(r.faults, kFaultBytes);
    for (auto &f : r.faults)
        io.field(f.page);
    for (auto &f : r.faults)
        io.field(f.ref_index);
    for (auto &f : r.faults)
        io.field(f.at);
    for (auto &f : r.faults)
        io.field(f.sp_wait);
    for (auto &f : r.faults)
        io.field(f.page_wait);
    for (auto &f : r.faults)
        io.flag(f.from_disk);

    io.string(r.clustering.name);
    io.count(r.clustering.points, kPointBytes);
    for (auto &p : r.clustering.points)
        io.field(p.first);
    for (auto &p : r.clustering.points)
        io.field(p.second);

    io.count(bins, kBinBytes);
    for (auto &b : bins)
        io.field(b.first);
    for (auto &b : bins)
        io.field(b.second);

    io.count(r.metrics, kMetricMinBytes);
    for (auto &m : r.metrics) {
        io.string(m.name);
        io.kind(m.kind);
        io.field(m.value);
        io.field(m.count);
        io.field(m.mean);
        io.field(m.min);
        io.field(m.max);
    }
}

template <typename T>
void
put_at(std::string &blob, size_t off, T v)
{
    std::memcpy(blob.data() + off, &v, sizeof(T));
}

template <typename T>
T
get_at(const std::string &blob, size_t off)
{
    T v;
    std::memcpy(&v, blob.data() + off, sizeof(T));
    return v;
}

} // namespace

std::string
result_blob(const SimResult &r)
{
    Bins bins = r.next_subpage_distance.bins();
    std::string blob;
    // Room for the usual blob; long names only cost a regrowth.
    blob.reserve(kHeaderBytes + 1024 + r.faults.size() * kFaultBytes +
                 r.clustering.points.size() * kPointBytes +
                 bins.size() * kBinBytes + r.metrics.size() * 96);
    blob.resize(kHeaderBytes);
    Writer w(blob);
    codec(w, r, bins);

    uint64_t len = blob.size() - kHeaderBytes;
    std::memcpy(blob.data(), kMagic, sizeof(kMagic));
    put_at<uint32_t>(blob, kOffSchema, kResultBlobSchema);
    put_at<uint32_t>(blob, kOffEndian, kEndianTag);
    put_at<uint64_t>(blob, kOffLength, len);
    put_at<uint64_t>(blob, kOffHash,
                     fnv1a_bytes(blob.data() + kHeaderBytes, len));
    return blob;
}

void
write_result_blob(std::ostream &os, const SimResult &r)
{
    std::string blob = result_blob(r);
    os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

bool
read_result_blob(const std::string &blob, SimResult &out)
{
    out = SimResult();
    if (blob.size() < kHeaderBytes ||
        std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0 ||
        get_at<uint32_t>(blob, kOffSchema) != kResultBlobSchema ||
        get_at<uint32_t>(blob, kOffEndian) != kEndianTag) {
        return false;
    }
    uint64_t len = blob.size() - kHeaderBytes;
    if (get_at<uint64_t>(blob, kOffLength) != len ||
        get_at<uint64_t>(blob, kOffHash) !=
            fnv1a_bytes(blob.data() + kHeaderBytes, len)) {
        return false;
    }

    SimResult r;
    Bins bins;
    Reader rd(blob.data() + kHeaderBytes, len);
    codec(rd, r, bins);
    if (!rd.ok())
        return false;
    // The writer emits bins in strictly increasing key order; any
    // other order would merge keys and not re-encode to these bytes.
    for (size_t i = 0; i < bins.size(); ++i) {
        if (i > 0 && bins[i].first <= bins[i - 1].first)
            return false;
        r.next_subpage_distance.add(bins[i].first, bins[i].second);
    }
    out = std::move(r);
    return true;
}

} // namespace sgms::exec
