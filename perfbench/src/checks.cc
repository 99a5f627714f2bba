#include "checks.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <streambuf>

#include "exec/result_codec.h"

namespace perfbench
{

namespace
{

constexpr uint64_t kFnvBasis = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

/**
 * A stream buffer that FNV-1a-hashes what is written to it and keeps
 * only a small window, so a digest never holds a whole blob: the
 * checker must not add to the peak memory the benchmark reports.
 */
class HashingBuf : public std::streambuf
{
  public:
    HashingBuf() { setp(buf_, buf_ + sizeof buf_); }

    uint64_t
    digest()
    {
        drain();
        return hash_;
    }

  protected:
    int_type
    overflow(int_type c) override
    {
        drain();
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(c);
            pbump(1);
        }
        return traits_type::not_eof(c);
    }

  private:
    void
    drain()
    {
        for (const char *p = pbase(); p < pptr(); ++p) {
            hash_ ^= static_cast<unsigned char>(*p);
            hash_ *= kFnvPrime;
        }
        setp(buf_, buf_ + sizeof buf_);
    }

    char buf_[4096];
    uint64_t hash_ = kFnvBasis;
};

} // namespace

uint64_t
blob_digest(const sgms::SimResult &r)
{
    HashingBuf buf;
    std::ostream os(&buf);
    sgms::exec::write_result_blob(os, r);
    return buf.digest();
}

uint64_t
combine_digests(const std::vector<uint64_t> &blob_digests)
{
    uint64_t h = kFnvBasis;
    for (uint64_t d : blob_digests) {
        for (int i = 0; i < 8; ++i) {
            h ^= (d >> (8 * i)) & 0xff;
            h *= kFnvPrime;
        }
    }
    return h;
}

std::string
digest_hex(uint64_t digest)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, digest);
    return buf;
}

bool
is_degraded(const sgms::SimResult &r)
{
    for (const auto &m : r.metrics)
        if (m.name == "exec.degraded" && m.value != 0)
            return true;
    return false;
}

std::string
check_result(const sgms::SimResult &r, uint64_t expected_refs,
             uint32_t clients)
{
    char buf[256];
    if (is_degraded(r))
        return "degraded point (exec.degraded)";
    sgms::Tick parts = r.exec_time + r.sp_latency + r.page_wait +
                       r.recv_overhead + r.emulation_overhead +
                       r.tlb_overhead;
    bool ok = clients <= 1
                  ? parts == r.runtime
                  : parts >= r.runtime &&
                        parts / static_cast<sgms::Tick>(clients) <=
                            r.runtime;
    if (!ok) {
        std::snprintf(buf, sizeof buf,
                      "time partition: runtime %" PRId64
                      " vs sum of components %" PRId64 " over %u clients",
                      r.runtime, parts, clients);
        return buf;
    }
    if (r.refs != expected_refs) {
        std::snprintf(buf, sizeof buf,
                      "refs %" PRIu64 " != drained trace length x "
                      "clients %" PRIu64,
                      r.refs, expected_refs);
        return buf;
    }
    return "";
}

} // namespace perfbench
