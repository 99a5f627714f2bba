#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench
{

int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
SpanLog::open(const std::string &name, int point)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.point = point;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    int64_t t = now_ns();
    while (!stack_.empty()) {
        int top = stack_.back();
        stack_.pop_back();
        spans_[top].end_ns = t;
        if (top == id)
            break;
    }
}

int
SpanLog::add(const Span &s)
{
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<int64_t>
SpanLog::self_ns() const
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.start_ns, s.end_ns);

    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Length of the union of the children, clipped to the parent.
        int64_t covered = 0;
        int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start_ns);
            hi = std::min(hi, s.end_ns);
            if (hi <= lo)
                continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

std::vector<LayerRow>
SpanLog::table() const
{
    std::vector<int64_t> self = self_ns();
    std::vector<LayerRow> rows;
    std::map<std::string, size_t> index;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto [it, fresh] = index.emplace(s.name, rows.size());
        if (fresh)
            rows.push_back(LayerRow{s.name, 0, 0, 0});
        LayerRow &r = rows[it->second];
        ++r.count;
        r.total_ns += s.end_ns - s.start_ns;
        r.self_ns += self[i];
    }
    return rows;
}

int64_t
SpanLog::total_ns(const std::string &name) const
{
    int64_t t = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            t += s.end_ns - s.start_ns;
    return t;
}

bool
SpanLog::write_chrome_json(const std::string &path,
                           const std::string &meta) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span &s : spans_)
        t0 = std::min(t0, s.start_ns);
    std::fprintf(f, "{\"perfbench\": %s,\n\"traceEvents\": [\n",
                 meta.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Span names are the benchmark's own identifiers; no escaping
        // is needed.
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"point\":%d}}%s\n",
                     s.name.c_str(), (s.start_ns - t0) / 1e3,
                     (s.end_ns - s.start_ns) / 1e3, i, s.parent, s.point,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    bool ok = !std::ferror(f);
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
