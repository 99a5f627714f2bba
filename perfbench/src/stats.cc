#include "stats.h"

#include <algorithm>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Quartiles
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {};
    if (v.size() == 1)
        return {v[0], v[0], v[0]};
    std::sort(v.begin(), v.end());
    // statistics.quantiles(method="exclusive"): m = n + 1, cut i at
    // position i*m/4 (1-based), interpolating between neighbours.
    long n = static_cast<long>(v.size());
    long m = n + 1;
    double q[3];
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, n - 1);
        long delta = i * m - j * 4;
        q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    }
    return {q[0], q[1], q[2]};
}

double
relative_iqr(const std::vector<double> &v)
{
    Quartiles q = quartiles(v);
    return q.q2 != 0 ? (q.q3 - q.q1) / q.q2 : 0;
}

} // namespace perfbench
