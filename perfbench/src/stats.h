/**
 * @file
 * Order statistics for the benchmark's repeated measurements.
 *
 * quartiles() follows Python's statistics.quantiles(data, n=4)
 * (the "exclusive" method), so the spread the benchmark reports is
 * the same number a reader computes from its per-run values.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <vector>

namespace perfbench
{

/** Median of @p v (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** First, second and third quartile of a sample. */
struct Quartiles
{
    double q1 = 0;
    double q2 = 0;
    double q3 = 0;
};

/**
 * Quartiles by Python's exclusive method. Needs at least two values;
 * a single value is returned as all three quartiles.
 */
Quartiles quartiles(std::vector<double> v);

/** (q3 - q1) / median, the run-to-run spread; 0 when the median is 0. */
double relative_iqr(const std::vector<double> &v);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
