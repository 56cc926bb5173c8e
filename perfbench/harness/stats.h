#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <vector>

namespace perfbench {

/**
 * The `q`-quantile (0 <= q <= 1) of `samples` by linear interpolation
 * between the closest ranks (rank q*(n-1), numpy's default). 0 for an
 * empty sample.
 */
double Percentile(std::vector<double> samples, double q);

/** Geometric mean of positive samples; 0 for an empty sample. */
double Geomean(const std::vector<double>& samples);

/** Number of samples strictly above the `q`-quantile. */
int SamplesBeyond(const std::vector<double>& samples, double q);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
