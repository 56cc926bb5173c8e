#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
Percentile(std::vector<double> samples, double q)
{
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    double rank = q * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
Geomean(const std::vector<double>& samples)
{
    if (samples.empty()) return 0.0;
    double log_sum = 0.0;
    for (double s : samples) log_sum += std::log(s);
    return std::exp(log_sum / static_cast<double>(samples.size()));
}

int
SamplesBeyond(const std::vector<double>& samples, double q)
{
    double cut = Percentile(samples, q);
    return static_cast<int>(std::count_if(
        samples.begin(), samples.end(), [cut](double s) { return s > cut; }));
}

}  // namespace perfbench
