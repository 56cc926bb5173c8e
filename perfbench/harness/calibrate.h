#ifndef PERFBENCH_HARNESS_CALIBRATE_H_
#define PERFBENCH_HARNESS_CALIBRATE_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/**
 * Runs a fixed, self-contained CPU kernel (sorting, hashing, a
 * floating-point loop, ordered containers and strings, and tables
 * larger than L2; none of it the system's code) and returns its wall
 * seconds. Its input never changes, so how long it takes measures
 * how fast the host is running at that moment.
 */
double CalibrationSeconds();

/**
 * Rescales host seconds to a reference host speed. The host's speed is
 * probed with the calibration kernel at least every kIntervalSeconds,
 * between items; every sample taken since the previous probe is scaled
 * by kReferenceSeconds over the mean of the two probes around it. A
 * shared host that slows down for a while slows the kernel too, so the
 * scaled samples move far less than the raw ones.
 */
class SpeedNormalizer {
  public:
    /// The kernel's time on the reference host; the scaled samples are
    /// host seconds on a host where the kernel takes this long.
    static constexpr double kReferenceSeconds = 20.0e-3;
    static constexpr double kIntervalSeconds = 0.25;

    SpeedNormalizer();

    /** Queues `raw` seconds; its scaled value is appended to `out`. */
    void Add(double raw, std::vector<double>* out);

    /** Probes now and scales everything queued. */
    void Flush();

    /** Mean scale factor applied so far (1 when nothing was scaled). */
    double mean_factor() const;

  private:
    static double Probe();

    double last_probe_;
    double last_time_;
    std::vector<std::pair<double, std::vector<double>*>> pending_;
    double factor_sum_ = 0.0;
    int64_t factors_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CALIBRATE_H_
