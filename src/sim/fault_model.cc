#include "sim/fault_model.h"

#include <algorithm>

#include "support/status.h"

namespace overlap {
namespace {

/// Domain-separation tags so link / chip / jitter / retry streams drawn
/// from one seed are independent.
constexpr uint64_t kLinkTag = 0x11;
constexpr uint64_t kChipTag = 0x22;
constexpr uint64_t kLinkJitterTag = 0x33;
constexpr uint64_t kChipJitterTag = 0x44;
constexpr uint64_t kRetryTag = 0x55;
constexpr uint64_t kBackoffTag = 0x66;

/** splitmix64 finalizer: high-quality 64-bit mixing. */
uint64_t
Mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** The hash of a stream before any argument is folded in. */
uint64_t
StreamBase(uint64_t seed, uint64_t tag)
{
    return Mix64(seed ^ Mix64(tag));
}

/** One round of Hash: folds `value` into the running hash `h`. */
uint64_t
Fold(uint64_t h, uint64_t value)
{
    return Mix64(h ^ Mix64(value));
}

uint64_t
Hash(uint64_t seed, uint64_t tag, uint64_t a, uint64_t b = 0,
     uint64_t c = 0)
{
    return Fold(Fold(Fold(StreamBase(seed, tag), a), b), c);
}

/** Uniform double in [0, 1) from a hash. */
double
UnitUniform(uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** Persistent bandwidth and latency factor of one directed link. */
struct LinkFactors {
    double bandwidth = 1.0;
    double latency = 1.0;
};

LinkFactors
PersistentLinkFactors(const FaultSpec& spec, int64_t src, int64_t dst)
{
    LinkFactors factors;
    for (const LinkFault& fault : spec.link_faults) {
        if (fault.src == src && fault.dst == dst) {
            factors.bandwidth *= fault.bandwidth_factor;
            factors.latency *= fault.latency_factor;
        }
    }
    if (spec.link_degrade_probability > 0.0 &&
        UnitUniform(Hash(spec.seed, kLinkTag, static_cast<uint64_t>(src),
                         static_cast<uint64_t>(dst))) <
            spec.link_degrade_probability) {
        factors.bandwidth *= spec.link_degrade_factor;
        factors.latency *= spec.link_degrade_latency_factor;
    }
    return factors;
}

}  // namespace

double
RetryPolicy::BackoffSeconds(int64_t attempt, double u) const
{
    double wait = backoff_base_seconds;
    for (int64_t k = 0; k < attempt; ++k) wait *= backoff_multiplier;
    wait = std::min(wait, backoff_cap_seconds);
    if (backoff_jitter > 0.0) wait *= 1.0 + backoff_jitter * u;
    return wait;
}

FaultModel::FaultModel(FaultSpec spec) : spec_(std::move(spec))
{
    OVERLAP_CHECK(spec_.link_degrade_probability >= 0.0 &&
                  spec_.link_degrade_probability <= 1.0);
    OVERLAP_CHECK(spec_.straggler_probability >= 0.0 &&
                  spec_.straggler_probability <= 1.0);
    // 1.0 is allowed: every attempt fails, the transfer exhausts its
    // retry budget and escalates to a watchdog FailureReport — the
    // dead-transfers configuration engine_hang_test races on purpose.
    OVERLAP_CHECK(spec_.transient_failure_probability >= 0.0 &&
                  spec_.transient_failure_probability <= 1.0);
    OVERLAP_CHECK(spec_.link_jitter >= 0.0 && spec_.link_jitter < 1.0);
    OVERLAP_CHECK(spec_.compute_jitter >= 0.0 &&
                  spec_.compute_jitter < 1.0);
    OVERLAP_CHECK(spec_.retry.max_transfer_retries >= 0);
    OVERLAP_CHECK(spec_.retry.backoff_base_seconds >= 0.0);
    OVERLAP_CHECK(spec_.retry.backoff_multiplier >= 1.0);
    OVERLAP_CHECK(spec_.retry.backoff_cap_seconds >=
                  spec_.retry.backoff_base_seconds);
    OVERLAP_CHECK(spec_.retry.backoff_jitter >= 0.0);
    OVERLAP_CHECK(spec_.watchdog_timeout_seconds > 0.0);
    for (const PermanentFault& fault : spec_.permanent_faults) {
        OVERLAP_CHECK(fault.IsChip() ||
                      (fault.link_src >= 0 && fault.link_dst >= 0));
        OVERLAP_CHECK(fault.fail_step >= 0);
        OVERLAP_CHECK(fault.fail_time_seconds >= 0.0);
    }
    for (const SilentCorruption& corruption : spec_.silent_corruptions) {
        OVERLAP_CHECK(corruption.step >= 0);
        OVERLAP_CHECK(corruption.chip >= 0);
        OVERLAP_CHECK(corruption.instruction >= 0);
        OVERLAP_CHECK(corruption.element >= 0);
        OVERLAP_CHECK(corruption.bit >= 0 && corruption.bit < 32);
        OVERLAP_CHECK(corruption.kind != CorruptionKind::kValuePerturbation ||
                      corruption.magnitude != 0.0);
    }
    OVERLAP_CHECK(spec_.sdc.einsum_check_cadence >= 1);
    OVERLAP_CHECK(spec_.sdc.abft_relative_tolerance > 0.0);
    auto healthy_link = [](const LinkFault& f) {
        return f.bandwidth_factor == 1.0 && f.latency_factor == 1.0;
    };
    auto healthy_chip = [](const ChipFault& f) {
        return f.compute_factor == 1.0;
    };
    fault_free_ =
        std::all_of(spec_.link_faults.begin(), spec_.link_faults.end(),
                    healthy_link) &&
        std::all_of(spec_.chip_faults.begin(), spec_.chip_faults.end(),
                    healthy_chip) &&
        spec_.link_degrade_probability == 0.0 &&
        spec_.straggler_probability == 0.0 && spec_.link_jitter == 0.0 &&
        spec_.compute_jitter == 0.0 &&
        spec_.transient_failure_probability == 0.0 &&
        spec_.permanent_faults.empty() &&
        spec_.silent_corruptions.empty();
}

double
FaultModel::LinkBandwidthFactor(int64_t src, int64_t dst) const
{
    if (fault_free_) return 1.0;
    return PersistentLinkFactors(spec_, src, dst).bandwidth;
}

double
FaultModel::LinkLatencyFactor(int64_t src, int64_t dst) const
{
    if (fault_free_) return 1.0;
    return PersistentLinkFactors(spec_, src, dst).latency;
}

double
FaultModel::ChipComputeFactor(int64_t chip) const
{
    if (fault_free_) return 1.0;
    double factor = 1.0;
    for (const ChipFault& fault : spec_.chip_faults) {
        if (fault.chip == chip) factor *= fault.compute_factor;
    }
    if (spec_.straggler_probability > 0.0 &&
        UnitUniform(Hash(spec_.seed, kChipTag,
                         static_cast<uint64_t>(chip))) <
            spec_.straggler_probability) {
        factor *= spec_.straggler_factor;
    }
    return factor;
}

double
FaultModel::TrialLinkFactor(int64_t src, int64_t dst, int64_t trial) const
{
    double factor = LinkBandwidthFactor(src, dst);
    if (spec_.link_jitter > 0.0) {
        factor *= 1.0 - spec_.link_jitter *
                            UnitUniform(Hash(
                                spec_.seed, kLinkJitterTag,
                                static_cast<uint64_t>(src),
                                static_cast<uint64_t>(dst),
                                static_cast<uint64_t>(trial)));
    }
    return factor;
}

double
FaultModel::TrialChipFactor(int64_t chip, int64_t trial) const
{
    double factor = ChipComputeFactor(chip);
    if (spec_.compute_jitter > 0.0) {
        factor *= 1.0 - spec_.compute_jitter *
                            UnitUniform(Hash(
                                spec_.seed, kChipJitterTag,
                                static_cast<uint64_t>(chip),
                                static_cast<uint64_t>(trial)));
    }
    return factor;
}

RingFaultTable::RingFaultTable(const FaultModel& fault, const Mesh& mesh)
    : channel_bandwidth_(static_cast<size_t>(mesh.num_axes()) * 2, 1.0),
      channel_latency_(channel_bandwidth_.size(), 1.0)
{
    if (fault.fault_free()) return;
    const FaultSpec& spec = fault.spec();
    link_jitter_ = spec.link_jitter;
    compute_jitter_ = spec.compute_jitter;
    const uint64_t link_base = StreamBase(spec.seed, kLinkJitterTag);
    if (link_jitter_ > 0.0) channel_links_.resize(channel_bandwidth_.size());
    for (int64_t axis = 0; axis < mesh.num_axes(); ++axis) {
        DeviceGroups ring = mesh.AxisGroups(axis);
        if (ring.size == 1) continue;  // an axis of size 1 has no links
        for (int64_t src = 0; src < mesh.num_devices(); ++src) {
            int64_t pos = ring.Position(src);
            for (int64_t dir = 0; dir < 2; ++dir) {
                // Direction 0 steps one ring position down, 1 one up.
                int64_t dst = ring.Member(
                    src, (pos + (dir == 0 ? ring.size - 1 : 1)) % ring.size);
                size_t c = static_cast<size_t>(axis * 2 + dir);
                LinkFactors link = PersistentLinkFactors(spec, src, dst);
                channel_bandwidth_[c] =
                    std::min(channel_bandwidth_[c], link.bandwidth);
                channel_latency_[c] =
                    std::max(channel_latency_[c], link.latency);
                if (link_jitter_ > 0.0) {
                    channel_links_[c].push_back(
                        {link.bandwidth,
                         Fold(Fold(link_base, static_cast<uint64_t>(src)),
                              static_cast<uint64_t>(dst))});
                }
            }
        }
    }
    const uint64_t chip_base = StreamBase(spec.seed, kChipJitterTag);
    for (int64_t chip = 0; chip < mesh.num_devices(); ++chip) {
        double factor = fault.ChipComputeFactor(chip);
        compute_ = std::min(compute_, factor);
        if (compute_jitter_ > 0.0) {
            chips_.push_back(
                {factor, Fold(chip_base, static_cast<uint64_t>(chip))});
        }
    }
}

TrialRingFactors
RingFaultTable::Trial(int64_t trial) const
{
    TrialRingFactors factors;
    factors.channel_bandwidth = channel_bandwidth_;
    factors.compute = compute_;
    // The last Hash rounds of FaultModel::TrialLinkFactor and
    // TrialChipFactor, on the stored prefixes.
    const uint64_t mixed_trial = Mix64(static_cast<uint64_t>(trial));
    if (link_jitter_ > 0.0) {
        for (size_t c = 0; c < channel_links_.size(); ++c) {
            double worst = 1.0;
            for (const Jittered& link : channel_links_[c]) {
                worst = std::min(
                    worst, link.persistent *
                               (1.0 - link_jitter_ *
                                          UnitUniform(Mix64(
                                              link.prefix ^ mixed_trial))));
            }
            factors.channel_bandwidth[c] = worst;
        }
    }
    if (compute_jitter_ > 0.0) {
        const uint64_t mixed_zero = Mix64(0);
        double worst = 1.0;
        for (const Jittered& chip : chips_) {
            worst = std::min(
                worst,
                chip.persistent *
                    (1.0 - compute_jitter_ *
                               UnitUniform(Mix64(
                                   Mix64(chip.prefix ^ mixed_trial) ^
                                   mixed_zero))));
        }
        factors.compute = worst;
    }
    return factors;
}

TransferOutcome
FaultModel::TransferOutcomeOf(int64_t transfer_index, int64_t trial) const
{
    TransferOutcome outcome;
    if (spec_.transient_failure_probability <= 0.0) return outcome;
    // Attempt k (k = 0 .. max_transfer_retries) fails independently;
    // each failed attempt waits RetryPolicy::BackoffSeconds before the
    // re-send. Failing the final allowed attempt exhausts the transfer.
    for (int64_t attempt = 0;
         attempt <= spec_.retry.max_transfer_retries; ++attempt) {
        if (UnitUniform(Hash(spec_.seed, kRetryTag,
                             static_cast<uint64_t>(transfer_index),
                             static_cast<uint64_t>(trial),
                             static_cast<uint64_t>(attempt))) >=
            spec_.transient_failure_probability) {
            return outcome;  // this attempt went through
        }
        ++outcome.failures;
        outcome.backoff_seconds += spec_.retry.BackoffSeconds(
            attempt, UnitUniform(Hash(
                         spec_.seed, kBackoffTag,
                         static_cast<uint64_t>(transfer_index),
                         static_cast<uint64_t>(trial),
                         static_cast<uint64_t>(attempt))));
    }
    outcome.exhausted = true;
    return outcome;
}

std::vector<SilentCorruption>
FaultModel::ActiveCorruptions(int64_t step) const
{
    std::vector<SilentCorruption> active;
    for (const SilentCorruption& corruption : spec_.silent_corruptions) {
        if (corruption.step <= step) active.push_back(corruption);
    }
    return active;
}

const PermanentFault*
FaultModel::ActivePermanentFault(int64_t step) const
{
    const PermanentFault* earliest = nullptr;
    for (const PermanentFault& fault : spec_.permanent_faults) {
        if (fault.fail_step > step) continue;
        if (earliest == nullptr ||
            fault.fail_step < earliest->fail_step ||
            (fault.fail_step == earliest->fail_step &&
             fault.fail_time_seconds < earliest->fail_time_seconds)) {
            earliest = &fault;
        }
    }
    return earliest;
}

}  // namespace overlap
