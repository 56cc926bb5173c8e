#ifndef OVERLAP_SIM_FAULT_MODEL_H_
#define OVERLAP_SIM_FAULT_MODEL_H_

#include <cstdint>
#include <vector>

#include "tensor/checksum.h"
#include "tensor/mesh.h"

namespace overlap {

/** A persistent degradation of one directed ICI link (src -> dst). */
struct LinkFault {
    int64_t src = -1;
    int64_t dst = -1;
    /// Effective bandwidth = link_bandwidth * bandwidth_factor (0 < f <= 1).
    double bandwidth_factor = 1.0;
    /// Effective per-hop latency = link_latency * latency_factor (>= 1).
    double latency_factor = 1.0;
};

/** A persistent compute-throughput straggler on one chip. */
struct ChipFault {
    int64_t chip = -1;
    /// Effective FLOPS / HBM bandwidth = peak * compute_factor (0 < f <= 1).
    double compute_factor = 1.0;
};

/**
 * A permanent, unrecoverable failure: a chip or a directed ICI link dies
 * at a deterministic point of a multi-step run and never comes back.
 * Unlike the degradation faults above, a permanent failure cannot be
 * survived in place — the simulator's watchdog turns it into a
 * FailureReport and the recovery runtime replans onto the survivor mesh
 * (DESIGN.md §11).
 */
struct PermanentFault {
    /// Dead chip id, or -1 when this is a link failure.
    int64_t chip = -1;
    /// Dead directed link (src -> dst), used when chip < 0.
    int64_t link_src = -1;
    int64_t link_dst = -1;
    /// Step index at which the failure manifests (steps before this one
    /// are unaffected; later steps see the entity dead from time 0).
    int64_t fail_step = 0;
    /// Within-step simulated time of the death for `fail_step` itself,
    /// so a failure can land in the prologue, steady state or epilogue
    /// of a decomposed loop.
    double fail_time_seconds = 0.0;

    bool IsChip() const { return chip >= 0; }
};

/**
 * The single retry/backoff policy shared by every layer that retries a
 * failed transfer (the fault model's transient-failure machinery, the
 * engine's per-transfer accounting and the service runtime's SLO math):
 * attempt k (k = 0, 1, ...) that fails waits
 *
 *     min(base * multiplier^k, cap) * (1 + jitter * u)
 *
 * before the re-send, with u drawn uniformly in [0, 1) as a pure hash
 * of (seed, transfer, trial, attempt). Failing every allowed attempt
 * (`max_transfer_retries` re-sends) exhausts the transfer, which the
 * engine escalates to the permanent-failure watchdog path.
 */
struct RetryPolicy {
    /// Re-sends allowed after the first failed attempt.
    int64_t max_transfer_retries = 3;
    double backoff_base_seconds = 25e-6;
    double backoff_multiplier = 2.0;
    double backoff_cap_seconds = 200e-6;
    /// Multiplicative jitter amplitude on each wait, >= 0.
    double backoff_jitter = 0.25;

    /**
     * The deterministic wait before the re-send of failed attempt
     * `attempt` (0-based), given the uniform jitter draw u in [0, 1).
     */
    double BackoffSeconds(int64_t attempt, double u) const;
};

/**
 * What the seeded retry policy did for one transfer: how many attempts
 * failed, how long the capped exponential backoff (with seeded jitter)
 * between attempts summed to, and whether every allowed attempt failed —
 * retry exhaustion, which the engine escalates to the permanent-failure
 * watchdog path instead of assuming the final attempt succeeds.
 */
struct TransferOutcome {
    int64_t failures = 0;
    double backoff_seconds = 0.0;
    bool exhausted = false;
};

/**
 * Configuration of the pod fault model. The default value describes a
 * healthy pod: every query of the resulting FaultModel returns a factor
 * of exactly 1.0 and zero failures, so simulations are bit-identical to
 * runs without a fault model.
 *
 * All randomness is a pure hash of (seed, entity, trial): the same spec
 * reproduces the same degraded links, stragglers and transient failures
 * on every run, and a trial index re-samples only the per-trial noise
 * (jitter and transient failures), not the persistent faults.
 */
struct FaultSpec {
    uint64_t seed = 0;

    /// Explicitly degraded links / chips (deterministic placement).
    std::vector<LinkFault> link_faults;
    std::vector<ChipFault> chip_faults;

    /// Seed-driven persistent degradation: each directed link is degraded
    /// independently with this probability...
    double link_degrade_probability = 0.0;
    /// ...to this fraction of nominal bandwidth.
    double link_degrade_factor = 0.25;
    /// Latency multiplier applied to seed-degraded links.
    double link_degrade_latency_factor = 4.0;

    /// Seed-driven persistent stragglers: each chip independently...
    double straggler_probability = 0.0;
    /// ...runs compute at this fraction of nominal throughput.
    double straggler_factor = 0.5;

    /// Per-trial uniform noise: a link's trial bandwidth factor is drawn
    /// from [1 - link_jitter, 1], a chip's from [1 - compute_jitter, 1].
    double link_jitter = 0.0;
    double compute_jitter = 0.0;

    /// Transient CollectivePermute failures: each transfer attempt fails
    /// independently with this probability. A failed attempt is detected
    /// after the backoff wait of `retry` and the payload is re-sent;
    /// exhausting the policy escalates to the permanent-failure watchdog
    /// path.
    double transient_failure_probability = 0.0;

    /// The one retry/backoff policy every retrying layer consults.
    RetryPolicy retry;

    /// Permanent chip/link deaths for multi-step elastic runs.
    std::vector<PermanentFault> permanent_faults;

    /// Seeded silent data corruptions: bit flips / value perturbations in
    /// einsum outputs or in-flight transfer payloads (DESIGN.md §16). The
    /// evaluator applies them to real tensor data; the simulator models
    /// their detection latency. An entry stays active from its step
    /// onward (undetected corruption persists in the poisoned state)
    /// until the recovery layer consumes it on rollback.
    std::vector<SilentCorruption> silent_corruptions;

    /// SDC detector configuration (transfer checksums + einsum ABFT).
    /// Off by default so existing simulations are bit-for-bit unchanged.
    SdcDetectorConfig sdc;

    /// No-progress window of the simulator's watchdog: after this much
    /// simulated time without the device retiring an instruction, the
    /// run is declared failed and a FailureReport is produced.
    double watchdog_timeout_seconds = 5e-3;
};

/**
 * Deterministic, seed-driven fault injection for the pod simulator and
 * the variance-aware §5.5 gate (ISSUE: production pods have degraded
 * links, stragglers and transient failures; ring-decomposed
 * CollectiveEinsum serializes on the slowest link of the ring).
 *
 * Per-entity factors combine the explicit faults with the seed-sampled
 * persistent degradation; trial-level queries additionally apply the
 * per-trial jitter. Blocking collectives are intentionally *not* derated
 * by this model: the runtime's built-in collectives are assumed to
 * rebalance traffic around a degraded link (bidirectional ring with
 * spare capacity), whereas compiler-decomposed CollectivePermutes take
 * the fixed route the pass emitted and bear the full serialization --
 * exactly the fragility the variance-aware gate protects against.
 */
class FaultModel {
  public:
    /** Fault-free model; every factor is exactly 1.0. */
    FaultModel() = default;

    explicit FaultModel(FaultSpec spec);

    const FaultSpec& spec() const { return spec_; }

    /** True when every query returns 1.0 / zero (healthy pod). */
    bool fault_free() const { return fault_free_; }

    // ---- Persistent (trial-independent) factors, in (0, 1] ----------

    double LinkBandwidthFactor(int64_t src, int64_t dst) const;
    /** Latency multiplier of a directed link, >= 1. */
    double LinkLatencyFactor(int64_t src, int64_t dst) const;
    double ChipComputeFactor(int64_t chip) const;

    // ---- Per-trial factors (persistent x jitter) --------------------

    double TrialLinkFactor(int64_t src, int64_t dst, int64_t trial) const;
    double TrialChipFactor(int64_t chip, int64_t trial) const;

    // ---- Transient transfer failures --------------------------------

    /**
     * Seeded retry outcome of the `transfer_index`-th transfer of
     * `trial`: failed-attempt count, total backoff time under the capped
     * exponential policy, and whether every allowed attempt failed
     * (exhaustion). Pure function of (seed, transfer_index, trial).
     */
    TransferOutcome TransferOutcomeOf(int64_t transfer_index,
                                      int64_t trial) const;

    /** Failed-attempt count of TransferOutcomeOf (convenience). */
    int64_t TransferFailures(int64_t transfer_index, int64_t trial) const
    {
        return TransferOutcomeOf(transfer_index, trial).failures;
    }

    // ---- Permanent failures -----------------------------------------

    /**
     * The earliest permanent fault manifest at or before `step` (a dead
     * chip stays dead), or nullptr when every configured fault lies in
     * the future. Ties broken by (fail_step, fail_time_seconds,
     * declaration order).
     */
    const PermanentFault* ActivePermanentFault(int64_t step) const;

    bool has_permanent_faults() const
    {
        return !spec_.permanent_faults.empty();
    }

    // ---- Silent data corruption -------------------------------------

    const SdcDetectorConfig& sdc() const { return spec_.sdc; }

    bool has_silent_corruptions() const
    {
        return !spec_.silent_corruptions.empty();
    }

    /**
     * The corruptions live at `step`: every entry with entry.step <=
     * step. An entry injected earlier but never detected has poisoned
     * the propagated state, so it stays active (from instruction ordinal
     * 0 of later steps) until recovery consumes it from the spec.
     */
    std::vector<SilentCorruption> ActiveCorruptions(int64_t step) const;

  private:
    FaultSpec spec_;
    bool fault_free_ = true;
};

/** One trial's ring-level fault factors (see RingFaultTable::Trial). */
struct TrialRingFactors {
    /// Per channel (axis * 2 + direction): the min bandwidth factor over
    /// the channel's directed links.
    std::vector<double> channel_bandwidth;
    /// The min compute factor over the mesh's chips.
    double compute = 1.0;
};

/**
 * A FaultModel folded onto one mesh's rings, once. The engine models
 * one SPMD timeline with one channel per (mesh axis, ring direction);
 * a ring step completes lockstep when the slowest link finishes, so a
 * channel's effective rate is the min over the directed links of that
 * axis+direction, and its per-hop latency the max. Direction follows
 * the engine's convention: 0 moves data toward the lower ring position,
 * 1 toward the higher. Lockstep at each sync point likewise pins
 * compute to the slowest chip.
 *
 * The constructor walks every device once per axis by ring stride and
 * stores each channel's trial-independent min bandwidth and max
 * latency factor. Under per-trial jitter it also keeps each link's
 * (each chip's) persistent factor and the trial-independent prefix of
 * its jitter hash, so a trial costs one hash round per entity instead
 * of a full rescan; every factor is bit-identical to the per-entity
 * queries of FaultModel. A fault-free model yields exactly 1.0
 * everywhere.
 */
class RingFaultTable {
  public:
    RingFaultTable(const FaultModel& fault, const Mesh& mesh);

    /**
     * Per channel (axis * 2 + direction): the max latency multiplier
     * over the channel's directed links, >= 1. Trial-independent.
     */
    const std::vector<double>& channel_latency() const
    {
        return channel_latency_;
    }

    /** The channel bandwidth factors and compute factor of `trial`. */
    TrialRingFactors Trial(int64_t trial) const;

  private:
    /** A link or chip under jitter: persistent factor, hash prefix. */
    struct Jittered {
        double persistent = 1.0;
        uint64_t prefix = 0;
    };

    /// Per channel: min persistent bandwidth factor, max latency factor.
    std::vector<double> channel_bandwidth_;
    std::vector<double> channel_latency_;
    /// Min persistent compute factor over the chips.
    double compute_ = 1.0;
    /// link_jitter > 0 only: each channel's directed links.
    double link_jitter_ = 0.0;
    std::vector<std::vector<Jittered>> channel_links_;
    /// compute_jitter > 0 only: every chip.
    double compute_jitter_ = 0.0;
    std::vector<Jittered> chips_;
};

}  // namespace overlap

#endif  // OVERLAP_SIM_FAULT_MODEL_H_
