#ifndef OVERLAP_SUPPORT_TRACING_H_
#define OVERLAP_SUPPORT_TRACING_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace overlap {

/**
 * Per-pass record the compiler writes into its CompileReport: wall time
 * plus the entry computation's instruction-count delta. Offsets are
 * relative to the start of Compile() so the pass lane of the unified
 * trace (DESIGN.md §13) nests naturally.
 */
struct PassTiming {
    std::string pass_name;
    /// The pass itself (`pass.run()`), excluding its guard.
    double start_seconds = 0.0;
    double end_seconds = 0.0;
    /// The guard after the pass: its post-pass VerifyModule, plus, when
    /// the pass is rolled back, the restore and the replay of the
    /// earlier passes. Outside [start_seconds, end_seconds]. Compile's
    /// one input snapshot belongs to no pass: it is Compile self time.
    double guard_seconds = 0.0;
    int64_t instructions_before = 0;
    int64_t instructions_after = 0;

    double seconds() const { return end_seconds - start_seconds; }
    int64_t instruction_delta() const
    {
        return instructions_after - instructions_before;
    }
};

/** Seconds since an arbitrary process-local epoch (steady clock). */
inline double
NowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace overlap

#endif  // OVERLAP_SUPPORT_TRACING_H_
