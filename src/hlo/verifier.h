#ifndef OVERLAP_HLO_VERIFIER_H_
#define OVERLAP_HLO_VERIFIER_H_

#include "hlo/module.h"
#include "support/status.h"

namespace overlap {

/**
 * Structural and semantic validation of an HloModule.
 *
 * Checks performed:
 *  - every instruction's shape matches shape inference;
 *  - parameter numbers are unique and dense from 0;
 *  - operand/user edges are consistent;
 *  - collective group descriptors are well formed and tile the mesh
 *    (when one is present), permutes shift by a non-identity amount,
 *    and axis-index names an existing mesh axis — O(1) per instruction,
 *    since groups are never explicit device lists (DeviceGroups);
 *  - each CollectivePermuteStart has exactly one Done user;
 *  - an attached schedule is a permutation of the instruction list, a
 *    valid topological order, and keeps each fusion group's members
 *    contiguous (a group runs as one kernel).
 * O(instructions + edges): per-instruction state is indexed by id.
 *
 * Shape inference runs only on an instruction without a shape verdict,
 * and a passing check sets the verdict (HloInstruction::shape_verified_:
 * cleared by ReplaceOperand and UpdateAttrs, absent on every new
 * instruction). Re-verifying after a pass therefore re-infers only
 * what the pass created or rewired; every other check runs in full.
 */
Status VerifyModule(const HloModule& module);

/**
 * Checks one collective's DeviceGroups on a `num_devices` mesh (<= 0:
 * unknown): well formed, tiling the mesh, and a non-identity shift on
 * exactly the permutes. O(1).
 */
Status VerifyDeviceGroups(const HloInstruction& instr, int64_t num_devices);

/** Verifies one computation; mesh-dependent range checks need `mesh`. */
Status VerifyComputation(const HloComputation& computation,
                         const Mesh* mesh = nullptr);

/**
 * The schedule checks of VerifyComputation alone: an attached schedule
 * is a permutation of the instruction list, a valid topological order,
 * and keeps each fusion group contiguous. OK without a schedule. For a
 * pass that only reorders (ScheduleComputation).
 */
Status VerifySchedule(const HloComputation& computation);

}  // namespace overlap

#endif  // OVERLAP_HLO_VERIFIER_H_
