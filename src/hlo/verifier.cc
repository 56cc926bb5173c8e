#include "hlo/verifier.h"

#include <unordered_set>

#include "support/strings.h"

namespace overlap {
namespace {

Status
VerifyShape(const HloInstruction* instr)
{
    switch (instr->opcode()) {
      case HloOpcode::kParameter:
          if (instr->attrs().parameter_number < 0) {
              return InvalidArgument("parameter without parameter_number");
          }
          return Status::Ok();
      case HloOpcode::kConstant:
          if (!instr->attrs().literal.has_value()) {
              return InvalidArgument("constant without literal");
          }
          if (!instr->attrs().literal->shape().SameDims(instr->shape())) {
              return InvalidArgument(
                  StrCat("constant shape mismatch at %", instr->name()));
          }
          return Status::Ok();
      case HloOpcode::kBroadcast:
          if (instr->operand_count() != 1 ||
              instr->operand(0)->shape().rank() != 0) {
              return InvalidArgument(
                  StrCat("broadcast expects one scalar operand at %",
                         instr->name()));
          }
          return Status::Ok();
      default: {
          auto inferred = InferInstructionShape(
              instr->opcode(), instr->operands(), instr->attrs());
          if (!inferred.ok()) {
              return InvalidArgument(
                  StrCat("shape inference failed at %", instr->name(), ": ",
                         inferred.status().message()));
          }
          if (!(inferred.value() == instr->shape())) {
              return InvalidArgument(StrCat(
                  "shape mismatch at %", instr->name(), ": declared ",
                  instr->shape().ToString(), " inferred ",
                  inferred.value().ToString()));
          }
          return Status::Ok();
      }
    }
}

Status
VerifyCollective(const HloInstruction* instr, const Mesh* mesh)
{
    const InstrAttrs& attrs = instr->attrs();
    if (IsExchange(instr->opcode())) {
        OVERLAP_RETURN_IF_ERROR(VerifyDeviceGroups(
            *instr, mesh != nullptr ? mesh->num_devices() : -1));
    } else if (attrs.groups.size != 0) {
        return InvalidArgument(
            StrCat("groups attribute on non-collective %", instr->name()));
    }
    if (instr->opcode() == HloOpcode::kAxisIndex &&
        (attrs.mesh_axis < 0 ||
         (mesh != nullptr && attrs.mesh_axis >= mesh->num_axes()))) {
        return InvalidArgument(StrCat("axis-index axis ", attrs.mesh_axis,
                                      " out of range at %",
                                      instr->name()));
    }
    if (IsAsyncStart(instr->opcode())) {
        const HloOpcode want_done =
            instr->opcode() == HloOpcode::kCollectivePermuteStart
                ? HloOpcode::kCollectivePermuteDone
                : HloOpcode::kAllToAllDone;
        int64_t done_users = 0;
        for (const HloInstruction* user : instr->users()) {
            if (user->opcode() == want_done) {
                ++done_users;
            } else {
                return InvalidArgument(
                    StrCat(HloOpcodeName(instr->opcode()),
                           " used by non-done %", user->name()));
            }
        }
        if (done_users != 1) {
            return InvalidArgument(
                StrCat(HloOpcodeName(instr->opcode()),
                       " needs exactly one done user at %", instr->name()));
        }
    }
    if (IsAsyncDone(instr->opcode()) && instr->operand_count() == 1 &&
        instr->operand(0)->attrs().channel_id !=
            instr->attrs().channel_id) {
        return InvalidArgument(
            StrCat(HloOpcodeName(instr->opcode()), " channel ",
                   instr->attrs().channel_id, " != its start's channel ",
                   instr->operand(0)->attrs().channel_id, " at %",
                   instr->name()));
    }
    if (attrs.a2a_chunk != -1) {
        if (instr->opcode() != HloOpcode::kCollectivePermute &&
            instr->opcode() != HloOpcode::kCollectivePermuteStart &&
            instr->opcode() != HloOpcode::kCollectivePermuteDone) {
            return InvalidArgument(
                StrCat("chunk attribute on non-permute %", instr->name()));
        }
        if (attrs.a2a_chunk < 1) {
            return InvalidArgument(
                StrCat("chunk attribute out of range at %", instr->name()));
        }
    }
    return Status::Ok();
}

/**
 * The attached schedule, if any: a permutation of the instruction list,
 * a topological order, and each fusion group's members back to back.
 * `members[id]` is the computation's instruction with that id, or null.
 */
Status
CheckSchedule(const HloComputation& computation,
              const std::vector<const HloInstruction*>& members)
{
    if (!computation.has_schedule()) return Status::Ok();
    const auto& schedule = computation.schedule();
    if (static_cast<int64_t>(schedule.size()) !=
        computation.instruction_count()) {
        return InvalidArgument("schedule length mismatch");
    }
    const size_t bound = members.size();
    auto is_member = [&](const HloInstruction* instr) {
        const size_t id = static_cast<size_t>(instr->id());
        return id < bound && members[id] == instr;
    };
    // A fusion group runs as one kernel, so its members must sit
    // back to back: each group (keyed by its leader) may open only
    // one run in the schedule.
    const std::vector<int64_t> leaders = computation.FusionGroupLeaders();
    std::vector<bool> scheduled(bound, false);
    std::vector<bool> group_opened(bound, false);
    int64_t previous_leader = -1;
    for (const HloInstruction* instr : schedule) {
        if (!is_member(instr)) {
            return InvalidArgument(StrCat("schedule names %", instr->name(),
                                          ", which is not in the "
                                          "computation"));
        }
        const size_t id = static_cast<size_t>(instr->id());
        for (const HloInstruction* operand : instr->operands()) {
            // VerifySchedule runs without the operand checks, so an
            // operand from elsewhere must not index `scheduled`.
            if (!is_member(operand) ||
                !scheduled[static_cast<size_t>(operand->id())]) {
                return InvalidArgument(
                    StrCat("schedule places %", instr->name(),
                           " before its operand %", operand->name()));
            }
        }
        if (scheduled[id]) {
            return InvalidArgument(StrCat("schedule repeats %",
                                          instr->name()));
        }
        scheduled[id] = true;
        const int64_t leader = leaders[id];
        if (leader != previous_leader) {
            if (group_opened[static_cast<size_t>(leader)]) {
                return InvalidArgument(
                    StrCat("schedule splits fusion group ",
                           instr->fusion_group(), " at %", instr->name()));
            }
            group_opened[static_cast<size_t>(leader)] = true;
        }
        previous_leader = leader;
    }
    return Status::Ok();
}

}  // namespace

Status
VerifyDeviceGroups(const HloInstruction& instr, int64_t num_devices)
{
    Status valid = instr.attrs().groups.Validate(
        num_devices,
        instr.opcode() == HloOpcode::kCollectivePermute ||
            instr.opcode() == HloOpcode::kCollectivePermuteStart);
    if (!valid.ok()) {
        return InvalidArgument(StrCat(valid.message(), " at %", instr.name()));
    }
    return Status::Ok();
}

Status
VerifyComputation(const HloComputation& computation, const Mesh* mesh)
{
    if (computation.root() == nullptr) {
        return InvalidArgument("computation has no root");
    }
    std::vector<HloInstruction*> instrs = computation.instructions();
    // Membership by id: an instruction is this computation's (and
    // defined so far) when its id slot holds that very pointer.
    const size_t bound = static_cast<size_t>(computation.id_bound());
    std::vector<const HloInstruction*> defined(bound, nullptr);
    auto is_defined = [&](const HloInstruction* instr) {
        size_t id = static_cast<size_t>(instr->id());
        return id < bound && defined[id] == instr;
    };
    std::unordered_set<int64_t> param_numbers;
    int64_t param_count = 0;
    for (const HloInstruction* instr : instrs) {
        for (const HloInstruction* operand : instr->operands()) {
            if (!is_defined(operand)) {
                return InvalidArgument(
                    StrCat("operand %", operand->name(),
                           " not defined before %", instr->name()));
            }
            if (!operand->HasUser(instr)) {
                return Internal(StrCat("missing user edge %",
                                       operand->name(), " -> %",
                                       instr->name()));
            }
        }
        // Shape inference runs once per instruction: the verdict holds
        // until a change of operand or attribute clears it.
        if (!instr->shape_verified_.load(std::memory_order_relaxed)) {
            OVERLAP_RETURN_IF_ERROR(VerifyShape(instr));
            instr->shape_verified_.store(true, std::memory_order_relaxed);
        }
        OVERLAP_RETURN_IF_ERROR(VerifyCollective(instr, mesh));
        if (instr->opcode() == HloOpcode::kParameter) {
            ++param_count;
            if (!param_numbers.insert(instr->attrs().parameter_number)
                     .second) {
                return InvalidArgument(
                    StrCat("duplicate parameter number at %",
                           instr->name()));
            }
        }
        defined[static_cast<size_t>(instr->id())] = instr;
    }
    for (int64_t p = 0; p < param_count; ++p) {
        if (param_numbers.count(p) == 0) {
            return InvalidArgument(
                StrCat("parameter numbers not dense: missing ", p));
        }
    }
    if (!is_defined(computation.root())) {
        return InvalidArgument("root is not in the computation");
    }

    return CheckSchedule(computation, defined);
}

Status
VerifySchedule(const HloComputation& computation)
{
    if (!computation.has_schedule()) return Status::Ok();
    std::vector<const HloInstruction*> members(
        static_cast<size_t>(computation.id_bound()), nullptr);
    for (const HloInstruction* instr : computation.instructions()) {
        members[static_cast<size_t>(instr->id())] = instr;
    }
    return CheckSchedule(computation, members);
}

Status
VerifyModule(const HloModule& module)
{
    if (module.entry() == nullptr) {
        return InvalidArgument("module has no entry computation");
    }
    return VerifyComputation(
        *module.entry(),
        module.mesh().has_value() ? &*module.mesh() : nullptr);
}

}  // namespace overlap
