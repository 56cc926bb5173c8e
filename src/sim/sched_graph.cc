#include "sim/sched_graph.h"

#include <algorithm>

#include "support/status.h"

namespace overlap {

SchedGraph::SchedGraph(const HloComputation& computation,
                       const CostModel& cost)
{
    // One unit per fusion group, created at the group's first member
    // (the group's leader); singletons lead themselves.
    const std::vector<int64_t> leaders = computation.FusionGroupLeaders();
    unit_of_.assign(leaders.size(), nullptr);
    int64_t next_id = 0;
    for (HloInstruction* instr : computation.instructions()) {
        const int64_t leader = leaders[static_cast<size_t>(instr->id())];
        SchedUnit* unit = unit_of_[static_cast<size_t>(leader)];
        if (unit == nullptr) {
            units_.push_back(std::make_unique<SchedUnit>());
            unit = units_.back().get();
            unit->id = next_id++;
        }
        unit->members.push_back(instr);
        if (instr->loop_group() >= 0) unit->loop_group = instr->loop_group();
        unit_of_[static_cast<size_t>(instr->id())] = unit;
    }

    // Latencies: fused element-wise members are discounted.
    for (const auto& unit : units_) {
        double latency = 0.0;
        bool fused = unit->members.size() > 1;
        for (const HloInstruction* instr : unit->members) {
            double t = cost.InstructionSeconds(instr);
            if (fused && instr->opcode() != HloOpcode::kEinsum) {
                t *= kFusedElementwiseDiscount;
            }
            latency += t;
        }
        // A Done's wait time is decided by the link engine / scheduler
        // heuristics, not charged as kernel time.
        if (unit->IsAsyncDone()) latency = 0.0;
        unit->latency = latency;
        if (unit->IsPermuteStart() || unit->IsPermuteDone()) {
            unit->transfer_seconds =
                cost.PermuteStepSeconds(unit->TransferBytes());
        } else if (unit->IsAsyncStart() || unit->IsAsyncDone()) {
            // Async all-to-all: the exchange occupies the channels for
            // the blocking form's duration.
            const HloInstruction* start =
                unit->members[0]->opcode() == HloOpcode::kAllToAllStart
                    ? unit->members[0]
                    : unit->members[0]->operand(0);
            unit->transfer_seconds = cost.BlockingCollectiveSeconds(start);
        }
    }

    // External edges (deduplicated).
    for (const auto& unit : units_) {
        for (const HloInstruction* instr : unit->members) {
            for (HloInstruction* operand : instr->operands()) {
                SchedUnit* producer =
                    unit_of_[static_cast<size_t>(operand->id())];
                if (producer == unit.get()) continue;
                if (std::find(unit->operands.begin(), unit->operands.end(),
                              producer) == unit->operands.end()) {
                    unit->operands.push_back(producer);
                    producer->users.push_back(unit.get());
                }
            }
        }
    }
}

std::vector<HloInstruction*>
SchedGraph::ExpandToInstructions(const std::vector<SchedUnit*>& order)
{
    std::vector<HloInstruction*> schedule;
    for (const SchedUnit* unit : order) {
        schedule.insert(schedule.end(), unit->members.begin(),
                        unit->members.end());
    }
    return schedule;
}

std::vector<SchedUnit*>
SchedGraph::UnitOrderOf(const std::vector<HloInstruction*>& sequence) const
{
    std::vector<SchedUnit*> order;
    order.reserve(units_.size());
    std::vector<bool> seen(units_.size(), false);
    for (const HloInstruction* instr : sequence) {
        SchedUnit* unit = unit_of(instr);
        if (!seen[static_cast<size_t>(unit->id)]) {
            seen[static_cast<size_t>(unit->id)] = true;
            order.push_back(unit);
        }
    }
    return order;
}

}  // namespace overlap
