#include "hlo/computation.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "support/strings.h"

namespace overlap {

HloInstruction*
HloComputation::AddInstruction(HloOpcode opcode, Shape shape,
                               std::vector<HloInstruction*> operands,
                               InstrAttrs attrs)
{
    auto instr = std::make_unique<HloInstruction>(
        next_id_++, opcode, std::move(shape), std::move(operands),
        std::move(attrs));
    HloInstruction* raw = instr.get();
    for (HloInstruction* operand : raw->operands()) {
        OVERLAP_CHECK(operand != nullptr);
        operand->AddUser(raw);
    }
    instructions_.push_back(std::move(instr));
    if (root_ == nullptr) root_ = raw;
    return raw;
}

std::unique_ptr<HloComputation>
HloComputation::Clone() const
{
    auto clone = std::make_unique<HloComputation>(name_);
    // Old -> new, indexed by the (preserved) instruction id.
    std::vector<HloInstruction*> map(static_cast<size_t>(next_id_));
    auto mapped = [&map](const HloInstruction* instr) {
        return map[static_cast<size_t>(instr->id())];
    };
    for (const auto& instr : instructions_) {
        std::vector<HloInstruction*> operands;
        operands.reserve(instr->operands().size());
        for (const HloInstruction* operand : instr->operands()) {
            operands.push_back(mapped(operand));
        }
        HloInstruction* copy = clone->AddInstruction(
            instr->opcode(), instr->shape(), std::move(operands),
            instr->attrs());
        copy->id_ = instr->id();
        copy->set_name(instr->name());
        copy->set_fusion_group(instr->fusion_group());
        copy->set_loop_group(instr->loop_group());
        if (instr->sharding().has_value()) {
            copy->set_sharding(*instr->sharding());
        }
        map[static_cast<size_t>(instr->id())] = copy;
    }
    clone->root_ = root_ != nullptr ? mapped(root_) : nullptr;
    clone->schedule_.reserve(schedule_.size());
    for (const HloInstruction* instr : schedule_) {
        clone->schedule_.push_back(mapped(instr));
    }
    clone->next_id_ = next_id_;
    clone->next_loop_group_ = next_loop_group_;
    clone->next_fusion_group_ = next_fusion_group_;
    return clone;
}

std::vector<HloInstruction*>
HloComputation::instructions() const
{
    std::vector<HloInstruction*> out;
    out.reserve(instructions_.size());
    for (const auto& instr : instructions_) out.push_back(instr.get());
    return out;
}

std::vector<int64_t>
HloComputation::FusionGroupLeaders() const
{
    std::vector<int64_t> leaders(static_cast<size_t>(next_id_), -1);
    // (group, position) of every fused instruction; sorted, each
    // group's run starts at its first member.
    std::vector<std::pair<int64_t, int64_t>> fused;
    for (size_t i = 0; i < instructions_.size(); ++i) {
        const HloInstruction* instr = instructions_[i].get();
        leaders[static_cast<size_t>(instr->id())] = instr->id();
        if (instr->fusion_group() >= 0) {
            fused.push_back(
                {instr->fusion_group(), static_cast<int64_t>(i)});
        }
    }
    std::sort(fused.begin(), fused.end());
    int64_t leader = -1;
    for (size_t k = 0; k < fused.size(); ++k) {
        const HloInstruction* instr =
            instructions_[static_cast<size_t>(fused[k].second)].get();
        if (k == 0 || fused[k].first != fused[k - 1].first) {
            leader = instr->id();
        }
        leaders[static_cast<size_t>(instr->id())] = leader;
    }
    return leaders;
}

std::vector<HloInstruction*>
HloComputation::parameters() const
{
    std::vector<HloInstruction*> params;
    for (const auto& instr : instructions_) {
        if (instr->opcode() == HloOpcode::kParameter) {
            params.push_back(instr.get());
        }
    }
    std::sort(params.begin(), params.end(),
              [](const HloInstruction* a, const HloInstruction* b) {
                  return a->attrs().parameter_number <
                         b->attrs().parameter_number;
              });
    return params;
}

void
HloComputation::ReplaceAllUsesWith(HloInstruction* old_instr,
                                   HloInstruction* new_instr)
{
    OVERLAP_CHECK(old_instr != new_instr);
    // Copy: ReplaceOperand mutates the user list we are iterating.
    std::vector<HloInstruction*> users = old_instr->users();
    for (HloInstruction* user : users) {
        for (int64_t i = 0; i < user->operand_count(); ++i) {
            if (user->operand(i) == old_instr) {
                user->ReplaceOperand(i, new_instr);
            }
        }
    }
    if (root_ == old_instr) root_ = new_instr;
}

int64_t
HloComputation::RemoveDeadInstructions()
{
    OVERLAP_CHECK(root_ != nullptr);
    std::vector<bool> live(static_cast<size_t>(next_id_), false);
    auto is_live = [&live](const HloInstruction* instr) {
        return live[static_cast<size_t>(instr->id())];
    };
    std::vector<HloInstruction*> stack{root_};
    while (!stack.empty()) {
        HloInstruction* instr = stack.back();
        stack.pop_back();
        if (is_live(instr)) continue;
        live[static_cast<size_t>(instr->id())] = true;
        for (HloInstruction* operand : instr->operands()) {
            stack.push_back(operand);
        }
    }
    for (const auto& instr : instructions_) {
        if (instr->opcode() == HloOpcode::kParameter) {
            live[static_cast<size_t>(instr->id())] = true;
        }
    }
    int64_t removed = 0;
    // Detach user edges of dying instructions first.
    for (const auto& instr : instructions_) {
        if (is_live(instr.get())) continue;
        for (HloInstruction* operand : instr->operands()) {
            operand->RemoveUser(instr.get());
        }
        ++removed;
    }
    if (removed == 0) return 0;
    instructions_.erase(
        std::remove_if(instructions_.begin(), instructions_.end(),
                       [&](const std::unique_ptr<HloInstruction>& i) {
                           return !is_live(i.get());
                       }),
        instructions_.end());
    if (!schedule_.empty()) {
        schedule_.erase(std::remove_if(schedule_.begin(), schedule_.end(),
                                       [&](const HloInstruction* i) {
                                           return !is_live(i);
                                       }),
                        schedule_.end());
    }
    return removed;
}

void
HloComputation::SortTopologically()
{
    // Kahn's algorithm with a min-heap on the original list position, so
    // the result deviates from the existing order only where required.
    // Per-instruction counters live in flat vectors indexed by id.
    const size_t n = instructions_.size();
    const size_t bound = static_cast<size_t>(next_id_);
    std::vector<int64_t> position(bound, -1);
    for (size_t i = 0; i < n; ++i) {
        position[static_cast<size_t>(instructions_[i]->id())] =
            static_cast<int64_t>(i);
    }
    std::vector<int64_t> missing_operands(bound, 0);
    // Stamp of the last instruction that counted each operand, so each
    // distinct operand is counted once.
    std::vector<int64_t> counted_by(bound, -1);
    std::priority_queue<int64_t, std::vector<int64_t>,
                        std::greater<int64_t>>
        ready;
    for (size_t i = 0; i < n; ++i) {
        const HloInstruction* instr = instructions_[i].get();
        int64_t distinct = 0;
        for (const HloInstruction* operand : instr->operands()) {
            int64_t& stamp = counted_by[static_cast<size_t>(operand->id())];
            if (stamp == static_cast<int64_t>(i)) continue;
            stamp = static_cast<int64_t>(i);
            ++distinct;
        }
        missing_operands[static_cast<size_t>(instr->id())] = distinct;
        if (distinct == 0) ready.push(static_cast<int64_t>(i));
    }
    std::vector<int64_t> order;
    order.reserve(n);
    while (!ready.empty()) {
        int64_t i = ready.top();
        ready.pop();
        order.push_back(i);
        for (const HloInstruction* user :
             instructions_[static_cast<size_t>(i)]->users()) {
            // A user may read this instruction through several operand
            // slots; it was counted once above.
            if (--missing_operands[static_cast<size_t>(user->id())] == 0) {
                ready.push(position[static_cast<size_t>(user->id())]);
            }
        }
    }
    if (order.size() != n) {
        internal::CheckFailed("SortTopologically: dependency cycle",
                              __FILE__, __LINE__);
    }
    std::vector<std::unique_ptr<HloInstruction>> sorted;
    sorted.reserve(n);
    for (int64_t i : order) {
        sorted.push_back(std::move(instructions_[static_cast<size_t>(i)]));
    }
    instructions_ = std::move(sorted);
    schedule_.clear();
}

void
HloComputation::set_schedule(std::vector<HloInstruction*> schedule)
{
    OVERLAP_CHECK(schedule.size() == instructions_.size());
    schedule_ = std::move(schedule);
}

std::vector<HloInstruction*>
HloComputation::sequence() const
{
    if (!schedule_.empty()) return schedule_;
    return instructions();
}

int64_t
HloComputation::NextChannelId() const
{
    int64_t next = 0;
    for (const auto& instr : instructions_) {
        next = std::max(next, instr->attrs().channel_id + 1);
    }
    return next;
}

std::string
HloComputation::ToString() const
{
    std::string out = StrCat("computation ", name_, " {\n");
    for (const auto& instr : instructions_) {
        out += "  ";
        if (instr.get() == root_) out += "ROOT ";
        out += instr->ToString();
        out += "\n";
    }
    out += "}\n";
    return out;
}

}  // namespace overlap
