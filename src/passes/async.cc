#include "passes/async.h"

#include "hlo/builder.h"

namespace overlap {

StatusOr<int64_t>
CreateAsyncCollectivePermutes(HloComputation* computation)
{
    HloBuilder builder(computation);
    int64_t converted = 0;
    int64_t next_channel = computation->NextChannelId();
    for (HloInstruction* instr : computation->instructions()) {
        if (instr->opcode() != HloOpcode::kCollectivePermute) continue;
        HloInstruction* start = builder.CollectivePermuteStart(
            instr->operand(0), instr->attrs().groups);
        HloInstruction* done = builder.CollectivePermuteDone(start);
        // Each Start/Done pair gets its own channel (preserved by the
        // sync op's channel when it already had one).
        int64_t channel = instr->attrs().channel_id >= 0
                              ? instr->attrs().channel_id
                              : next_channel++;
        start->UpdateAttrs([&](InstrAttrs& a) { a.channel_id = channel; });
        done->UpdateAttrs([&](InstrAttrs& a) { a.channel_id = channel; });
        // A ring-decomposed-A2A chunk permute keeps its chunk tag.
        start->UpdateAttrs([&](InstrAttrs& a) {
            a.a2a_chunk = instr->attrs().a2a_chunk;
        });
        start->set_loop_group(instr->loop_group());
        done->set_loop_group(instr->loop_group());
        start->set_fusion_group(instr->fusion_group());
        done->set_fusion_group(instr->fusion_group());
        computation->ReplaceAllUsesWith(instr, done);
        ++converted;
    }
    if (converted > 0) {
        computation->RemoveDeadInstructions();
        computation->SortTopologically();
    }
    return converted;
}

StatusOr<int64_t>
CreateAsyncAllToAlls(HloComputation* computation)
{
    HloBuilder builder(computation);
    int64_t converted = 0;
    int64_t next_channel = computation->NextChannelId();
    for (HloInstruction* instr : computation->instructions()) {
        if (instr->opcode() != HloOpcode::kAllToAll) continue;
        HloInstruction* start = builder.AllToAllStart(
            instr->operand(0), instr->attrs().dim, instr->attrs().groups);
        int64_t channel = instr->attrs().channel_id >= 0
                              ? instr->attrs().channel_id
                              : next_channel++;
        start->UpdateAttrs([&](InstrAttrs& a) { a.channel_id = channel; });
        HloInstruction* done = builder.AllToAllDone(start);
        start->set_loop_group(instr->loop_group());
        done->set_loop_group(instr->loop_group());
        start->set_fusion_group(instr->fusion_group());
        done->set_fusion_group(instr->fusion_group());
        computation->ReplaceAllUsesWith(instr, done);
        ++converted;
    }
    if (converted > 0) {
        computation->RemoveDeadInstructions();
        computation->SortTopologically();
    }
    return converted;
}

}  // namespace overlap
