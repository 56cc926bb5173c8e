#include "sim/cost_model.h"

#include <algorithm>
#include <cmath>

namespace overlap {
namespace {

bool
IsScalarShaped(const HloInstruction* instr)
{
    return instr->shape().rank() == 0;
}

}  // namespace

double
CostModel::EinsumSeconds(const HloInstruction* instr) const
{
    const EinsumSpec& spec = instr->einsum();
    double flops = static_cast<double>(spec.FlopCount(
        instr->operand(0)->shape(), instr->operand(1)->shape()));
    return flops / (spec_.peak_flops * spec_.einsum_efficiency *
                    compute_derate_) +
           spec_.op_overhead;
}

double
CostModel::ElementwiseSeconds(const HloInstruction* instr) const
{
    double bytes = 0.0;
    switch (instr->opcode()) {
      case HloOpcode::kDynamicUpdateSlice:
          // Performed in place: only the update region is read + written.
          bytes = 2.0 * static_cast<double>(
                            instr->operand(1)->shape().byte_size());
          break;
      case HloOpcode::kDynamicSlice:
      case HloOpcode::kSlice:
          bytes = 2.0 * static_cast<double>(instr->shape().byte_size());
          break;
      case HloOpcode::kBroadcast:
          // Accumulator zero-fill: write only.
          bytes = static_cast<double>(instr->shape().byte_size());
          break;
      default: {
          for (const HloInstruction* operand : instr->operands()) {
              bytes += static_cast<double>(operand->shape().byte_size());
          }
          bytes += static_cast<double>(instr->shape().byte_size());
          break;
      }
    }
    return bytes / (spec_.mem_bandwidth * compute_derate_) +
           spec_.op_overhead;
}

double
CostModel::BlockingCollectiveSeconds(const HloInstruction* instr) const
{
    int64_t group = instr->attrs().groups.size;
    if (group <= 1) return spec_.op_overhead;
    double g = static_cast<double>(group);
    double bw = spec_.link_bandwidth;
    double lat = spec_.link_latency;
    switch (instr->opcode()) {
      case HloOpcode::kAllGather: {
          // Bidirectional ring: (G-1)/G of the *output* arrives remotely,
          // split over the two directions.
          double bytes = static_cast<double>(instr->shape().byte_size());
          return (g - 1.0) * bytes / (g * 2.0 * bw) + (g - 1.0) * lat;
      }
      case HloOpcode::kReduceScatter: {
          double bytes = static_cast<double>(
              instr->operand(0)->shape().byte_size());
          return (g - 1.0) * bytes / (g * 2.0 * bw) + (g - 1.0) * lat;
      }
      case HloOpcode::kAllReduce: {
          // ReduceScatter + AllGather.
          double bytes = static_cast<double>(
              instr->operand(0)->shape().byte_size());
          return 2.0 * ((g - 1.0) * bytes / (g * 2.0 * bw)) +
                 2.0 * (g - 1.0) * lat;
      }
      case HloOpcode::kAllToAll:
      case HloOpcode::kAllToAllStart: {
          // Uniform all-to-all. XLA routes A2A over the full torus, so a
          // G-device group behaves like a sqrt(G) x sqrt(G) sub-torus:
          // the bisection carries ~B/2 of the traffic over ~2*sqrt(G)
          // link-directions, i.e. t ~ B * sqrt(G) / (4 * bw). The async
          // Start occupies the channels for the same duration.
          double bytes = static_cast<double>(
              instr->operand(0)->shape().byte_size());
          double side = std::sqrt(g);
          return bytes * side / (4.0 * bw) + side * lat;
      }
      default:
          break;
    }
    return spec_.op_overhead;
}

double
CostModel::PermuteStepSeconds(int64_t bytes) const
{
    return static_cast<double>(bytes) /
               (spec_.link_bandwidth * link_derate_) +
           spec_.link_latency * link_latency_derate_;
}

double
CostModel::RingSequenceSeconds(int64_t shard_bytes, int64_t steps) const
{
    double per_step = static_cast<double>(shard_bytes) /
                          (spec_.link_bandwidth * link_derate_) +
                      spec_.link_latency * link_latency_derate_;
    return per_step * static_cast<double>(steps);
}

double
CostModel::InstructionSeconds(const HloInstruction* instr) const
{
    switch (instr->opcode()) {
      case HloOpcode::kParameter:
      case HloOpcode::kConstant:
      case HloOpcode::kPartitionId:
      case HloOpcode::kAxisIndex:
          return 0.0;
      case HloOpcode::kReshape:
      case HloOpcode::kTuple:
          // Metadata-only operations.
          return 0.0;
      case HloOpcode::kEinsum:
          return EinsumSeconds(instr);
      case HloOpcode::kAllGather:
      case HloOpcode::kReduceScatter:
      case HloOpcode::kAllReduce:
      case HloOpcode::kAllToAll:
          return BlockingCollectiveSeconds(instr);
      case HloOpcode::kCollectivePermute:
          return PermuteStepSeconds(instr->shape().byte_size());
      case HloOpcode::kCollectivePermuteStart:
      case HloOpcode::kAllToAllStart:
          // Issues the DMA and returns immediately.
          return 0.0;
      case HloOpcode::kCollectivePermuteDone:
          // Scheduler's view of the worst-case wait; the simulator models
          // the actual remaining transfer time.
          return PermuteStepSeconds(instr->shape().byte_size());
      case HloOpcode::kAllToAllDone:
          // Worst-case wait: the whole exchange still in flight.
          return BlockingCollectiveSeconds(instr->operand(0));
      default:
          if (IsScalarShaped(instr)) return 0.0;  // index arithmetic
          return ElementwiseSeconds(instr);
    }
}

}  // namespace overlap
