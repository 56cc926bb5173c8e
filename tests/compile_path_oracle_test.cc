/**
 * @file
 * Oracle for the indexed compile path. The list schedulers
 * (passes/schedule), HloComputation::SortTopologically and the §5.5
 * loop replay (sim/loop_timeline) address graph nodes by dense id
 * through heaps and flat arrays. Namespace `reference` below keeps
 * their original rescanning implementations verbatim (test-only; the
 * einsum suite's EvaluateReference plays the same role), and every
 * check asserts the indexed code reproduces them exactly: the same unit
 * orders, the same instruction orders and bitwise-equal LoopTimeline
 * fields. The inputs:
 *
 *  - both arms of every Table 1 / Table 2 model (Figures 12 and 13);
 *  - every moe_sweep arm;
 *  - the calibration site space under every decompose variant;
 *  - seeded random graphs heavy in ties: equal byte sizes, equal
 *    latencies, zero-latency Dones, in-flight budgets 1-4.
 *
 * The priority keys these pin are listed in DESIGN.md §3 and §8
 * ("compile-path complexity").
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/overlap_compiler.h"
#include "difftest/calibration.h"
#include "difftest/difftest.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "models/model_config.h"
#include "models/step_builder.h"
#include "passes/schedule.h"
#include "sim/loop_timeline.h"
#include "sim/sched_graph.h"
#include "support/strings.h"

namespace overlap {
namespace {

/**
 * The compile path before indexing: verbatim copies of the rescanning
 * implementations the heaps replaced (only adapted to free functions:
 * the replay takes its unit graph, the sort returns its order instead
 * of permuting the list). Do not "fix" or speed these up; they are the
 * specification the tests compare against.
 */
namespace reference {

/** Output bytes a unit keeps live (its kernel's result buffer). */
int64_t
UnitOutputBytes(const SchedUnit* unit)
{
    return unit->members.back()->shape().byte_size();
}

std::vector<SchedUnit*>
BaselineMemorySchedule(const SchedGraph& graph)
{
    std::unordered_map<const SchedUnit*, int64_t> missing;
    std::unordered_map<const SchedUnit*, int64_t> remaining_users;
    std::vector<SchedUnit*> ready;
    for (const auto& unit : graph.units()) {
        missing[unit.get()] = static_cast<int64_t>(unit->operands.size());
        remaining_users[unit.get()] =
            static_cast<int64_t>(unit->users.size());
        if (unit->operands.empty()) ready.push_back(unit.get());
    }
    std::vector<SchedUnit*> order;
    order.reserve(graph.units().size());
    while (!ready.empty()) {
        // Greedy: smallest live-memory delta; ties by program order (id).
        size_t best = 0;
        int64_t best_delta = std::numeric_limits<int64_t>::max();
        for (size_t i = 0; i < ready.size(); ++i) {
            const SchedUnit* u = ready[i];
            int64_t delta = UnitOutputBytes(u);
            for (const SchedUnit* operand : u->operands) {
                if (remaining_users.at(operand) == 1) {
                    delta -= UnitOutputBytes(operand);
                }
            }
            if (delta < best_delta ||
                (delta == best_delta && u->id < ready[best]->id)) {
                best_delta = delta;
                best = i;
            }
        }
        SchedUnit* unit = ready[best];
        ready.erase(ready.begin() + static_cast<int64_t>(best));
        order.push_back(unit);
        for (SchedUnit* operand : unit->operands) {
            --remaining_users.at(operand);
        }
        for (SchedUnit* user : unit->users) {
            if (--missing.at(user) == 0) ready.push_back(user);
        }
    }
    OVERLAP_CHECK(order.size() == graph.units().size());
    return order;
}

std::vector<SchedUnit*>
BottomUpSchedule(const SchedGraph& graph,
                 const std::vector<SchedUnit*>& input, int64_t max_in_flight)
{
    // Algorithm 2: schedule in reverse from the dataflow roots so that
    // (after the final reversal) Dones land as late and Starts as early
    // as possible.
    std::unordered_map<const SchedUnit*, int64_t> input_pos;
    for (size_t i = 0; i < input.size(); ++i) {
        input_pos[input[i]] = static_cast<int64_t>(i);
    }
    // Two distinct time roles: the reverse clock advances only by kernel
    // latency (a Done unit itself takes no device time), while the
    // ready-time an operand inherits from a Done user includes the wire
    // time — that spacing is what holds the matching Start in the
    // pending queue until enough computation has been scheduled between
    // them to hide the transfer.
    auto spacing_latency = [](const SchedUnit* u) {
        return u->IsAsyncDone() ? u->transfer_seconds : u->latency;
    };

    std::unordered_map<const SchedUnit*, int64_t> unscheduled_users;
    std::unordered_map<const SchedUnit*, double> ready_time;
    // Earliest reverse-clock time each Start may be scheduled: anchored
    // to the clock value at which its Done was scheduled (not to the
    // Done's ready_time), so that pending-queue jumps on one ring chain
    // do not let another chain's Start slip in right after its Done and
    // serialize the transfers.
    std::unordered_map<const SchedUnit*, double> start_allowed;
    std::vector<SchedUnit*> available;
    for (const auto& unit : graph.units()) {
        unscheduled_users[unit.get()] =
            static_cast<int64_t>(unit->users.size());
        if (unit->users.empty()) {
            ready_time[unit.get()] = 0.0;
            available.push_back(unit.get());
        }
    }

    // Priority classes (lower is better): Dones first (latest possible
    // final position), then time-ready Starts (scheduling a ready Start
    // immediately unblocks the previous ring hop's Done while its
    // pending spacing has already guaranteed the overlap window), then
    // users of Dones, then everything else.
    auto priority_class = [](const SchedUnit* u) {
        if (u->IsAsyncDone()) return 0;
        if (u->IsAsyncStart()) return 1;
        for (const SchedUnit* operand : u->operands) {
            if (operand->IsAsyncDone()) return 2;
        }
        return 3;
    };

    std::vector<SchedUnit*> reversed;
    reversed.reserve(graph.units().size());
    double current_time = 0.0;
    int64_t in_flight = 0;

    while (!available.empty()) {
        // Select: best priority among time-ready candidates; if none is
        // time-ready, the pending unit that becomes ready first.
        SchedUnit* candidate = nullptr;
        int64_t candidate_class = 4;
        bool candidate_ready = false;
        double candidate_rt = 0.0;
        for (SchedUnit* u : available) {
            double rt = ready_time.at(u);
            bool is_ready = rt <= current_time;
            int64_t cls = priority_class(u);
            if (cls == 0 && in_flight >= max_in_flight) {
                cls = 3;  // budget exhausted: treat the Done as ordinary
            }
            bool better;
            if (candidate == nullptr) {
                better = true;
            } else if (is_ready != candidate_ready) {
                better = is_ready;
            } else if (is_ready) {
                better = cls < candidate_class ||
                         (cls == candidate_class &&
                          input_pos.at(u) > input_pos.at(candidate));
            } else {
                better = rt < candidate_rt ||
                         (rt == candidate_rt &&
                          input_pos.at(u) > input_pos.at(candidate));
            }
            if (better) {
                candidate = u;
                candidate_class = cls;
                candidate_ready = is_ready;
                candidate_rt = rt;
            }
        }
        OVERLAP_CHECK(candidate != nullptr);
        available.erase(
            std::find(available.begin(), available.end(), candidate));
        reversed.push_back(candidate);
        if (candidate->IsAsyncStart()) --in_flight;
        current_time = std::max(current_time, ready_time.at(candidate)) +
                       candidate->latency;
        if (candidate->IsAsyncDone()) {
            ++in_flight;
            start_allowed[candidate->operands.front()] =
                current_time + candidate->transfer_seconds;
        }
        for (SchedUnit* operand : candidate->operands) {
            if (--unscheduled_users.at(operand) == 0) {
                double rt = 0.0;
                for (const SchedUnit* user : operand->users) {
                    rt = std::max(rt, ready_time.at(user) +
                                          spacing_latency(user));
                }
                auto allowed = start_allowed.find(operand);
                if (allowed != start_allowed.end()) {
                    rt = std::max(rt, allowed->second);
                }
                ready_time[operand] = rt;
                available.push_back(operand);
            }
        }
    }
    OVERLAP_CHECK(reversed.size() == graph.units().size());
    std::reverse(reversed.begin(), reversed.end());
    return reversed;
}

std::vector<SchedUnit*>
TopDownSchedule(const SchedGraph& graph,
                const std::vector<SchedUnit*>& input, int64_t max_in_flight)
{
    // Forward list scheduling with the two §5.2 placement rules — a
    // CollectivePermuteStart goes as early as possible and a Done as
    // late as its transfer needs — paced by a simple estimated clock
    // (the cost-based rebalancing). Less precise than the bottom-up
    // scheduler's per-transfer spacing accounting, which is where it
    // gives up some overlap (§6.3).
    std::unordered_map<const SchedUnit*, int64_t> input_pos;
    for (size_t i = 0; i < input.size(); ++i) {
        input_pos[input[i]] = static_cast<int64_t>(i);
    }
    std::unordered_map<const SchedUnit*, int64_t> missing;
    std::vector<SchedUnit*> ready;
    for (const auto& unit : graph.units()) {
        missing[unit.get()] = static_cast<int64_t>(unit->operands.size());
        if (unit->operands.empty()) ready.push_back(unit.get());
    }
    std::vector<SchedUnit*> order;
    order.reserve(graph.units().size());
    int64_t in_flight = 0;

    auto emit = [&](SchedUnit* unit) {
        ready.erase(std::find(ready.begin(), ready.end(), unit));
        order.push_back(unit);
        if (unit->IsAsyncStart()) ++in_flight;
        if (unit->IsAsyncDone()) --in_flight;
        for (SchedUnit* user : unit->users) {
            if (--missing.at(user) == 0) ready.push_back(user);
        }
    };

    // Eagerly issuing every ready Start would flood the links with the
    // first hops of all chains at once, so the ASAP rule runs under a
    // small self-imposed window in addition to the hardware budget. A
    // Done is released once the estimated clock passes its transfer's
    // arrival — deferring it maximally would also defer the next ring
    // hop's Start, which depends on it.
    const int64_t eager_window = std::min<int64_t>(max_in_flight, 6);
    double clock = 0.0;
    std::unordered_map<const SchedUnit*, double> arrival;
    while (!ready.empty()) {
        // Rule 1: issue ready Starts as early as possible.
        SchedUnit* pick = nullptr;
        for (SchedUnit* u : ready) {
            if (!u->IsAsyncStart() || in_flight >= eager_window) {
                continue;
            }
            if (pick == nullptr || input_pos.at(u) < input_pos.at(pick)) {
                pick = u;
            }
        }
        // Rule 2: release Dones whose transfer has (estimatedly) landed.
        if (pick == nullptr) {
            for (SchedUnit* u : ready) {
                if (!u->IsAsyncDone()) continue;
                double arrived = arrival.at(u->operands.front());
                if (arrived > clock) continue;
                if (pick == nullptr ||
                    arrived < arrival.at(pick->operands.front())) {
                    pick = u;
                }
            }
        }
        // Rule 3: other work in input order.
        if (pick == nullptr) {
            for (SchedUnit* u : ready) {
                if (u->IsAsyncDone() || u->IsAsyncStart()) continue;
                if (pick == nullptr ||
                    input_pos.at(u) < input_pos.at(pick)) {
                    pick = u;
                }
            }
        }
        // Rule 4: nothing else — wait on the oldest outstanding transfer.
        if (pick == nullptr) {
            for (SchedUnit* u : ready) {
                if (!u->IsAsyncDone()) continue;
                if (pick == nullptr ||
                    arrival.at(u->operands.front()) <
                        arrival.at(pick->operands.front())) {
                    pick = u;
                }
            }
        }
        if (pick == nullptr) pick = ready.front();  // budget-blocked Starts
        if (pick->IsAsyncStart()) {
            arrival[pick] = clock + pick->transfer_seconds;
        }
        if (pick->IsAsyncDone()) {
            clock = std::max(clock, arrival.at(pick->operands.front()));
        }
        clock += pick->latency;
        emit(pick);
    }
    OVERLAP_CHECK(order.size() == graph.units().size());
    return order;
}

/**
 * HloComputation::SortTopologically's original order: Kahn's algorithm
 * keyed through hash maps (the instruction list is then std::sort-ed
 * into this order).
 */
std::vector<HloInstruction*>
TopologicalOrder(const HloComputation& computation)
{
    const std::vector<HloInstruction*> instructions =
        computation.instructions();
    // Kahn's algorithm with a min-heap on the original list index, so the
    // result deviates from the existing order only where required.
    std::unordered_map<const HloInstruction*, int64_t> position;
    std::unordered_map<HloInstruction*, int64_t> missing_operands;
    for (size_t i = 0; i < instructions.size(); ++i) {
        position[instructions[i]] = static_cast<int64_t>(i);
    }
    auto later = [&position](HloInstruction* a, HloInstruction* b) {
        return position.at(a) > position.at(b);
    };
    std::priority_queue<HloInstruction*, std::vector<HloInstruction*>,
                        decltype(later)>
        ready(later);
    for (HloInstruction* instr : instructions) {
        // Count each distinct operand once.
        std::unordered_set<const HloInstruction*> distinct(
            instr->operands().begin(), instr->operands().end());
        missing_operands[instr] =
            static_cast<int64_t>(distinct.size());
        if (distinct.empty()) ready.push(instr);
    }
    std::vector<HloInstruction*> order;
    order.reserve(instructions.size());
    std::unordered_set<const HloInstruction*> emitted;
    while (!ready.empty()) {
        HloInstruction* instr = ready.top();
        ready.pop();
        order.push_back(instr);
        emitted.insert(instr);
        for (HloInstruction* user : instr->users()) {
            // A user may read this instruction through several operand
            // slots; it was counted once above.
            if (--missing_operands.at(user) == 0) ready.push(user);
        }
    }
    return order;
}

struct Interval {
    double begin = 0.0;
    double end = 0.0;
};

double
UnionMeasure(std::vector<Interval> intervals)
{
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                  return a.begin < b.begin;
              });
    double total = 0.0;
    double hi = 0.0;
    bool any = false;
    for (const Interval& interval : intervals) {
        if (interval.end <= interval.begin) continue;
        if (!any || interval.begin > hi) {
            total += interval.end - interval.begin;
            hi = interval.end;
        } else if (interval.end > hi) {
            total += interval.end - hi;
            hi = interval.end;
        }
        any = true;
    }
    return total;
}

/**
 * CalibratedCostModel::Predict's original walk: every phase rescans all
 * units and re-tests their dependencies.
 */
LoopTimeline
ReplayUnits(const std::vector<ReplayUnit>& units, int64_t max_in_flight)
{
    size_t count = units.size();
    std::vector<bool> finished(count, false);
    std::vector<double> arrival(count, 0.0);
    std::vector<Interval> in_flight;
    std::vector<Interval> exposed;
    double t = 0.0;
    double channel[2] = {0.0, 0.0};
    int64_t outstanding = 0;
    double compute_sum = 0.0;
    size_t completed = 0;

    auto ready = [&](size_t i) {
        if (finished[i]) return false;
        for (int dep : units[i].deps) {
            if (!finished[static_cast<size_t>(dep)]) return false;
        }
        return true;
    };

    // Greedy forward walk of the unit graph under the engine's channel
    // semantics. Priorities mirror the bottom-up scheduler's classes:
    // Starts issue as soon as their data exists (and the in-flight
    // budget allows), ready compute runs while transfers fly, and the
    // device stalls on a Done only when nothing else can make progress
    // — retiring the earliest arrival first, as the engine does.
    while (completed < count) {
        bool progressed = false;
        // Retire every Done whose transfer has already arrived — in
        // the engine a Done past its arrival costs nothing, and its
        // consumers become schedulable immediately. Without this the
        // walk defers cheap combines behind all independent compute,
        // which delays the transfers they feed and fabricates an
        // exposed tail (the rs-bidirectional epilogue was the worst
        // case: ~40% span over-prediction).
        for (size_t i = 0; i < count; ++i) {
            if (units[i].kind != ReplayUnit::kDone || !ready(i)) continue;
            if (arrival[static_cast<size_t>(units[i].start)] > t) continue;
            finished[i] = true;
            ++completed;
            --outstanding;
            progressed = true;
        }
        if (progressed) continue;
        for (size_t i = 0; i < count; ++i) {
            if (units[i].kind != ReplayUnit::kStart || !ready(i)) continue;
            if (outstanding >= max_in_flight) break;
            int direction = units[i].direction;
            if (direction < 0) {
                direction = channel[0] <= channel[1] ? 0 : 1;
            }
            double begin = std::max(t, channel[direction]);
            channel[direction] = begin + units[i].wire;
            arrival[i] = channel[direction] + units[i].latency;
            in_flight.push_back({t, arrival[i]});
            finished[i] = true;
            ++completed;
            ++outstanding;
            progressed = true;
        }
        if (progressed) continue;
        for (size_t i = 0; i < count; ++i) {
            if (units[i].kind != ReplayUnit::kCompute || !ready(i)) continue;
            t += units[i].seconds;
            compute_sum += units[i].seconds;
            finished[i] = true;
            ++completed;
            progressed = true;
            break;
        }
        if (progressed) continue;
        size_t best = count;
        double best_arrival = 0.0;
        for (size_t i = 0; i < count; ++i) {
            if (units[i].kind != ReplayUnit::kDone || !ready(i)) continue;
            double when = arrival[static_cast<size_t>(units[i].start)];
            if (best == count || when < best_arrival) {
                best = i;
                best_arrival = when;
            }
        }
        OVERLAP_CHECK(best < count);  // graph acyclic by construction
        double when = best_arrival;
        if (when > t) {
            exposed.push_back({t, when});
            t = when;
        }
        finished[best] = true;
        ++completed;
        --outstanding;
    }

    LoopTimeline timeline;
    timeline.span_seconds = t;
    timeline.compute_seconds = compute_sum;
    timeline.wire_seconds = UnionMeasure(std::move(in_flight));
    timeline.exposed_seconds = UnionMeasure(std::move(exposed));
    return timeline;
}

}  // namespace reference

/// The in-flight budgets every scheduler and replay check runs under,
/// besides the configuration's own.
constexpr int64_t kBudgets[] = {1, 2, 3, 4};

void
ExpectSameUnits(const std::vector<SchedUnit*>& got,
                const std::vector<SchedUnit*>& want, const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i]->id, want[i]->id)
            << what << ": orders first differ at position " << i;
    }
}

/** All three schedulers, indexed vs reference, under `budgets`; the
 * bottom-up and top-down passes take `input` as their tie order
 * (production passes the baseline order, which is the default). */
void
CheckSchedulers(const SchedGraph& graph, const std::string& what,
                std::vector<int64_t> budgets,
                const std::vector<SchedUnit*>* input = nullptr)
{
    std::vector<SchedUnit*> baseline = BaselineMemorySchedule(graph);
    ExpectSameUnits(baseline, reference::BaselineMemorySchedule(graph),
                    what + " baseline");
    const std::vector<SchedUnit*>& order = input ? *input : baseline;
    for (int64_t budget : budgets) {
        std::string tag = StrCat(what, " budget=", budget);
        ExpectSameUnits(BottomUpSchedule(graph, order, budget),
                        reference::BottomUpSchedule(graph, order, budget),
                        tag + " bottom-up");
        ExpectSameUnits(TopDownSchedule(graph, order, budget),
                        reference::TopDownSchedule(graph, order, budget),
                        tag + " top-down");
    }
}

void
ExpectBitwiseEqual(const LoopTimeline& got, const LoopTimeline& want,
                   const std::string& what)
{
    auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    EXPECT_EQ(bits(got.span_seconds), bits(want.span_seconds)) << what;
    EXPECT_EQ(bits(got.compute_seconds), bits(want.compute_seconds))
        << what;
    EXPECT_EQ(bits(got.wire_seconds), bits(want.wire_seconds)) << what;
    EXPECT_EQ(bits(got.exposed_seconds), bits(want.exposed_seconds))
        << what;
}

void
CheckReplay(const std::vector<ReplayUnit>& units, int64_t budget,
            const std::string& what)
{
    ExpectBitwiseEqual(ReplayUnits(units, budget),
                       reference::ReplayUnits(units, budget),
                       StrCat(what, " budget=", budget));
}

/** The replay of `shape` under both fits and every budget, plus
 * Predict itself against the reference walk. */
void
CheckLoopShape(const LoopShape& shape, const std::string& what)
{
    const CalibrationFit fitted = CalibrationFit::Fitted();
    ExpectBitwiseEqual(
        CalibratedCostModel(fitted).Predict(shape),
        reference::ReplayUnits(BuildReplayUnits(shape, fitted),
                               shape.max_in_flight),
        what + " predict");
    for (const CalibrationFit& fit : {fitted, CalibrationFit::Identity()}) {
        std::vector<ReplayUnit> units = BuildReplayUnits(shape, fit);
        for (int64_t budget : kBudgets) CheckReplay(units, budget, what);
    }
}

/**
 * Makes `computation`'s instruction list non-topological the way the
 * rewriting passes do: `rewires` times, a random instruction's users are
 * redirected to a copy of it appended at the end of the list.
 */
void
Unsort(HloComputation* computation, int64_t rewires, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    for (int64_t r = 0; r < rewires; ++r) {
        std::vector<HloInstruction*> instrs = computation->instructions();
        HloInstruction* source = instrs[rng() % instrs.size()];
        std::vector<HloInstruction*> users = source->users();
        if (users.empty()) continue;
        HloInstruction* copy = computation->AddInstruction(
            HloOpcode::kCopy, source->shape(), {source});
        for (HloInstruction* user : users) {
            for (int64_t i = 0; i < user->operand_count(); ++i) {
                if (user->operand(i) == source) {
                    user->ReplaceOperand(i, copy);
                }
            }
        }
    }
}

/** SortTopologically on a clone of `computation`, as is and unsorted,
 * against the reference order. */
void
CheckTopologicalSort(const HloComputation& computation, uint64_t seed,
                     const std::string& what)
{
    for (int64_t rewires : {0, 8, 64}) {
        std::unique_ptr<HloComputation> clone = computation.Clone();
        Unsort(clone.get(), rewires, seed + static_cast<uint64_t>(rewires));
        std::vector<HloInstruction*> want =
            reference::TopologicalOrder(*clone);
        clone->SortTopologically();
        EXPECT_EQ(clone->instructions(), want)
            << what << " rewires=" << rewires;
    }
}

/** Compiles `module` under `options`, then checks every scheduler on
 * the graph the schedule pass saw, every §5.5 loop the gate replayed
 * and the topological sort of the compiled computation. */
void
CheckCompiled(HloModule* module, const CompilerOptions& options,
              const std::string& what)
{
    auto report = OverlapCompiler(options).Compile(module);
    ASSERT_TRUE(report.ok()) << what << ": " << report.status().ToString();
    // The schedule pass is last and leaves the graph as it found it.
    CostModel cost(options.hardware);
    SchedGraph graph(*module->entry(), cost);
    std::vector<int64_t> budgets = {options.hardware.max_in_flight_async};
    budgets.insert(budgets.end(), std::begin(kBudgets), std::end(kBudgets));
    CheckSchedulers(graph, what, budgets);
    for (const SiteDecision& decision : report->decompose.decisions) {
        if (decision.loop_shape.ring < 2) continue;
        CheckLoopShape(decision.loop_shape,
                       StrCat(what, " ", decision.einsum));
    }
    CheckTopologicalSort(*module->entry(), 7, what);
}

/** One moe_sweep grid point's model (bench/moe_sweep.cpp). */
ModelConfig
MoeModel(int64_t mesh_y, int64_t experts, int64_t micro_batches)
{
    ModelConfig config;
    config.name = StrCat("moe_", 4 * mesh_y, "chip_", experts, "e");
    config.kind = ModelKind::kMoe;
    config.num_layers = 24;
    config.model_dim = 4096;
    config.ff_dim = 32768;
    config.batch_size = 16;
    config.seq_len = 1024;
    config.mesh_x = 4;
    config.mesh_y = mesh_y;
    config.num_chips = config.mesh_x * config.mesh_y;
    config.num_experts = experts;
    config.moe_micro_batches = micro_batches;
    return config;
}

void
CheckModel(const ModelConfig& config, const CompilerOptions& options,
           const std::string& arm)
{
    auto module = BuildLayerStepModule(config);
    ASSERT_TRUE(module.ok()) << module.status().ToString();
    CheckCompiled(module->get(), options, StrCat(config.name, " ", arm));
}

TEST(CompilePathOracleTest, PaperModelsBothArms)
{
    std::vector<ModelConfig> models = Table1Models();
    for (const ModelConfig& config : Table2GptModels()) {
        models.push_back(config);
    }
    for (const ModelConfig& config : models) {
        CheckModel(config, CompilerOptions::Baseline(), "baseline");
        CheckModel(config, CompilerOptions(), "overlap");
    }
}

TEST(CompilePathOracleTest, MoeSweepArms)
{
    for (int64_t ring : {4, 8, 16}) {
        for (int64_t experts : {16, 64}) {
            CompilerOptions blocking;
            blocking.decompose.all_to_all = false;
            CompilerOptions pipelined = blocking;
            pipelined.async_all_to_all = true;
            CheckModel(MoeModel(ring, experts, 1), blocking, "blocking");
            CheckModel(MoeModel(ring, experts, 1), CompilerOptions(),
                       "decomposed");
            CheckModel(MoeModel(ring, experts, 4), pipelined, "pipelined");
        }
    }
}

TEST(CompilePathOracleTest, CalibrationSiteSpace)
{
    // bench/calibration_fit's defaults behind CalibrationFit::Fitted().
    for (const difftest::SiteSpec& spec :
         difftest::CalibrationSiteSpace(/*seed=*/11, /*generated=*/16)) {
        std::string site = difftest::SiteCaseName(spec.site_case);
        auto gated = difftest::BuildSiteModule(spec);
        ASSERT_TRUE(gated.ok()) << gated.status().ToString();
        CheckCompiled(gated->get(), CompilerOptions(), site + " gated");
        for (const difftest::DecomposeVariant& variant :
             difftest::AllDecomposeVariants()) {
            auto module = difftest::BuildSiteModule(spec);
            ASSERT_TRUE(module.ok()) << module.status().ToString();
            CompilerOptions options;
            options.decompose.use_cost_model = false;
            options.decompose.unroll = variant.unroll;
            options.decompose.bidirectional = variant.bidirectional;
            options.decompose.force_unidirectional =
                variant.force_unidirectional;
            CheckCompiled(module->get(), options,
                          StrCat(site, " ", variant.name));
        }
    }
}

/**
 * A random computation over one square shape (equal byte sizes and
 * equal element-wise latencies everywhere): element-wise ops and
 * einsums on random earlier values, async permutes whose Dones land a
 * random distance later, and fused pairs (an op plus a unary consumer
 * sharing a fusion group).
 */
std::unique_ptr<HloModule>
RandomModule(uint64_t seed, int64_t size)
{
    std::mt19937_64 rng(seed);
    Mesh mesh(4);
    auto module = std::make_unique<HloModule>("random");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    const Shape shape(DType::kF32, {16, 16});
    std::vector<HloInstruction*> values;
    for (int64_t p = 0; p < 3; ++p) values.push_back(b.Parameter(p, shape));
    std::vector<HloInstruction*> in_flight;
    auto pick = [&]() { return values[rng() % values.size()]; };
    while (static_cast<int64_t>(comp->instruction_count()) < size) {
        switch (rng() % 6) {
          case 0:
              values.push_back(b.Add(pick(), pick()));
              break;
          case 1:
              values.push_back(b.Einsum(pick(), pick(), "mk,kn->mn"));
              break;
          case 2:
              in_flight.push_back(
                  b.CollectivePermuteStart(pick(), mesh.RingShift(0, 1)));
              break;
          case 3:
              if (!in_flight.empty()) {
                  size_t k = rng() % in_flight.size();
                  values.push_back(b.CollectivePermuteDone(in_flight[k]));
                  in_flight.erase(in_flight.begin() +
                                  static_cast<int64_t>(k));
              }
              break;
          case 4: {
              HloInstruction* head = b.Multiply(pick(), pick());
              HloInstruction* tail = b.Negate(head);
              int64_t group = comp->NextFusionGroupId();
              head->set_fusion_group(group);
              tail->set_fusion_group(group);
              values.push_back(tail);
              break;
          }
          default:
              values.push_back(b.Copy(pick()));
              break;
        }
    }
    for (HloInstruction* start : in_flight) {
        values.push_back(b.CollectivePermuteDone(start));
    }
    comp->set_root(b.Tuple(values));
    return module;
}

TEST(CompilePathOracleTest, RandomGraphsHeavyInTies)
{
    CostModel cost{HardwareSpec{}};
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        auto module = RandomModule(seed, 20 + static_cast<int64_t>(seed) * 4);
        const HloComputation& comp = *module->entry();
        SchedGraph graph(comp, cost);
        std::string what = StrCat("seed ", seed);
        // Budget 0 leaves the top-down scheduler only its fallback of
        // issuing budget-blocked Starts in readiness order.
        std::vector<int64_t> budgets = {0};
        budgets.insert(budgets.end(), std::begin(kBudgets),
                       std::end(kBudgets));
        CheckSchedulers(graph, what, budgets);
        // A shuffled tie order exercises the input-position keys on
        // orders the baseline would never produce.
        std::vector<SchedUnit*> shuffled;
        for (const auto& unit : graph.units()) shuffled.push_back(unit.get());
        std::shuffle(shuffled.begin(), shuffled.end(),
                     std::mt19937_64(seed));
        CheckSchedulers(graph, what + " shuffled", budgets, &shuffled);
        CheckTopologicalSort(comp, seed, what);
    }
}

/**
 * A random replay graph with coarse, tie-prone costs: compute seconds
 * and wire times from {0, 1, 2}, arrival latencies from {0, 0.5},
 * directions from {-1, 0, 1}, and dependencies on random earlier units
 * (Dones included); every Done depends on exactly its Start.
 */
std::vector<ReplayUnit>
RandomReplayUnits(uint64_t seed, int count)
{
    std::mt19937_64 rng(seed);
    std::vector<ReplayUnit> units;
    auto deps = [&]() {
        std::vector<int> out;
        int n = static_cast<int>(units.size());
        for (int k = static_cast<int>(rng() % 3); k > 0 && n > 0; --k) {
            int dep = static_cast<int>(rng() % static_cast<uint64_t>(n));
            if (units[static_cast<size_t>(dep)].kind !=
                ReplayUnit::kStart) {
                out.push_back(dep);
            }
        }
        return out;
    };
    while (static_cast<int>(units.size()) < count) {
        ReplayUnit unit;
        unit.deps = deps();
        if (rng() % 3 == 0) {
            unit.kind = ReplayUnit::kStart;
            unit.wire = static_cast<double>(rng() % 3);
            unit.latency = 0.5 * static_cast<double>(rng() % 2);
            unit.direction = static_cast<int>(rng() % 3) - 1;
            units.push_back(unit);
            ReplayUnit done;
            done.kind = ReplayUnit::kDone;
            done.start = static_cast<int>(units.size()) - 1;
            done.deps = {done.start};
            units.push_back(done);
        } else {
            unit.kind = ReplayUnit::kCompute;
            unit.seconds = static_cast<double>(rng() % 3);
            units.push_back(unit);
        }
    }
    return units;
}

TEST(CompilePathOracleTest, RandomReplayGraphsHeavyInTies)
{
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        std::vector<ReplayUnit> units =
            RandomReplayUnits(seed, 8 + static_cast<int>(seed % 40));
        for (int64_t budget : kBudgets) {
            CheckReplay(units, budget, StrCat("seed ", seed));
        }
    }
}

TEST(CompilePathOracleTest, LoopStructuresAcrossRings)
{
    // Every structure the emitter can build, on rings from the 2-device
    // antipodal case up, latency-bound and wire-bound. Odd rings only
    // lower to the structures that do not split the ring in halves.
    for (int s = 0; s < kNumLoopStructures; ++s) {
        const auto structure = static_cast<LoopStructure>(s);
        const bool odd_ok =
            structure == LoopStructure::kAllGatherUnidirectional ||
            structure == LoopStructure::kReduceScatterSingleChain ||
            structure == LoopStructure::kAllToAllDispatch ||
            structure == LoopStructure::kAllToAllCombine;
        for (int64_t ring : {2, 3, 4, 5, 8, 16}) {
            if (ring % 2 == 1 && !odd_ok) continue;
            for (double wire : {0.0, 1e-6, 4e-5}) {
                LoopShape shape;
                shape.structure = structure;
                shape.ring = ring;
                shape.wire_seconds = wire;
                shape.hop_latency_seconds = 1e-6;
                shape.partial_seconds = 1e-5;
                shape.combine_seconds = 2e-6;
                shape.slice_seconds = 1e-6;
                shape.slices_per_partial = s % 2;
                shape.zeros_seconds = 1e-6;
                shape.accumulators = 1 + s % 2;
                shape.copy_seconds = 1e-6;
                shape.has_copies = ring % 2 == 0;
                shape.op_overhead_seconds = 1e-6;
                shape.send_slice_seconds = 1e-6;
                shape.max_in_flight = 32;
                CheckLoopShape(shape,
                               StrCat(LoopStructureName(shape.structure),
                                      " ring=", ring, " wire=", wire));
            }
        }
    }
}

}  // namespace
}  // namespace overlap
