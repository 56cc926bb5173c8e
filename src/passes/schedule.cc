#include "passes/schedule.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>

#include "hlo/verifier.h"
#include "support/strings.h"

namespace overlap {
namespace {

/** Output bytes a unit keeps live (its kernel's result buffer). */
int64_t
UnitOutputBytes(const SchedUnit* unit)
{
    return unit->members.back()->shape().byte_size();
}

/** Min-heap of plain keys (positions or (key, tie) pairs). */
template <typename T>
using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<T>>;

/** Each unit's position in `input`, indexed by SchedUnit::id. */
std::vector<int64_t>
InputPositions(const SchedGraph& graph, const std::vector<SchedUnit*>& input)
{
    OVERLAP_CHECK(input.size() == graph.units().size());
    std::vector<int64_t> position(input.size());
    for (size_t i = 0; i < input.size(); ++i) {
        position[static_cast<size_t>(input[i]->id)] =
            static_cast<int64_t>(i);
    }
    return position;
}

}  // namespace

std::vector<SchedUnit*>
BaselineMemorySchedule(const SchedGraph& graph)
{
    const auto& units = graph.units();
    const size_t n = units.size();
    std::vector<int64_t> missing(n);
    std::vector<int64_t> remaining_users(n);
    std::vector<int64_t> delta(n);
    std::vector<bool> scheduled(n, false);
    for (const auto& unit : units) {
        size_t id = static_cast<size_t>(unit->id);
        missing[id] = static_cast<int64_t>(unit->operands.size());
        remaining_users[id] = static_cast<int64_t>(unit->users.size());
    }
    // Greedy: smallest live-memory delta; ties by program order (id).
    // A ready unit's delta only ever decreases (when one of its
    // operands drops to one remaining user), so each decrease pushes a
    // fresh entry and the superseded, larger ones are skipped once the
    // unit has been scheduled.
    MinHeap<std::pair<int64_t, int64_t>> ready;
    auto make_ready = [&](const SchedUnit* unit) {
        int64_t d = UnitOutputBytes(unit);
        for (const SchedUnit* operand : unit->operands) {
            if (remaining_users[static_cast<size_t>(operand->id)] == 1) {
                d -= UnitOutputBytes(operand);
            }
        }
        delta[static_cast<size_t>(unit->id)] = d;
        ready.push({d, unit->id});
    };
    for (const auto& unit : units) {
        if (unit->operands.empty()) make_ready(unit.get());
    }
    std::vector<SchedUnit*> order;
    order.reserve(n);
    while (!ready.empty()) {
        size_t id = static_cast<size_t>(ready.top().second);
        ready.pop();
        if (scheduled[id]) continue;
        scheduled[id] = true;
        SchedUnit* unit = units[id].get();
        order.push_back(unit);
        for (const SchedUnit* operand : unit->operands) {
            if (--remaining_users[static_cast<size_t>(operand->id)] != 1) {
                continue;
            }
            // The operand's last user now frees it: if that user is
            // already ready its delta drops by the operand's bytes.
            for (const SchedUnit* user : operand->users) {
                size_t u = static_cast<size_t>(user->id);
                if (scheduled[u] || missing[u] != 0) continue;
                delta[u] -= UnitOutputBytes(operand);
                ready.push({delta[u], user->id});
            }
        }
        for (const SchedUnit* user : unit->users) {
            if (--missing[static_cast<size_t>(user->id)] == 0) {
                make_ready(user);
            }
        }
    }
    OVERLAP_CHECK(order.size() == n);
    return order;
}

std::vector<SchedUnit*>
BottomUpSchedule(const SchedGraph& graph,
                 const std::vector<SchedUnit*>& input, int64_t max_in_flight)
{
    // Algorithm 2: schedule in reverse from the dataflow roots so that
    // (after the final reversal) Dones land as late and Starts as early
    // as possible.
    const auto& units = graph.units();
    const size_t n = units.size();
    const std::vector<int64_t> input_pos = InputPositions(graph, input);
    // Two distinct time roles: the reverse clock advances only by kernel
    // latency (a Done unit itself takes no device time), while the
    // ready-time an operand inherits from a Done user includes the wire
    // time — that spacing is what holds the matching Start in the
    // pending queue until enough computation has been scheduled between
    // them to hide the transfer.
    auto spacing_latency = [](const SchedUnit* u) {
        return u->IsAsyncDone() ? u->transfer_seconds : u->latency;
    };

    std::vector<int64_t> unscheduled_users(n);
    std::vector<double> ready_time(n, 0.0);
    // Earliest reverse-clock time each Start may be scheduled: anchored
    // to the clock value at which its Done was scheduled (not to the
    // Done's ready_time), so that pending-queue jumps on one ring chain
    // do not let another chain's Start slip in right after its Done and
    // serialize the transfers.
    std::vector<double> start_allowed(
        n, -std::numeric_limits<double>::infinity());

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

    // Available units wait in `pending` until the reverse clock passes
    // their ready time (earliest first, ties to the later input
    // position), then join their class's `ready` heap (later input
    // position first). The clock never runs backwards, so a unit never
    // leaves its ready heap except by being scheduled.
    MinHeap<std::pair<double, int64_t>> pending;  // (ready_time, -pos)
    std::priority_queue<int64_t> ready[4];         // input positions
    auto make_available = [&](const SchedUnit* unit) {
        pending.push({ready_time[static_cast<size_t>(unit->id)],
                      -input_pos[static_cast<size_t>(unit->id)]});
    };
    for (const auto& unit : units) {
        unscheduled_users[static_cast<size_t>(unit->id)] =
            static_cast<int64_t>(unit->users.size());
        if (unit->users.empty()) make_available(unit.get());
    }

    std::vector<SchedUnit*> reversed;
    reversed.reserve(n);
    double current_time = 0.0;
    int64_t in_flight = 0;

    auto pop = [](std::priority_queue<int64_t>& heap) {
        int64_t pos = heap.top();
        heap.pop();
        return pos;
    };
    while (!pending.empty() || !ready[0].empty() || !ready[1].empty() ||
           !ready[2].empty() || !ready[3].empty()) {
        while (!pending.empty() && pending.top().first <= current_time) {
            SchedUnit* unit =
                input[static_cast<size_t>(-pending.top().second)];
            pending.pop();
            ready[priority_class(unit)].push(
                input_pos[static_cast<size_t>(unit->id)]);
        }
        // Select: best priority among time-ready candidates; if none is
        // time-ready, the pending unit that becomes ready first. With
        // the in-flight budget exhausted a Done counts as ordinary
        // work (class 3).
        const bool budget_exhausted = in_flight >= max_in_flight;
        int64_t pos;
        if (!budget_exhausted && !ready[0].empty()) {
            pos = pop(ready[0]);
        } else if (!ready[1].empty()) {
            pos = pop(ready[1]);
        } else if (!ready[2].empty()) {
            pos = pop(ready[2]);
        } else if (budget_exhausted && !ready[0].empty() &&
                   (ready[3].empty() || ready[0].top() > ready[3].top())) {
            pos = pop(ready[0]);
        } else if (!ready[3].empty()) {
            pos = pop(ready[3]);
        } else {
            pos = -pending.top().second;
            pending.pop();
        }
        SchedUnit* candidate = input[static_cast<size_t>(pos)];
        const size_t c = static_cast<size_t>(candidate->id);
        reversed.push_back(candidate);
        if (candidate->IsAsyncStart()) --in_flight;
        current_time = std::max(current_time, ready_time[c]) +
                       candidate->latency;
        if (candidate->IsAsyncDone()) {
            ++in_flight;
            start_allowed[static_cast<size_t>(
                candidate->operands.front()->id)] =
                current_time + candidate->transfer_seconds;
        }
        for (const SchedUnit* operand : candidate->operands) {
            const size_t o = static_cast<size_t>(operand->id);
            if (--unscheduled_users[o] != 0) continue;
            double rt = 0.0;
            for (const SchedUnit* user : operand->users) {
                rt = std::max(rt, ready_time[static_cast<size_t>(user->id)] +
                                      spacing_latency(user));
            }
            ready_time[o] = std::max(rt, start_allowed[o]);
            make_available(operand);
        }
    }
    OVERLAP_CHECK(reversed.size() == n);
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
    const auto& units = graph.units();
    const size_t n = units.size();
    const std::vector<int64_t> input_pos = InputPositions(graph, input);
    std::vector<int64_t> missing(n);
    std::vector<double> arrival(n, 0.0);
    std::vector<bool> emitted(n, false);

    // Ready units by kind. Starts sit both in an input-order heap
    // (rule 1) and in a FIFO of readiness order (the budget-blocked
    // fallback); each drops its copy in the other lazily. Dones are
    // ordered by their transfer's arrival, ties to the one that became
    // ready first.
    MinHeap<int64_t> starts;          // input positions
    std::vector<int64_t> start_fifo;  // unit ids
    size_t fifo_head = 0;
    // Dones as (arrival, readiness sequence, unit id).
    MinHeap<std::tuple<double, int64_t, int64_t>> dones;
    int64_t done_seq = 0;
    MinHeap<int64_t> others;  // input positions
    int64_t ready_count = 0;
    auto make_ready = [&](const SchedUnit* unit) {
        const size_t id = static_cast<size_t>(unit->id);
        ++ready_count;
        if (unit->IsAsyncStart()) {
            starts.push(input_pos[id]);
            start_fifo.push_back(unit->id);
        } else if (unit->IsAsyncDone()) {
            dones.push({arrival[static_cast<size_t>(
                            unit->operands.front()->id)],
                        done_seq++, unit->id});
        } else {
            others.push(input_pos[id]);
        }
    };
    for (const auto& unit : units) {
        missing[static_cast<size_t>(unit->id)] =
            static_cast<int64_t>(unit->operands.size());
        if (unit->operands.empty()) make_ready(unit.get());
    }
    std::vector<SchedUnit*> order;
    order.reserve(n);
    int64_t in_flight = 0;

    // Eagerly issuing every ready Start would flood the links with the
    // first hops of all chains at once, so the ASAP rule runs under a
    // small self-imposed window in addition to the hardware budget. A
    // Done is released once the estimated clock passes its transfer's
    // arrival — deferring it maximally would also defer the next ring
    // hop's Start, which depends on it.
    const int64_t eager_window = std::min<int64_t>(max_in_flight, 6);
    double clock = 0.0;
    auto drop_emitted_starts = [&]() {
        while (!starts.empty() &&
               emitted[static_cast<size_t>(
                   input[static_cast<size_t>(starts.top())]->id)]) {
            starts.pop();
        }
        while (fifo_head < start_fifo.size() &&
               emitted[static_cast<size_t>(start_fifo[fifo_head])]) {
            ++fifo_head;
        }
    };
    while (ready_count > 0) {
        drop_emitted_starts();
        SchedUnit* pick = nullptr;
        if (!starts.empty() && in_flight < eager_window) {
            // Rule 1: issue ready Starts as early as possible.
            pick = input[static_cast<size_t>(starts.top())];
            starts.pop();
        } else if (!dones.empty() &&
                   (std::get<0>(dones.top()) <= clock || others.empty())) {
            // Rule 2: release Dones whose transfer has (estimatedly)
            // landed, earliest arrival first. Rule 4: with no other
            // work, wait on the oldest outstanding transfer.
            pick = units[static_cast<size_t>(std::get<2>(dones.top()))]
                       .get();
            dones.pop();
        } else if (!others.empty()) {
            // Rule 3: other work in input order.
            pick = input[static_cast<size_t>(others.top())];
            others.pop();
        } else {
            // Budget-blocked Starts: the one that became ready first.
            pick = units[static_cast<size_t>(start_fifo[fifo_head])].get();
        }
        const size_t p = static_cast<size_t>(pick->id);
        if (pick->IsAsyncStart()) {
            arrival[p] = clock + pick->transfer_seconds;
        }
        if (pick->IsAsyncDone()) {
            clock = std::max(
                clock,
                arrival[static_cast<size_t>(pick->operands.front()->id)]);
        }
        clock += pick->latency;
        emitted[p] = true;
        --ready_count;
        order.push_back(pick);
        if (pick->IsAsyncStart()) ++in_flight;
        if (pick->IsAsyncDone()) --in_flight;
        for (const SchedUnit* user : pick->users) {
            if (--missing[static_cast<size_t>(user->id)] == 0) {
                make_ready(user);
            }
        }
    }
    OVERLAP_CHECK(order.size() == n);
    return order;
}

Status
ScheduleComputation(HloComputation* computation, const CostModel& cost,
                    SchedulerKind kind)
{
    SchedGraph graph(*computation, cost);
    std::vector<SchedUnit*> baseline = BaselineMemorySchedule(graph);
    std::vector<SchedUnit*> order;
    switch (kind) {
      case SchedulerKind::kBaselineOnly:
          order = std::move(baseline);
          break;
      case SchedulerKind::kBottomUp:
          order = BottomUpSchedule(graph, baseline,
                                   cost.spec().max_in_flight_async);
          break;
      case SchedulerKind::kTopDown:
          order = TopDownSchedule(graph, baseline,
                                  cost.spec().max_in_flight_async);
          break;
    }
    std::vector<HloInstruction*> schedule =
        SchedGraph::ExpandToInstructions(order);
    computation->set_schedule(std::move(schedule));
    Status verified = VerifySchedule(*computation);
    if (!verified.ok()) {
        computation->clear_schedule();
        return Internal(StrCat("scheduler produced an invalid order: ",
                               verified.message()));
    }
    return Status::Ok();
}

}  // namespace overlap
