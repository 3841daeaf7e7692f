#include "partition/max_split.hpp"

#include <algorithm>
#include <span>
#include <vector>

namespace rmts {

namespace {

Time max_wcet_binary(const ProcessorState& processor, const Subtask& prototype) {
  // fits() is monotone in the candidate's wcet, so binary search for the
  // largest feasible value.  c = 0 ("assign nothing") is feasible by the
  // caller's invariant that the processor is schedulable as-is.  Each
  // probe reuses the processor's memoized responses (see ProcessorState),
  // so the O(log C) admission checks no longer redo full RTA from zero.
  Time lo = 0;               // highest known-feasible value
  Time hi = prototype.wcet;  // upper bound; may itself be feasible
  Subtask candidate = prototype;
  while (lo < hi) {
    const Time mid = lo + (hi - lo + 1) / 2;  // round up so lo advances
    candidate.wcet = mid;
    if (processor.fits(candidate)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// One hosted higher-priority arrival sequence in the merge sweep.
struct Arrivals {
  Time next;  ///< next release; kTimeInfinity once unrepresentable
  Time period;
  Time wcet;
};

/// Largest c in [0, cap] such that a job (wcet, deadline) interfered by
/// `higher` plus a candidate releasing c every `candidate_period` ticks
/// meets its deadline:
///   max over testing points t of floor((t - wcet - W(t)) / ceil(t / T_c)),
/// with W(t) = sum_j ceil(t / T_j) * C_j the demand of `higher`.  Returns
/// `cap` as soon as the running best reaches it (min(cap, best) can no
/// longer change).
///
/// One pass merges the arrival sequences of `higher` in time order.  W is
/// constant on each gap (a, b] between consecutive arrivals and grows by
/// checked addition as arrivals pass; the closed form is evaluated at
/// every gap end b (the hosted scheduling points and the deadline) and at
/// the last candidate arrival m*T_c before b: on the gap,
/// (m*T_c - wcet - W) / m = T_c - (wcet + W) / m grows with m, so the last
/// arrival dominates every earlier one.  (If that arrival lies in an
/// earlier gap, the current W overstates its demand and the value is a
/// lower bound on one already taken.)  The candidate's arrival count and
/// the improvement test are kept by addition and multiplication; the only
/// division is taken when the best value improves.  Once W overflows int64
/// no later point is admissible, so the pass ends there.
Time max_budget(std::span<const Subtask> higher, Time wcet, Time deadline,
                Time candidate_period, Time cap) {
  thread_local std::vector<Arrivals> streams;
  streams.clear();
  Time demand = 0;  // W on the current gap: every job released before it
  Time t = deadline;
  for (const Subtask& j : higher) {
    if (__builtin_add_overflow(demand, j.wcet, &demand)) return 0;
    streams.push_back({j.period, j.period, j.wcet});
    t = std::min(t, j.period);
  }

  Time best = 0;
  // floor(slack / jobs) > best  <=>  slack >= (best + 1) * jobs.
  const auto consider = [&best](Time slack, Time jobs) {
    Time bar = 0;
    if (!__builtin_mul_overflow(best + 1, jobs, &bar) && slack >= bar) {
      best = slack / jobs;
    }
  };
  Time released = 0;  // candidate releases m*T_c < t, m >= 1
  Time last_release = 0;
  Time next_release = candidate_period;  // kTimeInfinity once unrepresentable
  while (true) {
    while (next_release < t) {
      last_release = next_release;
      ++released;
      if (__builtin_add_overflow(next_release, candidate_period, &next_release)) {
        next_release = kTimeInfinity;
      }
    }
    // A non-positive slack at t rules out the earlier release too (W no
    // smaller, time smaller), and keeps the subtractions in range.
    if (demand < t - wcet) {
      consider(t - wcet - demand, released + 1);
      if (released > 0) consider(last_release - wcet - demand, released);
      if (best >= cap) return cap;
    }
    if (t == deadline) return best;
    // Pass the releases at t; the next gap ends at the earliest one after.
    Time next = deadline;
    for (Arrivals& s : streams) {
      if (s.next == t) {
        if (__builtin_add_overflow(demand, s.wcet, &demand)) return best;
        if (__builtin_add_overflow(s.next, s.period, &s.next)) {
          s.next = kTimeInfinity;
        }
      }
      next = std::min(next, s.next);
    }
    t = next;
  }
}

Time max_wcet_points(const ProcessorState& processor, const Subtask& prototype) {
  const std::span<const Subtask> hosted = processor.subtasks();
  const auto pos_it = std::lower_bound(
      hosted.begin(), hosted.end(), prototype,
      [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
  const auto pos = static_cast<std::size_t>(pos_it - hosted.begin());

  // The prototype's own job under its higher-priority hosts (a period of
  // kTimeInfinity releases it once), then every lower-priority host with
  // the prototype as an extra interferer.
  Time budget = max_budget(hosted.first(pos), 0, prototype.deadline,
                           kTimeInfinity, prototype.wcet);
  for (std::size_t i = pos; i < hosted.size() && budget > 0; ++i) {
    budget = max_budget(hosted.first(i), hosted[i].wcet, hosted[i].deadline,
                        prototype.period, budget);
  }
  return budget;
}

}  // namespace

Time max_admissible_wcet(const ProcessorState& processor,
                         const Subtask& prototype, MaxSplitMethod method) {
  if (prototype.deadline <= 0 || prototype.wcet <= 0) return 0;
  switch (method) {
    case MaxSplitMethod::kBinarySearch:
      return max_wcet_binary(processor, prototype);
    case MaxSplitMethod::kSchedulingPoints:
      return max_wcet_points(processor, prototype);
  }
  return 0;  // unreachable
}

}  // namespace rmts
