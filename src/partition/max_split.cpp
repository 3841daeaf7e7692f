#include "partition/max_split.hpp"

#include <algorithm>
#include <cassert>
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
///
/// The pass starts just after `start`, a lower bound on the job's
/// candidate-free response time (0 when none is known): every t <= start
/// has wcet + W(t) >= t, so no point there admits a positive prefix.
/// Starting costs one division per arrival sequence: the releases at or
/// before `start` are counted in closed form, with the same checked
/// arithmetic as the sweep.
Time max_budget(std::span<const Subtask> higher, Time wcet, Time deadline,
                Time candidate_period, Time cap, Time start) {
  thread_local std::vector<Arrivals> streams;
  streams.clear();
  Time demand = 0;  // W on the current gap: every job released before it
  Time t = deadline;
  for (const Subtask& j : higher) {
    // k releases at 0, T_j, ..., (k-1)*T_j <= start; the next is k*T_j.
    const Time k = start / j.period + 1;
    Time jobs_demand = 0;
    if (__builtin_mul_overflow(k, j.wcet, &jobs_demand) ||
        __builtin_add_overflow(demand, jobs_demand, &demand)) {
      return 0;  // W overflows by start: no point admits a prefix
    }
    Time next = 0;
    if (__builtin_mul_overflow(k, j.period, &next)) next = kTimeInfinity;
    streams.push_back({next, j.period, j.wcet});
    t = std::min(t, next);
  }

  Time best = 0;
  // floor(slack / jobs) > best  <=>  slack >= (best + 1) * jobs.
  const auto consider = [&best](Time slack, Time jobs) {
    Time bar = 0;
    if (!__builtin_mul_overflow(best + 1, jobs, &bar) && slack >= bar) {
      best = slack / jobs;
    }
  };
  // Candidate releases m*T_c < t, m >= 1; those at or before start first.
  Time released = start / candidate_period;
  Time last_release = released * candidate_period;  // <= start
  Time next_release = 0;  // kTimeInfinity once unrepresentable
  if (__builtin_add_overflow(last_release, candidate_period, &next_release)) {
    next_release = kTimeInfinity;
  }
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

  // Each lower-priority host i keeps its deadline only if the prefix fits
  // in its slack: with c added, its response grows to at least R_i + c.
  // R_i is its candidate-free response, exact in the admission cache.
  thread_local std::vector<Time> responses;
  responses.clear();
  Time budget = prototype.wcet;
  for (std::size_t i = pos; i < hosted.size(); ++i) {
    const Time response = processor.response_time_of(i);
    assert(response <= hosted[i].deadline);  // schedulable by precondition
    responses.push_back(response);
    budget = std::min(budget, hosted[i].deadline - response);
  }
  if (budget <= 0) return 0;

  // The prototype's own job under its higher-priority hosts (a period of
  // kTimeInfinity releases it once), then every lower-priority host with
  // the prototype as an extra interferer, each swept from its response.
  budget = max_budget(hosted.first(pos), 0, prototype.deadline,
                      kTimeInfinity, budget, 0);
  for (std::size_t i = pos; i < hosted.size() && budget > 0; ++i) {
    budget = max_budget(hosted.first(i), hosted[i].wcet, hosted[i].deadline,
                        prototype.period, budget, responses[i - pos]);
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
