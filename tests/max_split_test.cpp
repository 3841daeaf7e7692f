// MaxSplit (Definition 3): hand-computed values, the bottleneck property
// (Definition 2), and equivalence of the binary-search and
// scheduling-point implementations on randomized processors.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "partition/max_split.hpp"
#include "partition/processor_state.hpp"

namespace rmts {
namespace {

constexpr auto kBinary = MaxSplitMethod::kBinarySearch;
constexpr auto kPoints = MaxSplitMethod::kSchedulingPoints;

Subtask make_subtask(std::size_t priority, Time wcet, Time period,
                     Time deadline = 0) {
  return Subtask{priority,
                 static_cast<TaskId>(priority),
                 0,
                 wcet,
                 period,
                 deadline == 0 ? period : deadline,
                 SubtaskKind::kWhole};
}

TEST(MaxSplit, EmptyProcessorGivesFullBudget) {
  const ProcessorState empty;
  const Subtask candidate = make_subtask(3, 80, 100);
  EXPECT_EQ(max_admissible_wcet(empty, candidate, kBinary), 80);
  EXPECT_EQ(max_admissible_wcet(empty, candidate, kPoints), 80);
}

TEST(MaxSplit, EmptyProcessorCappedByDeadline) {
  const ProcessorState empty;
  const Subtask candidate = make_subtask(3, 90, 100, 40);  // Delta = 40 < C
  EXPECT_EQ(max_admissible_wcet(empty, candidate, kBinary), 40);
  EXPECT_EQ(max_admissible_wcet(empty, candidate, kPoints), 40);
}

// Hand example: hosted (C=50, T=100); candidate period 40.  Testing points
// {40, 80, 100}: max floor((t - 50) / ceil(t/40)) = max(-, 15, 16) = 16.
TEST(MaxSplit, HandComputedValue) {
  ProcessorState processor;
  processor.add(make_subtask(5, 50, 100));
  const Subtask candidate = make_subtask(2, 40, 40);
  EXPECT_EQ(max_admissible_wcet(processor, candidate, kBinary), 16);
  EXPECT_EQ(max_admissible_wcet(processor, candidate, kPoints), 16);
}

TEST(MaxSplit, ZeroWhenNothingFits) {
  ProcessorState processor;
  processor.add(make_subtask(5, 100, 100));  // fully loaded
  const Subtask candidate = make_subtask(2, 10, 50);
  EXPECT_EQ(max_admissible_wcet(processor, candidate, kBinary), 0);
  EXPECT_EQ(max_admissible_wcet(processor, candidate, kPoints), 0);
}

TEST(MaxSplit, NonPositiveDeadlineYieldsZero) {
  const ProcessorState empty;
  Subtask candidate = make_subtask(2, 10, 50);
  candidate.deadline = 0;
  EXPECT_EQ(max_admissible_wcet(empty, candidate, kBinary), 0);
  candidate.deadline = -5;
  EXPECT_EQ(max_admissible_wcet(empty, candidate, kPoints), 0);
}

TEST(MaxSplit, CandidateOwnDeadlineWithInterference) {
  // hp (C=20, T=100) above the candidate; candidate D=60 -> self budget 40.
  ProcessorState processor;
  processor.add(make_subtask(1, 20, 100));
  const Subtask candidate = make_subtask(4, 100, 100, 60);
  EXPECT_EQ(max_admissible_wcet(processor, candidate, kBinary), 40);
  EXPECT_EQ(max_admissible_wcet(processor, candidate, kPoints), 40);
}

TEST(MaxSplit, MidPriorityCandidateConstrainedBothWays) {
  // hp (10, 50) interferes with the candidate; lp (30, 200) is interfered
  // by it.  Both constraints must hold simultaneously.
  ProcessorState processor;
  processor.add(make_subtask(0, 10, 50));
  processor.add(make_subtask(9, 30, 200));
  const Subtask candidate = make_subtask(4, 70, 70);
  const Time budget = max_admissible_wcet(processor, candidate, kPoints);
  EXPECT_EQ(max_admissible_wcet(processor, candidate, kBinary), budget);
  ASSERT_GT(budget, 0);
  ASSERT_LT(budget, 70);
  Subtask fitted = candidate;
  fitted.wcet = budget;
  EXPECT_TRUE(processor.fits(fitted));
  fitted.wcet = budget + 1;
  EXPECT_FALSE(processor.fits(fitted));
}

// Both methods agree, and the result leaves a bottleneck: it fits and one
// more tick does not (Definition 2).
void expect_exact_bottleneck(const ProcessorState& processor,
                             const Subtask& candidate, Time expected) {
  const Time points = max_admissible_wcet(processor, candidate, kPoints);
  EXPECT_EQ(points, expected);
  EXPECT_EQ(max_admissible_wcet(processor, candidate, kBinary), expected);
  ASSERT_GT(expected, 0);
  ASSERT_LT(expected, candidate.wcet);
  Subtask fitted = candidate;
  fitted.wcet = expected;
  EXPECT_TRUE(processor.fits(fitted));
  fitted.wcet = expected + 1;
  EXPECT_FALSE(processor.fits(fitted));
}

// hp (10, 100) above lp (100, 300); candidate period 90.  For lp the
// hosted points are {100, 200, 300} with W = 10, 20, 30 on the gaps
// before them.  The optimum floor((270 - 100 - 30) / 3) = 46 sits at the
// candidate arrival 270, strictly inside (200, 300]; the hosted points
// alone give only max(-, 26, 42) = 42.
TEST(MaxSplit, OptimumAtCandidateArrivalBetweenHostedPoints) {
  ProcessorState processor;
  processor.add(make_subtask(1, 10, 100));
  processor.add(make_subtask(2, 100, 300));
  expect_exact_bottleneck(processor, make_subtask(0, 90, 90), 46);
}

// hp (10, 1000) above lp (100, 2000); candidate period 90.  The gap
// (1000, 2000] holds the candidate arrivals 1080, ..., 1980 (m = 12..22)
// under W = 20: (m*90 - 120) / m grows with m, so the last one, 1980,
// gives floor(1860 / 22) = 84 while the first gives 80 and the point
// 2000 gives floor(1880 / 23) = 81.
TEST(MaxSplit, OptimumAtLastArrivalOfGap) {
  ProcessorState processor;
  processor.add(make_subtask(1, 10, 1000));
  processor.add(make_subtask(2, 100, 2000));
  expect_exact_bottleneck(processor, make_subtask(0, 90, 90), 84);
}

// Prototype wcet 50, period 100.  The first hosted subtask (10, 1000)
// admits floor((100 - 10) / 1) = 90 >= 50 at the first candidate arrival,
// so its scan stops at the cap; the later (800, 1000) binds at
// floor((1000 - 800 - 10) / 10) = 19.
TEST(MaxSplit, LaterHostedSubtaskBindsAfterEarlyCap) {
  ProcessorState processor;
  processor.add(make_subtask(1, 10, 1000));
  processor.add(make_subtask(2, 800, 1000));
  expect_exact_bottleneck(processor, make_subtask(0, 50, 100), 19);
}

// Overflow-scale demand: hp (2^62 + 1, 3 * 2^61) above lp (2^60,
// kTimeInfinity).  For lp, W overflows int64 once hp's second job is
// released at 3 * 2^61, so no later point -- the deadline included -- is
// admissible.  The bound comes from the point 3 * 2^61 with three
// candidate jobs (period 2^61): floor((2^60 - 1) / 3).
TEST(MaxSplit, SaturatedDemandMatchesBinarySearch) {
  constexpr Time k60 = Time{1} << 60;
  constexpr Time k61 = Time{1} << 61;
  ProcessorState processor;
  processor.add(make_subtask(1, 4 * k60 + 1, 3 * k61));
  processor.add(make_subtask(2, k60, kTimeInfinity));
  expect_exact_bottleneck(processor, make_subtask(0, k61, k61),
                          (k60 - 1) / 3);
}

// hp (7, 40) above lp (35, 400, D = 84); candidate period 58.  lp's
// candidate-free response is R = 35 + 2 * 7 = 49, inside the gap (40, 80]
// of hp's arrivals.  Its best point is that gap's end: floor((80 - 35 -
// 14) / 2) = 15; the deadline 84 under W = 21 gives only 14, and the
// points at or below 49 give nothing.  A sweep starting past R's gap
// would return 14.
TEST(MaxSplit, OptimumInGapContainingResponse) {
  ProcessorState processor;
  processor.add(make_subtask(1, 7, 40));
  processor.add(make_subtask(2, 35, 400, 84));
  ASSERT_EQ(processor.response_time_of(1), 49);
  expect_exact_bottleneck(processor, make_subtask(0, 30, 58), 15);
}

// hp (10, 1000) above lp (50, 1000, D = 100): R = 60, and no hp arrival
// falls in (60, 100].  A candidate with period 200 releases one job before
// lp's deadline, so lp admits exactly its slack D - R = 40: the budget cap
// is the answer.
TEST(MaxSplit, SlackCapIsTheAnswer) {
  ProcessorState processor;
  processor.add(make_subtask(1, 10, 1000));
  processor.add(make_subtask(2, 50, 1000, 100));
  ASSERT_EQ(processor.response_time_of(1), 60);
  expect_exact_bottleneck(processor, make_subtask(0, 100, 200), 40);
}

// remove() shrinks the interferer sets, so the responses MaxSplit starts
// from are re-derived from re-seeded cache entries; the methods must still
// agree on processors churned by try_add() and remove().
TEST(MaxSplit, MethodsAgreeAfterRemovalChurn) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    ProcessorState processor;
    for (int step = 0; step < 16; ++step) {
      if (!processor.empty() && rng.uniform() < 0.3) {
        processor.remove(static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(processor.subtasks().size()) - 1)));
        continue;
      }
      const auto priority = static_cast<std::size_t>(rng.uniform_int(1, 40));
      const auto hosted = processor.subtasks();
      if (std::any_of(hosted.begin(), hosted.end(), [&](const Subtask& s) {
            return s.priority == priority;
          })) {
        continue;
      }
      const Time period = rng.uniform_int(20, 300);
      Subtask s = make_subtask(priority, rng.uniform_int(1, period / 3), period);
      if (rng.uniform() < 0.3) s.deadline = rng.uniform_int(s.wcet, period);
      (void)processor.try_add(s);
    }
    const Time period = rng.uniform_int(20, 300);
    const Subtask candidate = make_subtask(0, rng.uniform_int(1, period), period);
    const Time via_binary = max_admissible_wcet(processor, candidate, kBinary);
    ASSERT_EQ(max_admissible_wcet(processor, candidate, kPoints), via_binary)
        << "trial " << trial;
    if (via_binary < candidate.wcet) {
      Subtask over = candidate;
      over.wcet = via_binary + 1;
      EXPECT_FALSE(processor.fits(over)) << "trial " << trial;
    }
  }
}

// Randomized equivalence + bottleneck property: both implementations agree,
// the result fits, and one more tick does not (Definition 2's bottleneck).
TEST(MaxSplit, MethodsAgreeAndLeaveBottleneck) {
  Rng rng(2024);
  for (int trial = 0; trial < 1000; ++trial) {
    ProcessorState processor;
    const int hosted = static_cast<int>(rng.uniform_int(0, 5));
    // Hosted subtasks with distinct priorities in 1..40; keep the load
    // moderate so some (but not all) candidates fit.
    std::vector<std::size_t> priorities;
    for (int i = 0; i < hosted; ++i) {
      std::size_t priority;
      do {
        priority = static_cast<std::size_t>(rng.uniform_int(1, 40));
      } while (std::find(priorities.begin(), priorities.end(), priority) !=
               priorities.end());
      priorities.push_back(priority);
      const Time period = rng.uniform_int(20, 300);
      Subtask s = make_subtask(priority, rng.uniform_int(1, period / 3), period);
      if (rng.uniform() < 0.3) {
        s.deadline = rng.uniform_int(s.wcet, period);  // synthetic deadline
        s.kind = SubtaskKind::kTail;
      }
      if (!processor.fits(s)) continue;  // keep the invariant: schedulable
      processor.add(s);
    }
    std::size_t cand_priority;
    do {
      cand_priority = static_cast<std::size_t>(rng.uniform_int(0, 41));
    } while (std::find(priorities.begin(), priorities.end(), cand_priority) !=
             priorities.end());
    const Time period = rng.uniform_int(20, 300);
    Subtask candidate = make_subtask(cand_priority, rng.uniform_int(1, period), period);
    if (rng.uniform() < 0.3) {
      candidate.deadline = rng.uniform_int(1, period);
    }

    const Time via_binary = max_admissible_wcet(processor, candidate, kBinary);
    const Time via_points = max_admissible_wcet(processor, candidate, kPoints);
    ASSERT_EQ(via_binary, via_points) << "trial " << trial;

    if (via_binary > 0) {
      Subtask fitted = candidate;
      fitted.wcet = via_binary;
      EXPECT_TRUE(processor.fits(fitted)) << "trial " << trial;
    }
    if (via_binary < candidate.wcet) {
      Subtask over = candidate;
      over.wcet = via_binary + 1;
      EXPECT_FALSE(processor.fits(over)) << "trial " << trial;
    }
  }
}

TEST(MaxSplit, MonotoneInHostedLoad) {
  // Adding load to the processor can only shrink the admissible budget.
  ProcessorState light;
  light.add(make_subtask(5, 20, 100));
  ProcessorState heavy = light;
  heavy.add(make_subtask(7, 30, 150));
  const Subtask candidate = make_subtask(2, 60, 60);
  EXPECT_GE(max_admissible_wcet(light, candidate, kPoints),
            max_admissible_wcet(heavy, candidate, kPoints));
}

TEST(ProcessorState, AddMaintainsPriorityOrderAndUtilization) {
  ProcessorState processor;
  processor.add(make_subtask(5, 10, 100));
  processor.add(make_subtask(1, 10, 50));
  processor.add(make_subtask(9, 10, 200));
  ASSERT_EQ(processor.subtasks().size(), 3u);
  EXPECT_EQ(processor.subtasks()[0].priority, 1u);
  EXPECT_EQ(processor.subtasks()[1].priority, 5u);
  EXPECT_EQ(processor.subtasks()[2].priority, 9u);
  EXPECT_NEAR(processor.utilization(), 0.1 + 0.2 + 0.05, 1e-12);
}

TEST(ProcessorState, FitsMatchesFullReanalysis) {
  Rng rng(55);
  for (int trial = 0; trial < 500; ++trial) {
    ProcessorState processor;
    std::vector<Subtask> all;
    for (int i = 0; i < 4; ++i) {
      const Time period = rng.uniform_int(20, 200);
      Subtask s = make_subtask(static_cast<std::size_t>(i * 2 + 1),
                               rng.uniform_int(1, period / 4), period);
      if (processor.fits(s)) {
        processor.add(s);
        all.push_back(s);
      }
    }
    const Time period = rng.uniform_int(20, 200);
    const Subtask candidate =
        make_subtask(static_cast<std::size_t>(rng.uniform_int(0, 4)) * 2,
                     rng.uniform_int(1, period), period);
    // Reference: full re-analysis of the merged, sorted list.
    std::vector<Subtask> merged = all;
    merged.push_back(candidate);
    std::sort(merged.begin(), merged.end(),
              [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
    EXPECT_EQ(processor.fits(candidate), processor_schedulable(merged))
        << "trial " << trial;
  }
}

TEST(ProcessorState, ResponseTimeOfMatchesAnalyzeProcessor) {
  ProcessorState processor;
  processor.add(make_subtask(1, 20, 100));
  processor.add(make_subtask(4, 40, 150));
  const ProcessorRta rta = analyze_processor(processor.subtasks());
  ASSERT_TRUE(rta.schedulable);
  EXPECT_EQ(processor.response_time_of(0), rta.response[0]);
  EXPECT_EQ(processor.response_time_of(1), rta.response[1]);
}

TEST(ProcessorState, FullFlag) {
  ProcessorState processor;
  EXPECT_FALSE(processor.full());
  processor.mark_full();
  EXPECT_TRUE(processor.full());
}

}  // namespace
}  // namespace rmts
