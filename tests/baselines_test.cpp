// Strict-partitioning and global baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "bounds/bound.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "helpers.hpp"
#include "partition/baselines.hpp"
#include "partition/policies.hpp"
#include "partition/processor_state.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

TEST(PartitionedRm, NameEncodesConfiguration) {
  EXPECT_EQ(PartitionedRm(FitPolicy::kFirstFit, TaskOrder::kDecreasingUtilization,
                          Admission::kExactRta)
                .name(),
            "P-RM-FFD/rta");
  EXPECT_EQ(PartitionedRm(FitPolicy::kWorstFit, TaskOrder::kRateMonotonic,
                          Admission::kLiuLayland)
                .name(),
            "P-RM-WFrm/ll");
}

TEST(PartitionedRm, NeverSplits) {
  Rng rng(1);
  WorkloadConfig config;
  config.tasks = 10;
  config.processors = 3;
  config.normalized_utilization = 0.6;
  Rng sample = rng.fork(0);
  const TaskSet tasks = generate(sample, config);
  const PartitionedRm ff(FitPolicy::kFirstFit, TaskOrder::kDecreasingUtilization,
                         Admission::kExactRta);
  const Assignment a = ff.partition(tasks, 3);
  EXPECT_EQ(a.split_task_count(), 0u);
}

TEST(PartitionedRm, ExactRtaAcceptsHarmonicFullProcessors) {
  // Two processors, each packed to exactly 100% with harmonic tasks:
  // only exact admission accepts this.
  const TaskSet tasks = TaskSet::from_pairs(
      {{500, 1000}, {500, 1000}, {1000, 2000}, {1000, 2000}});
  const PartitionedRm rta(FitPolicy::kFirstFit, TaskOrder::kDecreasingUtilization,
                          Admission::kExactRta);
  const PartitionedRm ll(FitPolicy::kFirstFit, TaskOrder::kDecreasingUtilization,
                         Admission::kLiuLayland);
  EXPECT_TRUE(rta.accepts(tasks, 2));
  EXPECT_FALSE(ll.accepts(tasks, 2));
}

TEST(PartitionedRm, HyperbolicBetweenLlAndRta) {
  // (0.5+1)(0.343+1) = 2.015 > 2: hyperbolic rejects co-location, the
  // utilization 0.843 > Theta(2) = 0.828 means LL rejects too, while exact
  // RTA accepts -- (500,1000) & (350,1020): R2 = 350 + 500 = 850 <= 1020.
  const TaskSet tasks = TaskSet::from_pairs({{500, 1000}, {350, 1020}});
  const PartitionedRm rta(FitPolicy::kFirstFit, TaskOrder::kRateMonotonic,
                          Admission::kExactRta);
  const PartitionedRm hb(FitPolicy::kFirstFit, TaskOrder::kRateMonotonic,
                         Admission::kHyperbolic);
  const PartitionedRm ll(FitPolicy::kFirstFit, TaskOrder::kRateMonotonic,
                         Admission::kLiuLayland);
  EXPECT_TRUE(rta.accepts(tasks, 1));
  EXPECT_FALSE(hb.accepts(tasks, 1));
  EXPECT_FALSE(ll.accepts(tasks, 1));
}

TEST(PartitionedRm, HyperbolicAcceptsWhatLlRejects) {
  // U = {0.5, 0.33}: sum 0.83 > Theta(2) = 0.828, but
  // (1.5)(1.33) = 1.995 <= 2.
  const TaskSet tasks = TaskSet::from_pairs({{500, 1000}, {330, 1000}});
  const PartitionedRm hb(FitPolicy::kFirstFit, TaskOrder::kRateMonotonic,
                         Admission::kHyperbolic);
  const PartitionedRm ll(FitPolicy::kFirstFit, TaskOrder::kRateMonotonic,
                         Admission::kLiuLayland);
  EXPECT_TRUE(hb.accepts(tasks, 1));
  EXPECT_FALSE(ll.accepts(tasks, 1));
}

TEST(PartitionedRm, BestFitPacksTightestBin) {
  const TaskSet tasks = TaskSet::from_pairs({{500, 1000}, {200, 1000}, {300, 1000}});
  const PartitionedRm bf(FitPolicy::kBestFit, TaskOrder::kDecreasingUtilization,
                         Admission::kExactRta);
  const Assignment a = bf.partition(tasks, 2);
  ASSERT_TRUE(a.success);
  // Best-fit keeps stacking the fullest admissible bin: with equal periods
  // all three tasks RTA-fit on one processor (total exactly 1.0).
  EXPECT_EQ(a.processors[0].subtasks.size(), 3u);
  EXPECT_TRUE(a.processors[1].subtasks.empty());
}

TEST(PartitionedRm, WorstFitBalances) {
  const TaskSet tasks = TaskSet::from_pairs({{500, 1000}, {200, 1000}, {300, 1000}});
  const PartitionedRm wf(FitPolicy::kWorstFit, TaskOrder::kDecreasingUtilization,
                         Admission::kExactRta);
  const Assignment a = wf.partition(tasks, 2);
  ASSERT_TRUE(a.success);
  EXPECT_EQ(a.processors[0].subtasks.size(), 1u);  // 0.5 alone
  EXPECT_EQ(a.processors[1].subtasks.size(), 2u);  // 0.3 + 0.2
}

TEST(PartitionedRm, FailureKeepsGoingAndListsEveryMisfit) {
  // Strict partitioning reports *all* unplaceable tasks, not just the first.
  const TaskSet tasks = TaskSet::from_pairs(
      {{600, 1000}, {600, 1000}, {600, 1000}, {600, 1000}});
  const PartitionedRm ff(FitPolicy::kFirstFit, TaskOrder::kDecreasingUtilization,
                         Admission::kExactRta);
  const Assignment a = ff.partition(tasks, 2);
  EXPECT_FALSE(a.success);
  EXPECT_EQ(a.unassigned.size(), 2u);
}

TEST(PartitionedRm, AcceptedPartitionsPassInvariants) {
  Rng rng(2);
  WorkloadConfig config;
  config.tasks = 12;
  config.processors = 4;
  config.max_task_utilization = 0.6;
  const PartitionedRm ff(FitPolicy::kFirstFit, TaskOrder::kDecreasingUtilization,
                         Admission::kExactRta);
  int accepted = 0;
  for (int trial = 0; trial < 60; ++trial) {
    config.normalized_utilization = 0.3 + 0.4 * rng.uniform();
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const Assignment a = ff.partition(tasks, 4);
    if (!a.success) continue;
    ++accepted;
    testing::expect_valid_partition(tasks, a);
  }
  EXPECT_GT(accepted, 20);
}

/// P-RM with exact-RTA admission placed through fits() + add(): the first
/// admitting processor (FF) or the admitting one with the highest (BF) or
/// lowest (WF) utilization, earliest index on ties.
Assignment fits_then_add(const TaskSet& tasks, std::size_t m, FitPolicy fit,
                         TaskOrder order) {
  std::vector<std::size_t> ranks(tasks.size());
  std::iota(ranks.begin(), ranks.end(), 0);
  if (order == TaskOrder::kDecreasingUtilization) {
    std::stable_sort(ranks.begin(), ranks.end(), [&](std::size_t a, std::size_t b) {
      return tasks[a].utilization() > tasks[b].utilization();
    });
  }
  std::vector<ProcessorState> processors(m);
  std::vector<TaskId> unassigned;
  for (const std::size_t rank : ranks) {
    const Subtask candidate = whole_subtask(tasks[rank], rank);
    std::size_t pick = m;
    for (std::size_t q = 0; q < m; ++q) {
      if (!processors[q].fits(candidate)) continue;
      if (pick == m) {
        pick = q;
        if (fit == FitPolicy::kFirstFit) break;
        continue;
      }
      const double u = processors[q].utilization();
      const double best = processors[pick].utilization();
      if (fit == FitPolicy::kBestFit ? u > best : u < best) pick = q;
    }
    if (pick == m) {
      unassigned.push_back(tasks[rank].id);
    } else {
      processors[pick].add(candidate);
    }
  }
  return finalize_assignment(processors, std::move(unassigned));
}

TEST(PartitionedRm, ExactRtaTryAddMatchesFitsThenAddWithoutWarmMisses) {
  // Exact-RTA admission runs through try_add(), whose accepting probe
  // leaves every response exact: the same assignment as fits() + add(),
  // and no admission-cache miss to re-derive afterwards.
  const bool counting = trace::compiled_in();
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  Rng rng(17);
  for (std::uint64_t i = 0; i < 40; ++i) {
    WorkloadConfig config;
    config.tasks = 16;
    config.processors = 4;
    config.normalized_utilization = 0.75 + 0.005 * static_cast<double>(i);
    Rng sample = rng.fork(i);
    const TaskSet tasks = generate(sample, config);
    for (const FitPolicy fit :
         {FitPolicy::kFirstFit, FitPolicy::kBestFit, FitPolicy::kWorstFit}) {
      for (const TaskOrder order :
           {TaskOrder::kDecreasingUtilization, TaskOrder::kRateMonotonic}) {
        const PartitionedRm prm(fit, order, Admission::kExactRta);
        const std::uint64_t misses_before =
            trace::snapshot().counter(trace::Counter::kAdmissionCacheMiss);
        const Assignment got = prm.partition(tasks, config.processors);
        if (counting) {
          EXPECT_EQ(trace::snapshot().counter(trace::Counter::kAdmissionCacheMiss),
                    misses_before)
              << prm.name() << " set " << i;
        }
        const Assignment want = fits_then_add(tasks, config.processors, fit, order);
        ASSERT_EQ(got.success, want.success) << prm.name() << " set " << i;
        EXPECT_EQ(got.unassigned, want.unassigned) << prm.name() << " set " << i;
        ASSERT_EQ(got.processors.size(), want.processors.size());
        for (std::size_t q = 0; q < got.processors.size(); ++q) {
          const auto& a = got.processors[q].subtasks;
          const auto& b = want.processors[q].subtasks;
          ASSERT_EQ(a.size(), b.size()) << prm.name() << " set " << i << " proc " << q;
          for (std::size_t k = 0; k < a.size(); ++k) {
            EXPECT_EQ(a[k].task_id, b[k].task_id) << prm.name() << " set " << i;
          }
        }
      }
    }
  }
  trace::set_enabled(was_enabled);
}

TEST(PartitionedEdf, AcceptsPerfectPacking) {
  const TaskSet tasks = TaskSet::from_pairs(
      {{500, 1000}, {500, 1000}, {700, 1000}, {300, 1000}});
  EXPECT_TRUE(PartitionedEdf().accepts(tasks, 2));
  EXPECT_EQ(PartitionedEdf().name(), "P-EDF-FFD");
}

TEST(PartitionedEdf, RejectsWhenBinPackingImpossible) {
  // Three tasks of 0.6 cannot be packed into two unit bins.
  const TaskSet tasks = TaskSet::from_pairs({{600, 1000}, {600, 1000}, {600, 1000}});
  EXPECT_FALSE(PartitionedEdf().accepts(tasks, 2));
}

TEST(GlobalRmUs, UtilizationThreshold) {
  const GlobalRmUs test;
  // M = 4: bound = 16/10 = 1.6 total utilization.
  const TaskSet fits = TaskSet::from_pairs(
      {{400, 1000}, {400, 1000}, {400, 1000}, {390, 1000}});  // U = 1.59
  const TaskSet exceeds = TaskSet::from_pairs(
      {{500, 1000}, {500, 1000}, {400, 1000}, {210, 1000}});  // U = 1.61
  EXPECT_TRUE(test.accepts(fits, 4));
  EXPECT_FALSE(test.accepts(exceeds, 4));
}

TEST(GlobalEdfGfb, DependsOnMaxUtilization) {
  const GlobalEdfGfb test;
  // M = 2: bound = 2 - u_max.  u_max = 0.5 -> accepts U <= 1.5.
  const TaskSet light = TaskSet::from_pairs(
      {{500, 1000}, {500, 1000}, {490, 1000}});  // U = 1.49, u_max = 0.5
  EXPECT_TRUE(test.accepts(light, 2));
  const TaskSet heavy = TaskSet::from_pairs(
      {{900, 1000}, {300, 1000}, {290, 1000}});  // U = 1.49, u_max = 0.9
  EXPECT_FALSE(test.accepts(heavy, 2));  // bound = 1.1
}

TEST(GlobalTests, MuchWeakerThanSemiPartitioning) {
  // The Section I narrative: global utilization tests cap out near
  // 33-50% normalized utilization while the semi-partitioned algorithms
  // reach far higher -- here just the caps themselves.
  const GlobalRmUs rm_us;
  const std::size_t m = 16;
  const double cap = static_cast<double>(m * m) / (3.0 * m - 2.0) /
                     static_cast<double>(m);
  EXPECT_NEAR(cap, 0.3478, 1e-3);
  const TaskSet tasks = TaskSet::from_pairs({{360, 1000}, {360, 1000}});
  EXPECT_TRUE(rm_us.accepts(tasks, 2));  // U = 0.72 <= 4/4 = 1.0
}

}  // namespace
}  // namespace rmts
