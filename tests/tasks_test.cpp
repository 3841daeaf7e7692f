// Unit tests for the task model: validation, RM ordering, utilization
// accounting, harmonicity, scaling, and subtask construction.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "tasks/subtask.hpp"
#include "tasks/task_set.hpp"

namespace rmts {
namespace {

TEST(Task, Utilization) {
  const Task task{25, 100, 0};
  EXPECT_DOUBLE_EQ(task.utilization(), 0.25);
}

TEST(TaskSet, SortsByPeriodThenId) {
  const TaskSet set({Task{1, 300, 0}, Task{1, 100, 1}, Task{1, 200, 2}});
  EXPECT_EQ(set[0].period, 100);
  EXPECT_EQ(set[1].period, 200);
  EXPECT_EQ(set[2].period, 300);
}

TEST(TaskSet, TieBrokenById) {
  const TaskSet set({Task{1, 100, 5}, Task{1, 100, 2}});
  EXPECT_EQ(set[0].id, 2u);
  EXPECT_EQ(set[1].id, 5u);
}

TEST(TaskSet, FromPairsAssignsIdsInInputOrder) {
  const TaskSet set = TaskSet::from_pairs({{10, 200}, {10, 100}});
  EXPECT_EQ(set[0].id, 1u);  // period 100 sorts first, has id 1
  EXPECT_EQ(set[1].id, 0u);
}

TEST(TaskSet, RejectsNonPositivePeriod) {
  EXPECT_THROW(TaskSet({Task{1, 0, 0}}), InvalidTaskError);
  EXPECT_THROW(TaskSet({Task{1, -5, 0}}), InvalidTaskError);
}

TEST(TaskSet, RejectsNonPositiveWcet) {
  EXPECT_THROW(TaskSet({Task{0, 10, 0}}), InvalidTaskError);
  EXPECT_THROW(TaskSet({Task{-1, 10, 0}}), InvalidTaskError);
}

TEST(TaskSet, RejectsOverUtilizedTask) {
  EXPECT_THROW(TaskSet({Task{11, 10, 0}}), InvalidTaskError);
}

TEST(TaskSet, RejectsDuplicateIds) {
  EXPECT_THROW(TaskSet({Task{1, 10, 7}, Task{1, 20, 7}}), InvalidTaskError);
}

TEST(TaskSet, RejectsDuplicateIdsThatTheRmSortSeparates) {
  // Periods 10 < 20 < 30 put id 1 between the two 7s after the sort.
  try {
    const TaskSet set({Task{1, 10, 7}, Task{1, 30, 7}, Task{1, 20, 1}});
    FAIL() << "duplicate id accepted";
  } catch (const InvalidTaskError& error) {
    EXPECT_STREQ(error.what(), "duplicate task id 7");
  }
}

TEST(TaskSet, ReportsTheFirstOffenceInInputOrder) {
  // The first repeat in input order is id 5 (index 2), before id 3's
  // (index 3), although 3 < 5.
  try {
    const TaskSet set({Task{1, 10, 5}, Task{1, 20, 3}, Task{1, 30, 5},
                       Task{1, 40, 3}});
    FAIL() << "duplicate id accepted";
  } catch (const InvalidTaskError& error) {
    EXPECT_STREQ(error.what(), "duplicate task id 5");
  }
  // A task's own fields are checked before whether its id repeats.
  try {
    const TaskSet set({Task{1, 10, 4}, Task{1, 0, 4}});
    FAIL() << "invalid task accepted";
  } catch (const InvalidTaskError& error) {
    EXPECT_STREQ(error.what(), "task 4: period must be positive");
  }
}

TEST(TaskSet, UtilizationAggregates) {
  const TaskSet set = TaskSet::from_pairs({{25, 100}, {50, 100}});
  EXPECT_DOUBLE_EQ(set.total_utilization(), 0.75);
  EXPECT_DOUBLE_EQ(set.normalized_utilization(3), 0.25);
  EXPECT_DOUBLE_EQ(set.max_utilization(), 0.5);
}

TEST(TaskSet, AllLighterThan) {
  const TaskSet set = TaskSet::from_pairs({{25, 100}, {30, 100}});
  EXPECT_TRUE(set.all_lighter_than(0.3));
  EXPECT_FALSE(set.all_lighter_than(0.29));
}

TEST(TaskSet, HarmonicDetection) {
  EXPECT_TRUE(TaskSet::from_pairs({{1, 1000}, {1, 2000}, {1, 8000}}).is_harmonic());
  EXPECT_FALSE(TaskSet::from_pairs({{1, 1000}, {1, 3000}, {1, 2000}}).is_harmonic());
  EXPECT_TRUE(TaskSet::from_pairs({{1, 500}}).is_harmonic());
  // Equal periods are mutually harmonic.
  EXPECT_TRUE(TaskSet::from_pairs({{1, 1000}, {2, 1000}}).is_harmonic());
}

TEST(TaskSet, ScaledWcetsRoundsAndClamps) {
  const TaskSet set = TaskSet::from_pairs({{10, 100}, {90, 100}});
  const TaskSet doubled = set.scaled_wcets(2.0);
  EXPECT_EQ(doubled[0].wcet, 20);
  EXPECT_EQ(doubled[1].wcet, 100);  // clamped at the period
  const TaskSet tiny = set.scaled_wcets(0.001);
  EXPECT_EQ(tiny[0].wcet, 1);  // clamped at one tick
}

TEST(TaskSet, DescribeMentionsEveryTask) {
  const TaskSet set = TaskSet::from_pairs({{10, 100}, {20, 200}});
  const std::string text = set.describe();
  EXPECT_NE(text.find("tau_0"), std::string::npos);
  EXPECT_NE(text.find("tau_1"), std::string::npos);
}

TEST(Subtask, WholeSubtaskMirrorsTask) {
  const Task task{30, 120, 9};
  const Subtask s = whole_subtask(task, 4);
  EXPECT_EQ(s.priority, 4u);
  EXPECT_EQ(s.task_id, 9u);
  EXPECT_EQ(s.part, 0);
  EXPECT_EQ(s.wcet, 30);
  EXPECT_EQ(s.period, 120);
  EXPECT_EQ(s.deadline, 120);
  EXPECT_EQ(s.kind, SubtaskKind::kWhole);
}

TEST(Subtask, PriorityComparison) {
  const Subtask high{1, 0, 0, 1, 10, 10, SubtaskKind::kWhole};
  const Subtask low{5, 1, 0, 1, 50, 50, SubtaskKind::kWhole};
  EXPECT_TRUE(high.higher_priority_than(low));
  EXPECT_FALSE(low.higher_priority_than(high));
}

TEST(Subtask, UtilizationUsesParentPeriod) {
  const Subtask s{0, 0, 1, 25, 100, 60, SubtaskKind::kTail};
  EXPECT_DOUBLE_EQ(s.utilization(), 0.25);
}

}  // namespace
}  // namespace rmts
