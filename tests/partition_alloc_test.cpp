// The admit compute path's allocation budget: on a warm thread, RM-TS
// partitions out of the leased workspace (partition/policies.hpp) and the
// HC bound out of its thread-local matching storage, so a repeated
// partition allocates only the returned Assignment, and a whole admit
// request only its task set, reply and Assignment.  This binary replaces
// the global operator new to count heap allocations, which is why it is
// not part of the partition tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bounds/harmonic.hpp"
#include "common/rng.hpp"
#include "partition/policies.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "server/client.hpp"
#include "server/metrics.hpp"
#include "server/router.hpp"
#include "workload/generators.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rmts {
namespace {

constexpr std::size_t kTasks = 16;
constexpr std::size_t kProcessors = 4;

/// The benchmark's admit shape: N=16 tasks, M=4, U_M=0.6.
TaskSet admit_set(std::uint64_t seed) {
  Rng rng(seed);
  WorkloadConfig config;
  config.tasks = kTasks;
  config.processors = kProcessors;
  config.normalized_utilization = 0.6;
  return generate(rng, config);
}

bool same_assignment(const Assignment& a, const Assignment& b) {
  if (a.success != b.success || a.unassigned != b.unassigned ||
      a.processors.size() != b.processors.size()) {
    return false;
  }
  for (std::size_t q = 0; q < a.processors.size(); ++q) {
    const auto& x = a.processors[q].subtasks;
    const auto& y = b.processors[q].subtasks;
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].task_id != y[i].task_id || x[i].part != y[i].part ||
          x[i].wcet != y[i].wcet || x[i].deadline != y[i].deadline ||
          x[i].kind != y[i].kind) {
        return false;
      }
    }
  }
  return true;
}

TEST(PartitionAlloc, CounterSeesHeapAllocations) {
  const std::size_t before = g_allocations.load();
  volatile std::size_t size = 4096;
  std::vector<char> buffer(size);
  buffer[0] = 1;
  EXPECT_GT(g_allocations.load(), before);
}

TEST(PartitionAlloc, WarmRmtsPartitionAllocatesOnlyTheAssignment) {
  const Rmts rmts(std::make_shared<HarmonicChainBound>());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TaskSet tasks = admit_set(seed);
    const Assignment first = rmts.partition(tasks, kProcessors);  // warm-up
    const std::size_t before = g_allocations.load();
    const Assignment second = rmts.partition(tasks, kProcessors);
    const std::size_t allocations = g_allocations.load() - before;
    // The processor list plus one subtask vector per processor, and the
    // unassigned list when the set is rejected.
    EXPECT_LE(allocations, kProcessors + 2) << "seed " << seed;
    EXPECT_TRUE(same_assignment(first, second)) << "seed " << seed;
  }
}

TEST(PartitionAlloc, WarmRmtsLightPartitionAllocatesOnlyTheAssignment) {
  const RmtsLight light;
  const TaskSet tasks = admit_set(3);
  const Assignment first = light.partition(tasks, kProcessors);
  const std::size_t before = g_allocations.load();
  const Assignment second = light.partition(tasks, kProcessors);
  EXPECT_LE(g_allocations.load() - before, kProcessors + 2);
  EXPECT_TRUE(same_assignment(first, second));
}

TEST(PartitionAlloc, WarmHarmonicChainBoundAllocatesNothing) {
  const HarmonicChainBound hc;
  const TaskSet tasks = admit_set(5);
  const double first = hc.evaluate(tasks);
  const std::size_t before = g_allocations.load();
  const double second = hc.evaluate(tasks);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(first, second);
}

TEST(PartitionAlloc, NestedLeaseReturnsTheSameAssignment) {
  const Rmts rmts(std::make_shared<HarmonicChainBound>());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TaskSet tasks = admit_set(seed);
    const Assignment unnested = rmts.partition(tasks, kProcessors);
    Assignment nested;
    {
      // Holding this thread's scratch forces the run onto one-off storage.
      const ScratchLease outer(kProcessors, kTasks);
      ASSERT_TRUE(outer.processors()[0].empty());
      nested = rmts.partition(tasks, kProcessors);
      // The outer lease's processors were not touched by the nested run.
      for (const ProcessorState& p : outer.processors()) EXPECT_TRUE(p.empty());
    }
    EXPECT_TRUE(same_assignment(unnested, nested)) << "seed " << seed;
  }
}

TEST(PartitionAlloc, OversizedRunsMatchRetainedOnes) {
  // Past the retention bound the run uses one-off storage; the result is
  // the same as a fresh-thread run's.
  Rng rng(77);
  WorkloadConfig config;
  config.tasks = ScratchLease::kRetainedTasks + 8;
  config.processors = 16;
  config.normalized_utilization = 0.7;
  const TaskSet big = generate(rng, config);
  const Rmts rmts(std::make_shared<HarmonicChainBound>());
  const Assignment a = rmts.partition(big, config.processors);
  const Assignment b = rmts.partition(big, config.processors);
  EXPECT_TRUE(same_assignment(a, b));
  EXPECT_EQ(a.subtask_count(), b.subtask_count());
}

TEST(PartitionAlloc, WarmRouterAdmitStaysWithinBudget) {
  const server::Metrics metrics;
  const server::Router router(server::RouterConfig{}, metrics);
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    lines.push_back(server::make_admit_request(kProcessors, admit_set(seed)));
  }
  for (const std::string& line : lines) {
    ASSERT_NE(router.handle(line).reply.find("\"ok\":true"), std::string::npos);
  }
  for (const std::string& line : lines) {
    const std::size_t before = g_allocations.load();
    const server::HandleOutcome out = router.handle(line);
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_LE(allocations, 12u) << line;
    EXPECT_FALSE(out.error);
  }
}

}  // namespace
}  // namespace rmts
