// ProcessorState admission cache: the memoized/seeded fast path must be
// observationally identical to from-scratch analyze_processor on randomized
// assignment traces, including hosts made unschedulable by non-RTA
// admission (the SPA path adds on a utilization threshold only).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/trace.hpp"
#include "partition/max_split.hpp"
#include "partition/processor_state.hpp"
#include "rta/rta.hpp"

namespace rmts {
namespace {

/// Random subtask with the given unique priority rank; deadline <= period.
Subtask random_subtask(Rng& rng, std::size_t priority, bool heavy) {
  const Time period = rng.uniform_int(20, 2000);
  const Time max_wcet = heavy ? period : std::max<Time>(1, period / 6);
  const Time wcet = rng.uniform_int(1, max_wcet);
  const Time deadline = rng.uniform_int(wcet, period);
  return Subtask{priority,  static_cast<TaskId>(priority), 0, wcet,
                 period,    deadline,                      SubtaskKind::kWhole};
}

/// From-scratch oracle with the documented fits() semantics (the seed
/// implementation verbatim): the candidate under its higher-priority
/// prefix, then every lower-priority hosted subtask with materialized
/// interferer vectors -- no caching, no seeding.  Higher-priority hosted
/// subtasks are not re-examined (their response cannot change).
bool oracle_fits(const ProcessorState& processor, const Subtask& candidate) {
  const auto hosted = processor.subtasks();
  const auto pos_it = std::lower_bound(
      hosted.begin(), hosted.end(), candidate,
      [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
  const auto pos = static_cast<std::size_t>(pos_it - hosted.begin());
  if (!response_time(candidate.wcet, candidate.deadline, hosted.first(pos))
           .schedulable) {
    return false;
  }
  std::vector<Subtask> interferers(hosted.begin(), pos_it);
  interferers.push_back(candidate);
  for (std::size_t i = pos; i < hosted.size(); ++i) {
    if (!response_time(hosted[i].wcet, hosted[i].deadline, interferers)
             .schedulable) {
      return false;
    }
    interferers.push_back(hosted[i]);
  }
  return true;
}

TEST(AdmissionCache, RandomizedTracesMatchFromScratchAnalysis) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    ProcessorState processor;
    std::vector<std::size_t> priorities(64);
    for (std::size_t i = 0; i < priorities.size(); ++i) priorities[i] = i;
    // Random unique priority per step, in random arrival order.
    for (std::size_t i = priorities.size(); i-- > 1;) {
      std::swap(priorities[i],
                priorities[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i)))]);
    }
    for (std::size_t step = 0; step < 24; ++step) {
      const Subtask candidate = random_subtask(rng, priorities[step], false);
      const bool cached = processor.fits(candidate);
      ASSERT_EQ(cached, oracle_fits(processor, candidate))
          << "seed " << seed << " step " << step;
      if (cached) processor.add(candidate);
    }
    // Cached per-subtask responses equal the from-scratch analysis.
    const ProcessorRta fresh = analyze_processor(processor.subtasks());
    ASSERT_TRUE(fresh.schedulable);
    for (std::size_t i = 0; i < processor.subtasks().size(); ++i) {
      EXPECT_EQ(processor.response_time_of(i), fresh.response[i]);
    }
  }
}

TEST(AdmissionCache, MatchesOracleOnHostsAddedPastAdmission) {
  // SPA-style traces: subtasks land on utilization grounds alone, so the
  // hosted set can be RTA-unschedulable; fits() must keep agreeing with
  // the oracle (always false once the host is broken).
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    Rng rng(seed);
    ProcessorState processor;
    for (std::size_t step = 0; step < 10; ++step) {
      const Subtask incoming = random_subtask(rng, step * 2, true);
      const bool cached = processor.fits(incoming);
      ASSERT_EQ(cached, oracle_fits(processor, incoming))
          << "seed " << seed << " step " << step;
      processor.add(incoming);  // added regardless, like spa_assign
      const Subtask probe = random_subtask(rng, step * 2 + 1, false);
      ASSERT_EQ(processor.fits(probe), oracle_fits(processor, probe))
          << "seed " << seed << " probe at step " << step;
    }
  }
}

TEST(AdmissionCache, InterleavedAddRemoveMatchesFromScratchAnalysis) {
  // The online session's churn shape: adds and removes interleave on a
  // long-lived processor, with fits() probes and re-analysis between
  // mutations.  Removal re-seeds the invalidated suffix from wcets (a
  // stale post-removal value would be an UPPER bound -- unsound as a
  // seed), so the cached path must keep agreeing with the from-scratch
  // oracle through arbitrary interleavings.
  for (std::uint64_t seed = 300; seed < 340; ++seed) {
    Rng rng(seed);
    ProcessorState processor;
    // Hosted priorities draw from 1..48; 0 is reserved for split
    // prototypes so max_admissible_wcet probes stay top-priority.
    std::vector<std::size_t> free_priorities;
    for (std::size_t p = 1; p <= 48; ++p) free_priorities.push_back(p);

    for (std::size_t step = 0; step < 48; ++step) {
      const bool do_remove =
          !processor.subtasks().empty() && rng.uniform_int(0, 2) == 0;
      if (do_remove) {
        const auto index = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(processor.subtasks().size()) - 1));
        free_priorities.push_back(processor.subtasks()[index].priority);
        processor.remove(index);
      } else {
        const auto slot = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(free_priorities.size()) - 1));
        const Subtask incoming = random_subtask(
            rng, free_priorities[slot], rng.uniform_int(0, 3) == 0);
        const bool cached = processor.fits(incoming);
        ASSERT_EQ(cached, oracle_fits(processor, incoming))
            << "seed " << seed << " step " << step;
        if (cached) {
          processor.add(incoming);
          free_priorities[slot] = free_priorities.back();
          free_priorities.pop_back();
        }
      }

      // A probe at a random (possibly hosted-adjacent) priority must
      // agree with the oracle on the mutated set.
      const Subtask probe =
          random_subtask(rng, free_priorities[static_cast<std::size_t>(
                                  rng.uniform_int(0,
                                                  static_cast<std::int64_t>(
                                                      free_priorities.size()) -
                                                      1))],
                         false);
      ASSERT_EQ(processor.fits(probe), oracle_fits(processor, probe))
          << "seed " << seed << " step " << step;

      // Cached responses stay exact after every interleaving step.
      const ProcessorRta fresh = analyze_processor(processor.subtasks());
      ASSERT_TRUE(fresh.schedulable) << "seed " << seed << " step " << step;
      for (std::size_t i = 0; i < processor.subtasks().size(); ++i) {
        ASSERT_EQ(processor.response_time_of(i), fresh.response[i])
            << "seed " << seed << " step " << step << " index " << i;
      }

      // MaxSplit on the churned processor equals both the binary search
      // (whose fits() probes run on the churned cache) and MaxSplit on a
      // fresh processor hosting the same subtasks.
      if (step % 8 == 7) {
        Subtask prototype = random_subtask(rng, 0, true);
        const Time points = max_admissible_wcet(
            processor, prototype, MaxSplitMethod::kSchedulingPoints);
        EXPECT_EQ(max_admissible_wcet(processor, prototype,
                                      MaxSplitMethod::kBinarySearch),
                  points)
            << "seed " << seed << " step " << step;
        ProcessorState fresh_processor;
        for (const Subtask& s : processor.subtasks()) fresh_processor.add(s);
        EXPECT_EQ(max_admissible_wcet(fresh_processor, prototype,
                                      MaxSplitMethod::kSchedulingPoints),
                  points)
            << "seed " << seed << " step " << step;
      }
    }
  }
}

/// The kernel's no-overflow regime for a probe of `candidate` (the fused
/// fast path's guard): every period and deadline below 2^31, every wcet at
/// least 1, and the one-job sum of hosted and candidate wcets below 2^31.
bool in_fast_regime(std::span<const Subtask> hosted, const Subtask& candidate) {
  constexpr Time kBound = Time{1} << 31;
  Time sum = candidate.wcet;
  bool ok = candidate.period < kBound && candidate.deadline < kBound;
  for (const Subtask& s : hosted) {
    sum += s.wcet;
    ok = ok && s.period < kBound && s.deadline < kBound;
  }
  return ok && sum < kBound;
}

std::uint64_t counter(trace::Counter c) { return trace::snapshot().counter(c); }

TEST(AdmissionCache, CommitOnFitMatchesFreshAnalysisAfterEveryTryAdd) {
  // Randomized add/remove/try_add churn.  After every accepted try_add,
  // each response the processor serves equals response_time_of on a fresh
  // ProcessorState holding the same subtasks.  Every third seed scales
  // some subtasks' periods and deadlines by 2^24, mostly past 2^31:
  // probes on such a processor take the kernel's generic path, which commits
  // nothing and leaves the re-analysis to the next warm pass.
  const bool counting = trace::compiled_in() && trace::enabled();
  std::size_t committed_probes = 0;
  std::size_t generic_probes = 0;
  for (std::uint64_t seed = 500; seed < 560; ++seed) {
    Rng rng(seed);
    const bool scaled = seed % 3 == 0;
    // trace::snapshot() merges every thread's histograms, so the counter
    // checks run on the first 20 seeds only.
    const bool check = counting && seed < 520;
    ProcessorState processor;
    std::vector<std::size_t> free_priorities;
    for (std::size_t p = 0; p < 40; ++p) free_priorities.push_back(p);

    for (std::size_t step = 0; step < 40; ++step) {
      const int action = static_cast<int>(rng.uniform_int(0, 5));
      if (action == 0 && !processor.empty()) {
        const auto index = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(processor.subtasks().size()) - 1));
        free_priorities.push_back(processor.subtasks()[index].priority);
        processor.remove(index);
        continue;
      }
      const auto slot = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(free_priorities.size()) - 1));
      Subtask incoming = random_subtask(rng, free_priorities[slot],
                                        rng.uniform_int(0, 3) == 0);
      if (scaled && rng.uniform_int(0, 2) == 0) {
        incoming.period <<= 24;
        incoming.deadline <<= 24;
      }
      const bool expected = oracle_fits(processor, incoming);
      bool added = false;
      if (action == 1) {
        // A plain fits() + add() between commits: the add invalidates and
        // the next try_add's warm pass must re-derive exact seeds.
        added = processor.fits(incoming);
        ASSERT_EQ(added, expected) << "seed " << seed << " step " << step;
        if (added) processor.add(incoming);
      } else {
        const bool fast = in_fast_regime(processor.subtasks(), incoming);
        const std::size_t pos = static_cast<std::size_t>(
            std::lower_bound(processor.subtasks().begin(),
                             processor.subtasks().end(), incoming,
                             [](const Subtask& a, const Subtask& b) {
                               return a.priority < b.priority;
                             }) -
            processor.subtasks().begin());
        const std::uint64_t hits_before =
            check ? counter(trace::Counter::kAdmissionCacheHit) : 0;
        added = processor.try_add(incoming);
        ASSERT_EQ(added, expected) << "seed " << seed << " step " << step;
        if (added && check) {
          const std::uint64_t hits =
              counter(trace::Counter::kAdmissionCacheHit) - hits_before;
          // A commit installs the candidate's own response and every
          // shifted one; the generic path installs nothing.
          const std::size_t n = processor.subtasks().size();
          EXPECT_EQ(hits, fast ? n - pos : 0u)
              << "seed " << seed << " step " << step;
        }
        if (added) (fast ? committed_probes : generic_probes) += 1;
        if (added && fast && check) {
          // Served from the commit: no response needs re-analysis.
          const std::uint64_t misses_before =
              counter(trace::Counter::kAdmissionCacheMiss);
          for (std::size_t i = 0; i < processor.subtasks().size(); ++i) {
            (void)processor.response_time_of(i);
          }
          EXPECT_EQ(counter(trace::Counter::kAdmissionCacheMiss),
                    misses_before)
              << "seed " << seed << " step " << step;
        }
      }
      if (!added) continue;
      free_priorities[slot] = free_priorities.back();
      free_priorities.pop_back();

      ProcessorState fresh;
      for (const Subtask& s : processor.subtasks()) fresh.add(s);
      for (std::size_t i = 0; i < processor.subtasks().size(); ++i) {
        ASSERT_EQ(processor.response_time_of(i), fresh.response_time_of(i))
            << "seed " << seed << " step " << step << " index " << i;
      }
    }
  }
  // Both paths were exercised.
  EXPECT_GT(committed_probes, 100u) << generic_probes;
  EXPECT_GT(generic_probes, 10u) << committed_probes;
}

TEST(AdmissionCache, TryAddRejectionChangesNothing) {
  ProcessorState processor;
  const Subtask blocker{0, 100, 0, 60, 100, 100, SubtaskKind::kWhole};
  const Subtask hosted{2, 102, 0, 30, 100, 100, SubtaskKind::kWhole};
  ASSERT_TRUE(processor.try_add(blocker));
  ASSERT_TRUE(processor.try_add(hosted));
  EXPECT_EQ(processor.response_time_of(1), 90);
  // 60 + 30 + 30 = 120 > 100: the hosted subtask would miss.
  const Subtask candidate{1, 101, 0, 30, 100, 100, SubtaskKind::kWhole};
  EXPECT_FALSE(processor.try_add(candidate));
  ASSERT_EQ(processor.subtasks().size(), 2u);
  EXPECT_DOUBLE_EQ(processor.utilization(), 0.9);
  EXPECT_EQ(processor.response_time_of(0), 60);
  EXPECT_EQ(processor.response_time_of(1), 90);
  // A candidate that fits below both: its own response is committed.
  const Subtask low{3, 103, 0, 5, 200, 200, SubtaskKind::kWhole};
  ASSERT_TRUE(processor.try_add(low));
  EXPECT_EQ(processor.response_time_of(2), 95);
}

TEST(AdmissionCache, ResetKeepsNothingButCapacity) {
  ProcessorState processor;
  for (std::size_t p = 0; p < 6; ++p) {
    ASSERT_TRUE(processor.try_add(
        Subtask{p, static_cast<TaskId>(p), 0, 5, 100, 100, SubtaskKind::kWhole}));
  }
  processor.mark_full();
  processor.reset();
  EXPECT_TRUE(processor.empty());
  EXPECT_FALSE(processor.full());
  EXPECT_EQ(processor.utilization(), 0.0);
  // Refilled after a reset, the processor answers exactly like a new one.
  ProcessorState fresh;
  for (std::size_t p = 0; p < 4; ++p) {
    const Subtask s{p, static_cast<TaskId>(p), 0, 20 + static_cast<Time>(p),
                    90, 90, SubtaskKind::kWhole};
    ASSERT_EQ(processor.try_add(s), fresh.fits(s));
    fresh.add(s);
  }
  for (std::size_t i = 0; i < fresh.subtasks().size(); ++i) {
    EXPECT_EQ(processor.response_time_of(i), fresh.response_time_of(i));
  }
  const Subtask probe{9, 9, 0, 30, 90, 90, SubtaskKind::kWhole};
  EXPECT_EQ(processor.fits(probe), fresh.fits(probe));
}

TEST(AdmissionCache, RemovalFlipsCachedVerdictsBackToFits) {
  // Deterministic regression for the cache-direction flip: with the
  // blocker hosted, the candidate is rejected (and the verdict cached as
  // part of the warmed responses); after remove() the same candidate
  // must fit -- a stale cached miss would wrongly keep rejecting it.
  ProcessorState processor;
  const Subtask blocker{0, 100, 0, 60, 100, 100, SubtaskKind::kWhole};
  const Subtask hosted{2, 102, 0, 30, 100, 100, SubtaskKind::kWhole};
  ASSERT_TRUE(processor.fits(blocker));
  processor.add(blocker);
  ASSERT_TRUE(processor.fits(hosted));
  processor.add(hosted);

  // 60 + 30 + 30 = 120 > 100: the hosted subtask would miss.
  const Subtask candidate{1, 101, 0, 30, 100, 100, SubtaskKind::kWhole};
  ASSERT_FALSE(processor.fits(candidate));
  ASSERT_EQ(processor.response_time_of(1), 90);  // 60 + 30, warm cache

  processor.remove(0);  // the blocker departs
  EXPECT_TRUE(processor.fits(candidate)) << "stale cached miss survived";
  EXPECT_EQ(processor.response_time_of(0), 30);
  processor.add(candidate);
  const ProcessorRta fresh = analyze_processor(processor.subtasks());
  ASSERT_TRUE(fresh.schedulable);
  EXPECT_EQ(processor.response_time_of(1), fresh.response[1]);
}

TEST(AdmissionCache, RemovalRestoresSchedulabilityOfForcedHosts) {
  // SPA-style force-adds can cache kTimeInfinity ("known miss") for a
  // hosted subtask; removing the interferer that caused the miss must
  // re-seed the entry rather than keep the infinity.
  ProcessorState processor;
  const Subtask heavy{0, 200, 0, 80, 100, 100, SubtaskKind::kWhole};
  const Subtask victim{1, 201, 0, 50, 100, 100, SubtaskKind::kWhole};
  processor.add(heavy);
  processor.add(victim);  // added past admission: 80 + 50 > 100
  ASSERT_FALSE(analyze_processor(processor.subtasks()).schedulable);
  EXPECT_EQ(processor.response_time_of(1), kTimeInfinity);

  processor.remove(0);
  const ProcessorRta fresh = analyze_processor(processor.subtasks());
  ASSERT_TRUE(fresh.schedulable);
  EXPECT_EQ(processor.response_time_of(0), fresh.response[0]);
  const Subtask probe{0, 202, 0, 25, 100, 100, SubtaskKind::kWhole};
  EXPECT_EQ(processor.fits(probe), oracle_fits(processor, probe));
  EXPECT_TRUE(processor.fits(probe));
}

TEST(AdmissionCache, MaxSplitMethodsAgreeOnWarmCache) {
  for (std::uint64_t seed = 200; seed < 230; ++seed) {
    Rng rng(seed);
    ProcessorState processor;
    for (std::size_t step = 0; step < 12; ++step) {
      const Subtask incoming = random_subtask(rng, step + 10, false);
      if (processor.fits(incoming)) processor.add(incoming);
    }
    // Top-priority prototype, as produced by assign_or_split.
    Subtask prototype = random_subtask(rng, 0, true);
    const Time binary =
        max_admissible_wcet(processor, prototype, MaxSplitMethod::kBinarySearch);
    const Time points = max_admissible_wcet(processor, prototype,
                                            MaxSplitMethod::kSchedulingPoints);
    EXPECT_EQ(binary, points) << "seed " << seed;
    // The binary search warmed the response cache; a repeated query and
    // one on a fresh processor hosting the same subtasks must agree.
    EXPECT_EQ(points, max_admissible_wcet(processor, prototype,
                                          MaxSplitMethod::kSchedulingPoints));
    ProcessorState fresh_processor;
    for (const Subtask& s : processor.subtasks()) fresh_processor.add(s);
    EXPECT_EQ(points, max_admissible_wcet(fresh_processor, prototype,
                                          MaxSplitMethod::kSchedulingPoints))
        << "seed " << seed;
    // The result is a true maximum: it fits, one more tick does not.
    if (binary > 0 && binary < prototype.wcet) {
      Subtask probe = prototype;
      probe.wcet = binary;
      EXPECT_TRUE(processor.fits(probe));
      probe.wcet = binary + 1;
      EXPECT_FALSE(processor.fits(probe));
    }
  }
}

}  // namespace
}  // namespace rmts
