// Shared invariant checkers used by the partition, simulator and theorem
// tests.  These encode the structural lemmas of the paper so every test can
// assert them on any produced Assignment.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string_view>
#include <vector>

#include "partition/assignment.hpp"
#include "rta/rta.hpp"
#include "sim/simulator.hpp"
#include "tasks/task_set.hpp"

namespace rmts::testing {

/// One task's split chain as re-derived from an assignment.
struct ChainPart {
  std::size_t processor;
  Subtask subtask;
};

/// Chains keyed by task id, parts in chain (part-index) order.
inline std::map<TaskId, std::vector<ChainPart>> chains_of(const Assignment& a) {
  std::map<TaskId, std::map<int, ChainPart>> by_part;
  for (std::size_t q = 0; q < a.processors.size(); ++q) {
    for (const Subtask& s : a.processors[q].subtasks) {
      by_part[s.task_id].emplace(s.part, ChainPart{q, s});
    }
  }
  std::map<TaskId, std::vector<ChainPart>> chains;
  for (auto& [id, parts] : by_part) {
    for (auto& [part, chain_part] : parts) chains[id].push_back(chain_part);
  }
  return chains;
}

/// Structural soundness of a successful partition:
///  * every task fully covered by a contiguous chain (bodies then one tail,
///    or a single whole subtask);
///  * per-processor priority ranks strictly increasing and unique;
///  * synthetic deadlines satisfy paper Eq. 1 with the *measured* RTA
///    response times of predecessor parts;
///  * when `check_rta`, every processor passes exact RTA (Lemma 4's
///    premise -- true for the RTA-admission algorithms by construction,
///    not enforced by the threshold-based SPA family);
///  * when `check_body_top_priority`, every body subtask has the highest
///    priority on its host processor (Lemma 2).
/// `deadline_by_body_wcet` switches the Eq. 1 check to the SPA convention
/// (body response time := body wcet) used by the threshold algorithms.
inline void expect_valid_partition(const TaskSet& tasks, const Assignment& a,
                                   bool check_rta = true,
                                   bool check_body_top_priority = true,
                                   bool deadline_by_body_wcet = false) {
  ASSERT_TRUE(a.success);

  // Per-processor ordering + (optional) exact schedulability.
  std::vector<ProcessorRta> rta(a.processors.size());
  for (std::size_t q = 0; q < a.processors.size(); ++q) {
    const auto& subtasks = a.processors[q].subtasks;
    for (std::size_t i = 0; i + 1 < subtasks.size(); ++i) {
      EXPECT_LT(subtasks[i].priority, subtasks[i + 1].priority)
          << "processor " << q << " not strictly priority-sorted";
    }
    rta[q] = analyze_processor(subtasks);
    if (check_rta) {
      EXPECT_TRUE(rta[q].schedulable) << "processor " << q << " fails RTA";
    }
    if (check_body_top_priority) {
      for (std::size_t i = 0; i < subtasks.size(); ++i) {
        if (subtasks[i].kind == SubtaskKind::kBody) {
          EXPECT_EQ(i, 0u) << "body subtask of tau_" << subtasks[i].task_id
                           << " is not top priority on processor " << q;
        }
      }
    }
  }

  // Chain structure + synthetic deadlines (Eq. 1).
  const auto chains = chains_of(a);
  EXPECT_EQ(chains.size(), tasks.size());
  for (std::size_t rank = 0; rank < tasks.size(); ++rank) {
    const Task& task = tasks[rank];
    const auto it = chains.find(task.id);
    ASSERT_NE(it, chains.end()) << "tau_" << task.id << " unassigned";
    const auto& chain = it->second;

    Time wcet_sum = 0;
    Time expected_deadline = task.period;
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const Subtask& s = chain[k].subtask;
      EXPECT_EQ(s.part, static_cast<int>(k));
      EXPECT_EQ(s.priority, rank);
      EXPECT_EQ(s.period, task.period);
      EXPECT_EQ(s.deadline, expected_deadline)
          << "tau_" << task.id << " part " << k << " synthetic deadline";
      const bool is_last = (k + 1 == chain.size());
      if (chain.size() == 1) {
        EXPECT_EQ(s.kind, SubtaskKind::kWhole);
      } else {
        EXPECT_EQ(s.kind, is_last ? SubtaskKind::kTail : SubtaskKind::kBody);
      }
      wcet_sum += s.wcet;
      EXPECT_GT(s.wcet, 0);

      if (!is_last) {
        if (deadline_by_body_wcet) {
          expected_deadline -= s.wcet;  // SPA convention (Lemma 2: R = C)
        } else if (rta[chain[k].processor].schedulable) {
          // Delta^{k+1} = Delta^k - R^k (paper Eq. 1), with R measured by
          // RTA on the hosting processor.
          const auto& hosted = a.processors[chain[k].processor].subtasks;
          for (std::size_t i = 0; i < hosted.size(); ++i) {
            if (hosted[i].task_id == s.task_id && hosted[i].part == s.part) {
              expected_deadline -= rta[chain[k].processor].response[i];
              break;
            }
          }
        }
      }
    }
    EXPECT_EQ(wcet_sum, task.wcet) << "tau_" << task.id << " chain coverage";
  }
}

/// Simulates the assignment for two hyperperiods (capped) and requires a
/// clean run.  This is the run-time ground truth of Lemma 4.
inline void expect_simulation_clean(const TaskSet& tasks, const Assignment& a,
                                    Time cap = 20'000'000) {
  SimConfig config;
  config.horizon = recommended_horizon(tasks, cap);
  const SimResult result = simulate(tasks, a, config);
  EXPECT_TRUE(result.schedulable)
      << "deadline miss: tau_" << (result.misses.empty() ? 0u : result.misses[0].task)
      << "\n"
      << tasks.describe() << a.describe();
}

/// Storage for the labels of value-parameterized cases.  gtest has no printer
/// for the case structs, so every such test's name ends in a byte dump of its
/// parameter, led by the low byte of the `label` pointer.  A string literal's
/// address shifts whenever anything else in the binary changes, and the test
/// names would shift with it.  Keeping the labels at fixed offsets in a
/// 256-byte-aligned pool pins that byte, so the names stay stable.
struct alignas(256) LabelPool {
  char bytes[256] = {};

  /// The pooled copy of `text`; a label missing from the pool fails the
  /// constant evaluation.
  consteval const char* label(std::string_view text) const {
    for (std::size_t i = 0; i + text.size() < sizeof bytes; ++i) {
      if ((i == 0 || bytes[i - 1] == '\0') && bytes[i + text.size()] == '\0' &&
          std::string_view(&bytes[i], text.size()) == text) {
        return &bytes[i];
      }
    }
    throw "label not in pool";
  }
};

struct PlacedLabel {
  std::size_t offset;
  const char* text;
};

/// Lays the labels out at their offsets at compile time; a label that
/// overlaps another or runs past the pool fails the constant evaluation.
template <std::size_t K>
consteval LabelPool make_label_pool(const PlacedLabel (&labels)[K]) {
  LabelPool pool;
  bool used[sizeof pool.bytes] = {};
  for (const PlacedLabel& label : labels) {
    std::size_t i = label.offset;
    for (const char* c = label.text;; ++c, ++i) {
      if (i >= sizeof pool.bytes || used[i]) throw "label pool overlap";
      used[i] = true;
      pool.bytes[i] = *c;
      if (*c == '\0') break;
    }
  }
  return pool;
}

}  // namespace rmts::testing
