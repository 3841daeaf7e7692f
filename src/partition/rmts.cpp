#include "partition/rmts.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/trace.hpp"
#include "partition/policies.hpp"
#include "partition/splitting.hpp"

namespace rmts {

namespace {

/// Largest-index non-full processor in [first, last) (paper Algorithm 3,
/// line 19: first-fit starting at the processor hosting the lowest-priority
/// pre-assigned task).
std::optional<std::size_t> largest_index_non_full(
    std::span<const ProcessorState> processors, std::size_t first,
    std::size_t last) {
  for (std::size_t q = last; q-- > first;) {
    if (!processors[q].full()) return q;
  }
  return std::nullopt;
}

}  // namespace

Rmts::Rmts(BoundPtr bound, MaxSplitMethod method, std::string label)
    : bound_(std::move(bound)), method_(method), label_(std::move(label)) {}

double Rmts::guaranteed_bound(const TaskSet& tasks) const {
  return std::min(bound_->evaluate(tasks), rmts_bound_cap(tasks.size()));
}

Assignment Rmts::partition(const TaskSet& tasks, std::size_t m) const {
  double guaranteed = 0.0;
  return partition(tasks, m, guaranteed);
}

Assignment Rmts::partition(const TaskSet& tasks, std::size_t m,
                           double& guaranteed) const {
  trace::count(trace::Counter::kPartitionRuns);
  const std::size_t n = tasks.size();
  const double lambda = guaranteed_bound(tasks);
  guaranteed = lambda;
  const double light_threshold = light_task_threshold(n);

  // Processors leave the unmarked queue in index order, so each phase's
  // processors form a range: [0, pre_assigned_begin) dedicated,
  // [pre_assigned_begin, normal_begin) pre-assigned, [normal_begin, m)
  // normal.  `next` is the queue head.
  const ScratchLease lease(m, n);
  const std::span<ProcessorState> processors = lease.processors();
  std::vector<char>& task_placed = lease.scratch().task_placed;
  task_placed.assign(n, 0);
  std::vector<TaskId> unassigned;
  std::size_t next = 0;

  // ---- Phase 0: dedicated processors (paper footnote 5) ------------------
  // A task whose utilization exceeds Lambda(tau) cannot be covered by the
  // per-processor bound argument; it executes exclusively on its own
  // processor.  Each dedicated processor carries > lambda utilization, so
  // the overall normalized bound is preserved.
  {
    const trace::Span span(trace::Stage::kPartitionDedicate);
    for (std::size_t rank = 0; rank < n; ++rank) {
      if (tasks[rank].utilization() <= lambda) continue;
      if (next == m) {
        unassigned.push_back(tasks[rank].id);
        task_placed[rank] = 1;  // handled (as a failure); skip later phases
        continue;
      }
      const std::size_t q = next++;
      processors[q].add(whole_subtask(tasks[rank], rank));
      processors[q].mark_full();  // exclusive: nothing else lands here
      task_placed[rank] = 1;
    }
  }

  // ---- Phase 1: pre-assignment (decreasing priority order) ---------------
  // suffix_util[rank] = sum of utilizations of all lower-priority tasks.
  const std::size_t pre_assigned_begin = next;
  {
    const trace::Span span(trace::Stage::kPartitionPreassign);
    std::vector<double>& suffix_util = lease.scratch().suffix_util;
    suffix_util.assign(n + 1, 0.0);
    for (std::size_t rank = n; rank-- > 0;) {
      suffix_util[rank] = suffix_util[rank + 1] + tasks[rank].utilization();
    }

    for (std::size_t rank = 0; rank < n && next < m; ++rank) {
      if (task_placed[rank]) continue;
      const double u = tasks[rank].utilization();
      if (u <= light_threshold) continue;  // light task: never pre-assigned
      const double normal_count = static_cast<double>(m - next);
      if (suffix_util[rank + 1] <= (normal_count - 1.0) * lambda) {
        const std::size_t q = next++;  // minimal-index normal
        processors[q].add(whole_subtask(tasks[rank], rank));
        task_placed[rank] = 1;
      }
    }
  }
  const std::size_t normal_begin = next;
  const std::span<const ProcessorState> normal =
      processors.subspan(normal_begin);

  // ---- Phases 2 and 3 (increasing priority order) ------------------------
  // Phase 2 fills the normal processors worst-fit; when they are all full,
  // the current chain and all later tasks continue first-fit onto the
  // pre-assigned processors, largest index (lowest-priority pre-assigned
  // task) first.
  {
    const trace::Span span(trace::Stage::kPartitionPlace);
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t rank = n - 1 - step;
      if (task_placed[rank]) continue;
      ChainCursor cursor(tasks[rank], rank);
      bool placed = false;
      while (!placed) {
        auto q = least_utilized_non_full(normal);
        if (q) {
          *q += normal_begin;
        } else {
          q = largest_index_non_full(processors, pre_assigned_begin,
                                     normal_begin);
        }
        if (!q) break;  // every processor full
        placed = assign_or_split(processors[*q], cursor, method_);
      }
      if (!placed) {
        unassigned.push_back(cursor.task_id());
        for (std::size_t r = rank; r-- > 0;) {
          if (!task_placed[r]) unassigned.push_back(tasks[r].id);
        }
        break;
      }
    }
  }
  return finalize_assignment(processors, std::move(unassigned));
}

}  // namespace rmts
