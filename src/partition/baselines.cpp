#include "partition/baselines.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "bounds/bound.hpp"
#include "partition/policies.hpp"
#include "partition/processor_state.hpp"

namespace rmts {

namespace {

std::string fit_name(FitPolicy fit) {
  switch (fit) {
    case FitPolicy::kFirstFit: return "FF";
    case FitPolicy::kBestFit: return "BF";
    case FitPolicy::kWorstFit: return "WF";
  }
  return "?";
}

std::string order_name(TaskOrder order) {
  switch (order) {
    case TaskOrder::kDecreasingUtilization: return "D";
    case TaskOrder::kRateMonotonic: return "rm";
  }
  return "?";
}

std::string admission_name(Admission admission) {
  switch (admission) {
    case Admission::kExactRta: return "rta";
    case Admission::kLiuLayland: return "ll";
    case Admission::kHyperbolic: return "hb";
  }
  return "?";
}

/// Adds `candidate` to `processor` when `admission` accepts it.  Exact RTA
/// admits through try_add(), whose accepting probe leaves the processor's
/// admission cache exact for the next probe.
bool admit(Admission admission, ProcessorState& processor,
           const Subtask& candidate) {
  bool admitted = false;
  switch (admission) {
    case Admission::kExactRta:
      return processor.try_add(candidate);
    case Admission::kLiuLayland: {
      const std::size_t n = processor.subtasks().size() + 1;
      admitted = processor.utilization() + candidate.utilization() <=
                 liu_layland_theta(n);
      break;
    }
    case Admission::kHyperbolic: {
      double product = candidate.utilization() + 1.0;
      for (const Subtask& s : processor.subtasks()) {
        product *= s.utilization() + 1.0;
      }
      admitted = product <= 2.0;
      break;
    }
  }
  if (admitted) processor.add(candidate);
  return admitted;
}

/// Indices of `tasks` in the requested offering order.
std::vector<std::size_t> offering_order(const TaskSet& tasks, TaskOrder order) {
  std::vector<std::size_t> ranks(tasks.size());
  std::iota(ranks.begin(), ranks.end(), 0);
  if (order == TaskOrder::kDecreasingUtilization) {
    std::stable_sort(ranks.begin(), ranks.end(),
                     [&](std::size_t a, std::size_t b) {
                       return tasks[a].utilization() > tasks[b].utilization();
                     });
  }
  return ranks;  // RM order == rank order
}

/// Places `candidate` on the bin `fit` picks among the admitting ones;
/// false when none admits it.
bool place(std::vector<ProcessorState>& processors, FitPolicy fit,
           Admission admission, const Subtask& candidate) {
  if (fit == FitPolicy::kFirstFit) {
    for (ProcessorState& processor : processors) {
      if (admit(admission, processor, candidate)) return true;
    }
    return false;
  }
  // Best/WorstFit pick the admitting processor with the extreme
  // utilization, earliest index on ties.  Probing in preference order --
  // utilization descending (BF) / ascending (WF), stable on index --
  // returns that identical pick but stops at the first admit, skipping
  // the (RTA-backed, hence expensive) probes of every less-preferred
  // processor that the plain left-to-right scan would have paid for.
  thread_local std::vector<std::size_t> order;
  order.resize(processors.size());
  std::iota(order.begin(), order.end(), 0);
  const bool best_fit = fit == FitPolicy::kBestFit;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return best_fit ? processors[a].utilization() >
                                           processors[b].utilization()
                                     : processors[a].utilization() <
                                           processors[b].utilization();
                   });
  for (const std::size_t q : order) {
    if (admit(admission, processors[q], candidate)) return true;
  }
  return false;
}

}  // namespace

PartitionedRm::PartitionedRm(FitPolicy fit, TaskOrder order, Admission admission)
    : fit_(fit),
      order_(order),
      admission_(admission),
      name_("P-RM-" + fit_name(fit) + order_name(order) + "/" +
            admission_name(admission)) {}

Assignment PartitionedRm::partition(const TaskSet& tasks, std::size_t m) const {
  std::vector<ProcessorState> processors(m);
  std::vector<TaskId> unassigned;
  for (const std::size_t rank : offering_order(tasks, order_)) {
    const Subtask candidate = whole_subtask(tasks[rank], rank);
    if (!place(processors, fit_, admission_, candidate)) {
      unassigned.push_back(tasks[rank].id);
    }
  }
  return finalize_assignment(processors, std::move(unassigned));
}

Assignment PartitionedEdf::partition(const TaskSet& tasks, std::size_t m) const {
  std::vector<ProcessorState> processors(m);
  std::vector<TaskId> unassigned;
  constexpr double kEps = 1e-9;
  for (const std::size_t rank :
       offering_order(tasks, TaskOrder::kDecreasingUtilization)) {
    const Subtask candidate = whole_subtask(tasks[rank], rank);
    bool placed = false;
    for (ProcessorState& processor : processors) {
      if (processor.utilization() + candidate.utilization() <= 1.0 + kEps) {
        processor.add(candidate);
        placed = true;
        break;
      }
    }
    if (!placed) unassigned.push_back(tasks[rank].id);
  }
  return finalize_assignment(processors, std::move(unassigned));
}

bool GlobalRmUs::accepts(const TaskSet& tasks, std::size_t processors) const {
  const double m = static_cast<double>(processors);
  return tasks.total_utilization() <= m * m / (3.0 * m - 2.0);
}

bool GlobalEdfGfb::accepts(const TaskSet& tasks, std::size_t processors) const {
  const double m = static_cast<double>(processors);
  return tasks.total_utilization() <= m - (m - 1.0) * tasks.max_utilization();
}

}  // namespace rmts
