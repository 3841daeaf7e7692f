#include "partition/policies.hpp"

namespace rmts {

namespace {

thread_local PartitionScratch t_scratch;
thread_local bool t_scratch_leased = false;

}  // namespace

// Both overloads sit in the innermost loop of every worst-fit partitioner
// (one scan per placement attempt), so they carry the best utilization in a
// register instead of re-reading processors[best] each comparison, and the
// all-processors overload iterates directly rather than materializing an
// index vector per call.

std::optional<std::size_t> least_utilized_non_full(
    std::span<const ProcessorState> processors,
    std::span<const std::size_t> candidates) {
  std::optional<std::size_t> best;
  double best_util = 0.0;
  for (const std::size_t q : candidates) {
    if (processors[q].full()) continue;
    const double util = processors[q].utilization();
    if (!best || util < best_util) {
      best = q;
      best_util = util;
    }
  }
  return best;
}

std::optional<std::size_t> least_utilized_non_full(
    std::span<const ProcessorState> processors) {
  std::optional<std::size_t> best;
  double best_util = 0.0;
  for (std::size_t q = 0; q < processors.size(); ++q) {
    if (processors[q].full()) continue;
    const double util = processors[q].utilization();
    if (!best || util < best_util) {
      best = q;
      best_util = util;
    }
  }
  return best;
}

Assignment finalize_assignment(std::span<const ProcessorState> processors,
                               std::vector<TaskId> unassigned) {
  Assignment result;
  result.success = unassigned.empty();
  result.unassigned = std::move(unassigned);
  result.processors.reserve(processors.size());
  for (const ProcessorState& state : processors) {
    ProcessorAssignment proc;
    proc.subtasks.assign(state.subtasks().begin(), state.subtasks().end());
    result.processors.push_back(std::move(proc));
  }
  return result;
}

ScratchLease::ScratchLease(std::size_t processors, std::size_t tasks) {
  if (!t_scratch_leased && processors <= kRetainedProcessors &&
      tasks <= kRetainedTasks) {
    t_scratch_leased = true;
    scratch_ = &t_scratch;
  } else {
    one_off_ = std::make_unique<PartitionScratch>();
    scratch_ = one_off_.get();
  }
  std::vector<ProcessorState>& all = scratch_->processors;
  if (all.size() < processors) all.resize(processors);
  processors_ = std::span<ProcessorState>(all).first(processors);
  for (ProcessorState& processor : processors_) processor.reset();
}

ScratchLease::~ScratchLease() {
  if (scratch_ == &t_scratch) t_scratch_leased = false;
}

}  // namespace rmts
