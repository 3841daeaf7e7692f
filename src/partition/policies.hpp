// Small shared helpers for partitioning algorithms: processor-selection
// policies, the reusable per-thread partition workspace, and conversion of
// working state into the public Assignment.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "partition/assignment.hpp"
#include "partition/processor_state.hpp"

namespace rmts {

/// Worst-fit choice among a candidate index set: the non-full processor
/// with minimal assigned utilization, ties broken towards the candidate
/// listed first.
[[nodiscard]] std::optional<std::size_t> least_utilized_non_full(
    std::span<const ProcessorState> processors,
    std::span<const std::size_t> candidates);

/// Worst-fit over all of `processors` (ties towards the smallest index).
/// RM-TS passes the subspan of its normal processors and offsets the
/// result.
[[nodiscard]] std::optional<std::size_t> least_utilized_non_full(
    std::span<const ProcessorState> processors);

/// Copies working processor states into the immutable result.
[[nodiscard]] Assignment finalize_assignment(
    std::span<const ProcessorState> processors,
    std::vector<TaskId> unassigned);

/// What one RM-TS or RM-TS/light run would otherwise rebuild per call: the
/// working processors and RM-TS's per-rank scratch vectors.
struct PartitionScratch {
  std::vector<ProcessorState> processors;
  std::vector<char> task_placed;    ///< RM-TS: rank already handled
  std::vector<double> suffix_util;  ///< RM-TS: lower-priority utilization
};

/// RAII lease of this thread's PartitionScratch for one partitioning run.
/// The leased processors are reset() rather than rebuilt, so a warm thread
/// partitions without allocating beyond the returned Assignment: subtask
/// vectors, admission caches and SoA mirrors keep their capacity from
/// earlier runs.
///
/// Falls back to one-off storage, freed with the lease, when this thread's
/// scratch is already leased (a partition() nested inside another on the
/// same thread) or when the run exceeds the retention bound -- more than
/// kRetainedProcessors processors or kRetainedTasks tasks -- so no thread
/// keeps more than 64 processors' storage, each grown for at most 256
/// tasks, after an oversized request.
class ScratchLease {
 public:
  static constexpr std::size_t kRetainedProcessors = 64;
  static constexpr std::size_t kRetainedTasks = 256;

  ScratchLease(std::size_t processors, std::size_t tasks);
  ~ScratchLease();
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  /// Exactly `processors` empty, non-full processors.
  [[nodiscard]] std::span<ProcessorState> processors() const noexcept {
    return processors_;
  }
  /// The scratch vectors; contents are left from earlier runs, so callers
  /// assign() before use.
  [[nodiscard]] PartitionScratch& scratch() const noexcept { return *scratch_; }

 private:
  std::unique_ptr<PartitionScratch> one_off_;
  PartitionScratch* scratch_;
  std::span<ProcessorState> processors_;
};

}  // namespace rmts
