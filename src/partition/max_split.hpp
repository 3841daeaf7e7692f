// MaxSplit (paper Definition 3): the largest prefix of a (sub)task that a
// processor can still accommodate without any hosted (sub)task missing its
// synthetic deadline.  After assigning that prefix the processor has a
// *bottleneck* (Definition 2): one more tick of top-priority execution time
// would make some hosted subtask unschedulable.  This is the splitting
// primitive of RM-TS and RM-TS/light.
//
// Two exact implementations are provided:
//  * kBinarySearch -- O(log C) full admission checks; the reference
//    implementation (paper Section IV-A suggests it directly) and the
//    oracle the other method is tested against.
//  * kSchedulingPoints -- the efficient method of [22]: for every hosted
//    lower-priority subtask, maximize the admissible extra interference
//    in closed form over its time-demand testing set.  One streaming pass
//    per hosted subtask merges the higher-priority arrival sequences in
//    time order and evaluates the closed form at each hosted scheduling
//    point and at the last candidate arrival before it; the pass stops as
//    soon as the subtask can no longer lower the budget.  Each pass starts
//    at the subtask's candidate-free response time R_i, read from the
//    processor's admission cache (no earlier point admits a positive
//    prefix), and the budget starts capped at the least slack D_i - R_i
//    (a prefix c pushes R_i to at least R_i + c).  Still
//    pseudo-polynomial but much faster (measured in bench_e8_runtime
//    BM_MaxSplit).
// Both compute the same value on every input (property-tested, and
// differentially fuzzed by `rmts_fuzz maxsplit`).
#pragma once

#include "partition/processor_state.hpp"
#include "tasks/subtask.hpp"

namespace rmts {

enum class MaxSplitMethod : std::uint8_t {
  kBinarySearch,
  kSchedulingPoints,
};

/// Maximum wcet c* in [0, prototype.wcet] such that `processor` with
/// {prototype, wcet = c*} added stays fully schedulable under exact RTA.
/// All prototype fields except wcet (priority, period, synthetic deadline)
/// are taken as given.  Requires the processor to be schedulable as-is;
/// returns 0 when nothing fits.
[[nodiscard]] Time max_admissible_wcet(const ProcessorState& processor,
                                       const Subtask& prototype,
                                       MaxSplitMethod method);

}  // namespace rmts
