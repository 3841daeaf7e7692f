// The benchmark's workloads and the in-process layer replay the traced
// runs of the wire workloads use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

/// Batch `admit` requests over loopback TCP: closed loop, then open loop.
[[nodiscard]] Outcome run_admit_wire(const Options& options);
/// `session_*` churn over loopback TCP, closed loop.
[[nodiscard]] Outcome run_session_wire(const Options& options);
/// In-process RM-TS partitioning sweep, then a PartitionSession churn.
[[nodiscard]] Outcome run_library(const Options& options);

/// Per-line (or per-op) cost of each layer a wire request crosses inside
/// the server, measured by calling the layers' public functions on the
/// workload's own request lines.  Fields a line type does not reach stay 0.
struct LayerReplay {
  double frame_ns{0.0};     ///< LineDecoder feed + next
  double parse_ns{0.0};     ///< json_parse
  double parse_ns_per_byte{0.0};
  double build_ns{0.0};     ///< TaskSet::from_pairs
  double eval_ns{0.0};      ///< HarmonicChainBound::evaluate
  double rmts_ns{0.0};      ///< Rmts::partition
  double online_ns{0.0};    ///< PartitionSession op (session lines)
  double handle_ns{0.0};    ///< Router::handle
  /// handle minus the layers above that run inside it.
  double residual_ns{0.0};
};

/// Replays admit lines (all for `processors` processors) for about
/// `seconds`; every layer is timed over whole passes of the pool and the
/// median pass is reported.
[[nodiscard]] LayerReplay replay_admit_lines(
    const std::vector<std::string>& lines, std::size_t processors,
    double seconds);

/// Session-op timings of an in-process PartitionSession, shared by the
/// session replay and the library workload.
struct SessionTimings {
  double admit_ns_p50{0.0};
  double admit_ns_p99{0.0};
  double depart_ns_p99{0.0};
  double rebalance_ns{0.0};
};

/// Replays session_admit/session_depart churn (the session_wire op mix)
/// through a Router and, op for op, through a standalone PartitionSession
/// with the same inputs.  The two must hand out the same verdicts and
/// tickets; a divergence is recorded on `outcome`.
[[nodiscard]] LayerReplay replay_session_ops(std::uint64_t seed,
                                             double seconds,
                                             SessionTimings& online,
                                             Outcome& outcome);

/// Session-workload parameters shared by session_wire, the session replay
/// and library phase B.
inline constexpr std::size_t kSessionProcessors = 8;
/// Share of session_wire churn ops that are departures (the rest admit).
inline constexpr double kWireDepartFraction = 0.45;
/// A session is full after this many consecutive rejected admits.
inline constexpr std::size_t kFillRejects = 32;
/// session_norm_util samples the resident utilization every
/// kUtilEvery-th op among the first kUtilOps churn ops, so it is a pure
/// function of the seed.
inline constexpr std::uint64_t kUtilEvery = 64;
inline constexpr std::uint64_t kUtilOps = 16384;
/// Explicit rebalance cadence of the in-process sessions: the same
/// schedule as SessionConfig's default automatic pass, but called by the
/// benchmark so the pass can be timed on its own.
inline constexpr std::uint64_t kRebalanceEvery = 16;

}  // namespace perfbench
