// Shared measurement scaffolding of the repo benchmark: run options, the
// result every workload fills in, timing windows, quantiles and the
// generated inputs that more than one workload draws from.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "common/time.hpp"
#include "tasks/task_set.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  /// false: end-to-end metrics, tracing switched off.  true: per-layer
  /// metrics, tracing switched on for alternate slices.
  bool trace{false};
};

/// What one run reports.  A correctness mismatch is not a metric: it
/// clears `correct`, and main() exits non-zero.
struct Outcome {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::string> mismatches;
  /// The CPU the run was confined to, or -1 (see OneCpu).
  int pinned_cpu{-1};
  /// Workload parameters, stamped into the provenance line.
  std::vector<std::pair<std::string, std::string>> params;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void mismatch(std::string what);
  void param(std::string key, std::string value) {
    params.emplace_back(std::move(key), std::move(value));
  }
};

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
[[nodiscard]] std::uint64_t ns_between(Clock::time_point a,
                                       Clock::time_point b);

/// While alive, confines the process, and every thread it starts later,
/// to the last CPU it may use, and keeps that CPU from going idle.  The
/// wire workloads hold one around their server.
///
/// On a shared virtual host every wake-up of an idle vCPU waits for the
/// hypervisor to run it again.  Unpinned, the wire figures swung 3-5x
/// between runs with steal time at 10-20%; pinned but idling between
/// requests, open-loop tails read 6-8 ms.  So all threads share one CPU,
/// and a SCHED_IDLE thread spins on it whenever nothing else is runnable:
/// any woken thread preempts it at once, and the vCPU never halts.
/// Multi-core scaling is therefore not what the wire workloads measure.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

  /// The CPU, or -1 when affinity could not be set (then nothing spins).
  [[nodiscard]] int cpu() const noexcept { return cpu_; }

 private:
  int cpu_{-1};
  int timer_slack_ns_{0};
  std::atomic<bool> stop_{false};
  std::thread awake_;
};

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// Splits a measured phase into equal windows (end-to-end metrics take
/// the median over windows, so one stalled window cannot move them) and,
/// in traced runs, into alternating untraced/traced slices.
class Phase {
 public:
  Phase(Clock::time_point start, double seconds, double window_s);
  [[nodiscard]] Clock::time_point start() const noexcept { return start_; }
  [[nodiscard]] Clock::time_point end() const noexcept { return end_; }
  [[nodiscard]] std::size_t windows() const noexcept { return windows_; }
  /// Window holding time `t`, clamped to the last one.
  [[nodiscard]] std::size_t window_of(Clock::time_point t) const noexcept;
  /// Traced slices are the odd windows.
  [[nodiscard]] static bool traced_window(std::size_t w) noexcept {
    return w % 2 == 1;
  }
  [[nodiscard]] double window_seconds() const noexcept { return window_s_; }

 private:
  Clock::time_point start_;
  Clock::time_point end_;
  double window_s_;
  std::size_t windows_;
};

/// Traced runs alternate this many untraced and traced slices; the
/// tracing overhead compares the two halves.
inline constexpr double kTraceSlices = 16.0;

/// Tally of one measured phase: ops and latency samples bucketed by
/// window.  Latencies go into HDR histograms, so memory does not grow
/// with the op count (peak_rss_mb must not depend on speed).
struct WindowTally {
  explicit WindowTally(std::size_t windows)
      : ok(windows, 0), latency_ns(windows), latency_sum_ns(windows, 0) {}
  std::vector<std::uint64_t> ok;
  std::vector<rmts::Histogram> latency_ns;
  std::vector<std::uint64_t> latency_sum_ns;
};

/// Summary of a tally: the median over windows of the per-window rate and
/// latency quantiles, plus totals split by traced/untraced slices.
struct PhaseSummary {
  double rate_per_s{0.0};
  double p50_us{0.0};
  double p90_us{0.0};
  double p99_us{0.0};
  double untraced_rate{0.0};
  double traced_rate{0.0};
  std::uint64_t traced_ops{0};
};
[[nodiscard]] PhaseSummary summarize(const WindowTally& tally, const Phase& phase);

/// Stage and counter deltas of the process-wide tracer between two
/// snapshots.  Stage quantiles come from the tracer's 1-in-16 sampled
/// histograms; counts and totals are exact.
class TraceDelta {
 public:
  TraceDelta(rmts::trace::Snapshot before, rmts::trace::Snapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}
  [[nodiscard]] std::uint64_t count(rmts::trace::Stage stage) const;
  [[nodiscard]] double total_us(rmts::trace::Stage stage) const;
  /// Mean duration per recorded span (0 when none).
  [[nodiscard]] double mean_us(rmts::trace::Stage stage) const;
  [[nodiscard]] double quantile_us(rmts::trace::Stage stage, double p) const;
  [[nodiscard]] std::uint64_t counter(rmts::trace::Counter counter) const;

 private:
  rmts::trace::Snapshot before_;
  rmts::trace::Snapshot after_;
};

/// a / b, or 0 when b is 0 (a layer the workload never reached).
[[nodiscard]] inline double ratio(double a, double b) {
  return b == 0.0 ? 0.0 : a / b;
}

/// One sporadic task of the session workloads (E22's draw): period
/// uniform in [1e3, 1e6] ticks, utilization uniform in [0.03, 0.25].
struct TaskDraw {
  rmts::Time wcet;
  rmts::Time period;
};
[[nodiscard]] TaskDraw draw_session_task(rmts::Rng& rng);

/// `count` task sets from the repo's generator: sample i is drawn from
/// Rng(seed).fork(i), with U_M uniform in [u_lo, u_hi] per sample.
[[nodiscard]] std::vector<rmts::TaskSet> task_set_pool(
    std::uint64_t seed, std::size_t count, std::size_t tasks,
    std::size_t processors, double u_lo, double u_hi);

}  // namespace perfbench
