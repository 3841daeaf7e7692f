// The in-process workload: the paper's own users, without a server.
// Phase A is a design-space sweep (RM-TS partitioning of heavy task sets
// near breakdown); phase B is an embedded session controller
// (PartitionSession churn, admit-heavy).
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bounds/harmonic.hpp"
#include "online/session.hpp"
#include "partition/rmts.hpp"
#include "rta/rta.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rmts::trace::Counter;
using rmts::trace::Stage;

constexpr std::size_t kTasks = 64;
constexpr std::size_t kProcessors = 16;
constexpr double kUtilizationLo = 0.80;
constexpr double kUtilizationHi = 0.95;
constexpr std::size_t kPool = 1024;
constexpr double kDepartFraction = 0.10;
constexpr std::size_t kSetupReps = 51;
constexpr double kWindowS = 0.25;

/// An embedded controller's session plus the benchmark's ledger of it.
struct Controller {
  explicit Controller(std::uint64_t seed)
      : session(config()), rng(rmts::Rng(seed).fork(0xB)) {}

  static rmts::online::SessionConfig config() {
    rmts::online::SessionConfig c;
    c.processors = kSessionProcessors;
    c.rebalance_every = 0;  // rebalance() is called, and timed, explicitly
    return c;
  }

  rmts::online::PartitionSession session;
  rmts::Rng rng;
  struct Live {
    rmts::online::Ticket ticket;
    double utilization;
  };
  std::vector<Live> live;
  double utilization{0.0};

  bool admit(std::uint64_t& ns) {
    const TaskDraw d = draw_session_task(rng);
    const auto t0 = Clock::now();
    const rmts::online::AdmitResult r = session.admit(d.wcet, d.period);
    ns = ns_between(t0, Clock::now());
    if (r.admitted) {
      const double u = static_cast<double>(d.wcet) / static_cast<double>(d.period);
      live.push_back({r.ticket, u});
      utilization += u;
    }
    return r.admitted;
  }

  /// False when the session does not know a ticket the ledger holds.
  bool depart(std::uint64_t& ns) {
    const auto victim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    const Live gone = live[victim];
    const auto t0 = Clock::now();
    const bool departed = session.depart(gone.ticket);
    ns = ns_between(t0, Clock::now());
    live[victim] = live.back();
    live.pop_back();
    utilization -= gone.utilization;
    return departed;
  }

  void fill() {
    std::uint64_t ignored = 0;
    for (std::size_t rejected = 0; rejected < kFillRejects;) {
      rejected = admit(ignored) ? 0 : rejected + 1;
    }
  }
};

}  // namespace

Outcome run_library(const Options& opt) {
  Outcome out;
  out.param("tasks", std::to_string(kTasks));
  out.param("processors", std::to_string(kProcessors));
  out.param("normalized_utilization", "U[0.80,0.95]");
  out.param("pool", std::to_string(kPool));
  out.param("alg", "RM-TS, HC bound");
  out.param("session_processors", std::to_string(kSessionProcessors));
  out.param("depart_fraction", "0.10");

  // Inputs and the reference: RM-TS's verdict on every set, and exact RTA
  // of every processor of every accepted assignment.
  const std::vector<rmts::TaskSet> pool = task_set_pool(
      opt.seed, kPool, kTasks, kProcessors, kUtilizationLo, kUtilizationHi);
  std::vector<bool> verdicts;
  std::size_t accepted = 0, split_tasks = 0;
  {
    const rmts::Rmts reference(std::make_shared<rmts::HarmonicChainBound>());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const rmts::Assignment a = reference.partition(pool[i], kProcessors);
      verdicts.push_back(a.success);
      ++out.attempted;
      if (!a.success) continue;
      ++accepted;
      split_tasks += a.split_task_count();
      for (std::size_t q = 0; q < a.processors.size(); ++q) {
        if (!rmts::processor_schedulable(a.processors[q].subtasks)) {
          out.mismatch("set " + std::to_string(i) + ": accepted assignment fails RTA on processor " +
                       std::to_string(q));
        }
      }
    }
  }

  // Set-up, repeated: the partitioner and a controller filled to capacity.
  std::unique_ptr<rmts::Rmts> rmts;
  std::unique_ptr<Controller> controller;
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    controller.reset();
    const auto t0 = Clock::now();
    rmts = std::make_unique<rmts::Rmts>(std::make_shared<rmts::HarmonicChainBound>());
    controller = std::make_unique<Controller>(opt.seed);
    controller->fill();
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  const double s = opt.seconds;
  const bool trace = opt.trace;

  // Phase A: back-to-back partitioning, cycling through the pool.  In a
  // traced run the odd windows record spans and counters.
  const rmts::trace::Snapshot before = rmts::trace::snapshot();
  const Phase a_phase(Clock::now(), 0.5 * s, trace ? 0.5 * s / kTraceSlices : kWindowS);
  WindowTally a_tally(a_phase.windows());
  std::size_t next = 0;
  std::size_t window = a_phase.windows();
  for (auto t0 = Clock::now(); t0 < a_phase.end(); t0 = Clock::now()) {
    const std::size_t w = a_phase.window_of(t0);
    if (trace && w != window) rmts::trace::set_enabled(Phase::traced_window(w));
    window = w;
    const bool ok = rmts->partition(pool[next], kProcessors).success;
    const std::uint64_t ns = ns_between(t0, Clock::now());
    ++out.attempted;
    if (ok != verdicts[next]) {
      out.mismatch("set " + std::to_string(next) + ": verdict differs from the reference run");
    }
    ++a_tally.ok[w];
    a_tally.latency_sum_ns[w] += ns;
    next = (next + 1) % pool.size();
  }
  rmts::trace::set_enabled(false);
  const TraceDelta d(before, rmts::trace::snapshot());
  const PhaseSummary a = summarize(a_tally, a_phase);

  // Phase B: the controller churns, admit-heavy.  Its latencies are
  // pooled over the whole phase rather than taken per window: the op
  // sequence is fixed by the seed, and a window would only see the
  // session states its share of that sequence happened to pass through.
  Controller& c = *controller;
  const rmts::online::SessionStats b_before = c.session.stats();
  const auto b_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(0.45 * s));
  rmts::Histogram admit_ns, depart_ns;
  std::vector<double> util_samples;
  std::uint64_t ops = 0, departs = 0, rebalance_total = 0, rebalances = 0;
  std::uint64_t admits = 0, rejects = 0;
  for (auto t0 = Clock::now(); t0 < b_end; t0 = Clock::now()) {
    std::uint64_t ns = 0;
    if (!c.live.empty() && c.rng.uniform() < kDepartFraction) {
      if (!c.depart(ns)) out.mismatch("session lost a ledger ticket");
      depart_ns.record(ns);
      if (++departs % kRebalanceEvery == 0) {
        const auto r0 = Clock::now();
        c.session.rebalance();
        rebalance_total += ns_between(r0, Clock::now());
        ++rebalances;
      }
    } else {
      (c.admit(ns) ? admits : rejects) += 1;
      admit_ns.record(ns);
    }
    ++ops;
    if (ops <= kUtilOps && ops % kUtilEvery == 0) {
      util_samples.push_back(c.utilization / static_cast<double>(kSessionProcessors));
    }
  }
  out.attempted += ops;
  const rmts::online::SessionStats b_after = c.session.stats();
  if (const std::string broken = c.session.check_invariants(); !broken.empty()) {
    out.mismatch("PartitionSession invariant: " + broken);
  }
  if (b_after.resident_tasks != c.live.size() ||
      std::abs(b_after.utilization - c.utilization) >
          1e-6 * std::max(1.0, b_after.utilization)) {
    out.mismatch("ledger holds " + std::to_string(c.live.size()) +
                 " tasks, session reports " + std::to_string(b_after.resident_tasks));
  }
  double norm_util = 0.0;
  for (double u : util_samples) norm_util += u;
  norm_util = ratio(norm_util, static_cast<double>(util_samples.size()));
  const double accept_ratio =
      static_cast<double>(accepted) / static_cast<double>(pool.size());

  if (!trace) {
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("ok_share", 1.0 - ratio(static_cast<double>(out.failed),
                                    static_cast<double>(out.attempted)), "ratio");
    out.add("ops_per_s", a.rate_per_s, "1/s");
    out.add("p50_us", admit_ns.quantile(0.50) / 1e3, "us");
    out.add("p90_us", admit_ns.quantile(0.90) / 1e3, "us");
    out.add("quality_ratio", accept_ratio, "ratio");
    return out;
  }

  // No server, wire or codec on this path: those layers read 0.
  for (const char* name :
       {"loadgen.late_p99_us", "loadgen.open_p50_us", "loadgen.open_p99_us",
        "server.decode_us", "server.queue_wait_p50_us",
        "server.queue_wait_p99_us", "server.compute_us", "server.write_us",
        "server.wire_us", "pool.task_wait_us", "pool.task_run_us",
        "router.admit_us", "router.session_us"}) {
    out.add(name, 0.0, "us");
  }
  for (const char* name : {"protocol.frame_ns", "json.parse_ns", "tasks.build_ns",
                           "bounds.eval_ns", "router.handle_ns", "router.residual_ns"}) {
    out.add(name, 0.0, "ns");
  }
  out.add("json.parse_ns_per_byte", 0.0, "ns/B");
  out.add("server.batch_size", 0.0, "count");
  out.add("loadgen.sent", static_cast<double>(a.traced_ops) + static_cast<double>(ops),
          "count");

  // partition.rmts_ns from the untraced slices: the cost users see.
  std::uint64_t untraced_ns = 0, untraced_sets = 0, traced_ns = 0;
  for (std::size_t w = 0; w < a_phase.windows(); ++w) {
    if (Phase::traced_window(w)) {
      traced_ns += a_tally.latency_sum_ns[w];
    } else {
      untraced_ns += a_tally.latency_sum_ns[w];
      untraced_sets += a_tally.ok[w];
    }
  }
  out.add("partition.rmts_ns",
          ratio(static_cast<double>(untraced_ns), static_cast<double>(untraced_sets)), "ns");
  const double runs = static_cast<double>(d.counter(Counter::kPartitionRuns));
  const auto per_run = [&](Stage st) { return ratio(d.total_us(st), runs); };
  out.add("partition.place_us", per_run(Stage::kPartitionPlace), "us");
  out.add("partition.preassign_us", per_run(Stage::kPartitionPreassign), "us");
  out.add("partition.dedicate_us", per_run(Stage::kPartitionDedicate), "us");
  out.add("rta.iterations_per_set",
          ratio(static_cast<double>(d.counter(Counter::kAdmissionRtaIterations)), runs),
          "count");
  out.add("rta.seeded_per_set",
          ratio(static_cast<double>(d.counter(Counter::kAdmissionSeededRta)), runs), "count");
  out.add("admission.miss_per_set",
          ratio(static_cast<double>(d.counter(Counter::kAdmissionCacheMiss)), runs), "count");
  out.add("partition.split_share",
          ratio(static_cast<double>(split_tasks), static_cast<double>(accepted * kTasks)),
          "ratio");

  out.add("online.admit_ns_p50", admit_ns.quantile(0.50), "ns");
  out.add("online.admit_ns_p99", admit_ns.quantile(0.99), "ns");
  out.add("online.depart_ns_p99", depart_ns.quantile(0.99), "ns");
  out.add("online.rebalance_ns",
          ratio(static_cast<double>(rebalance_total), static_cast<double>(rebalances)), "ns");
  out.add("online.migrations_per_kop",
          1000.0 * ratio(static_cast<double>(b_after.migrations_total -
                                             b_before.migrations_total),
                         static_cast<double>(ops)),
          "count");
  out.add("online.reject_share",
          ratio(static_cast<double>(rejects), static_cast<double>(admits + rejects)), "ratio");
  out.add("online.norm_util", norm_util, "ratio");

  // Reconciliation on phase A: wall time per set against the partitioner's
  // own stages (dedicate + pre-assign + place) in the traced slices.
  const double e2e_us = ratio(static_cast<double>(traced_ns) / 1e3,
                              static_cast<double>(a.traced_ops));
  const double layers = per_run(Stage::kPartitionPlace) +
                        per_run(Stage::kPartitionPreassign) +
                        per_run(Stage::kPartitionDedicate);
  out.add("reconcile.residual_share", 1.0 - ratio(layers, e2e_us), "ratio");
  out.add("trace.overhead_share", 1.0 - ratio(a.traced_rate, a.untraced_rate), "ratio");
  return out;
}

}  // namespace perfbench
