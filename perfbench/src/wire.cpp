// The two wire workloads: a live rmts_serve Server on its own thread (as
// E18 runs it) driven over loopback TCP by the benchmark's own
// single-thread load generators (loadgen.hpp).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bounds/harmonic.hpp"
#include "loadgen.hpp"
#include "partition/rmts.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rmts::trace::Counter;
using rmts::trace::Stage;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kAdmitTasks = 16;
constexpr std::size_t kAdmitProcessors = 4;
constexpr double kAdmitUtilization = 0.6;
constexpr std::size_t kAdmitPool = 256;
constexpr double kOpenLoopRate = 2500.0;
/// Open-loop windows hold 1250 requests on average, so all but a
/// vanishing share reach the 1000 a p99 with ten samples beyond it needs.
constexpr double kOpenWindowS = 0.5;
constexpr std::size_t kSetupReps = 51;
constexpr double kWindowS = 0.25;

/// The service under test.  Members are declared so the loop thread
/// starts after the server it runs and is joined before it is destroyed.
class LiveServer {
 public:
  LiveServer() : server_(config()), loop_([this] { server_.run(); }) {}
  ~LiveServer() {
    server_.request_stop();
    loop_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] rmts::server::RuntimeStats runtime() const {
    return server_.runtime_stats();
  }

 private:
  static rmts::server::ServerConfig config() {
    rmts::server::ServerConfig c;
    c.port = 0;
    c.workers = kWorkers;
    // Measure the service path, not shedding (E20 measures that): with
    // static budgets this high, the burst an open-loop generator sends
    // after a stall is queued instead of shed, so no operation fails.
    c.max_in_flight = 1024;
    c.overload.adaptive = false;
    c.overload.max_budget = 1024;
    c.overload.initial_budget = 1024;
    return c;
  }

  rmts::server::Server server_;
  std::thread loop_;
};

/// Replies are rendered by the server's JsonWriter with "ok" first; the
/// fixed shape lets the hot loops check them without a JSON parse.
bool reply_ok(std::string_view reply) {
  return reply.starts_with("{\"ok\":true");
}

/// Text of the value after `"key":` (up to the next ',' or '}').
std::string_view field(std::string_view reply, std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const std::size_t at = reply.find(pattern);
  if (at == std::string_view::npos) return {};
  const std::size_t from = at + pattern.size();
  const std::size_t to = reply.find_first_of(",}", from);
  return reply.substr(from, to == std::string_view::npos ? to : to - from);
}

template <typename T>
bool field_number(std::string_view reply, std::string_view key, T& out) {
  const std::string_view text = field(reply, key);
  if (text.empty()) return false;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

/// Mean per-request time the server's own stages account for: decode and
/// write are per wave, so they are spread over the requests.
double server_layers_us(const TraceDelta& d, double requests) {
  return ratio(d.total_us(Stage::kServerDecode), requests) +
         d.mean_us(Stage::kServerQueueWait) + d.mean_us(Stage::kServerCompute) +
         ratio(d.total_us(Stage::kServerWrite), requests);
}

/// Server-side stage metrics over the traced requests.
void add_server_layers(Outcome& out, const TraceDelta& d, double batch_size,
                       double requests, double e2e_from_send_us) {
  const double qwait = d.mean_us(Stage::kServerQueueWait);
  const double compute = d.mean_us(Stage::kServerCompute);
  out.add("server.decode_us", ratio(d.total_us(Stage::kServerDecode), requests), "us");
  out.add("server.queue_wait_p50_us", d.quantile_us(Stage::kServerQueueWait, 0.50), "us");
  out.add("server.queue_wait_p99_us", d.quantile_us(Stage::kServerQueueWait, 0.99), "us");
  out.add("server.compute_us", compute, "us");
  out.add("server.write_us", ratio(d.total_us(Stage::kServerWrite), requests), "us");
  out.add("server.batch_size", batch_size, "count");
  out.add("server.wire_us", e2e_from_send_us - qwait - compute, "us");
  out.add("pool.task_wait_us", d.mean_us(Stage::kPoolTaskWait), "us");
  out.add("pool.task_run_us", d.mean_us(Stage::kPoolTaskRun), "us");
  out.add("router.admit_us", d.mean_us(Stage::kRouterAdmit), "us");
  out.add("router.session_us", d.mean_us(Stage::kRouterSession), "us");
}

/// Admission counters per unit of admission work (a task set for batch
/// admits, an op for sessions).  The admission-cache hit counter is not
/// reported: fits() stopped counting hits, so it reads 0 by construction.
void add_admission_counters(Outcome& out, const TraceDelta& d, double units) {
  const double runs = static_cast<double>(d.counter(Counter::kPartitionRuns));
  const auto per_run = [&](Stage s) { return ratio(d.total_us(s), runs); };
  out.add("partition.place_us", per_run(Stage::kPartitionPlace), "us");
  out.add("partition.preassign_us", per_run(Stage::kPartitionPreassign), "us");
  out.add("partition.dedicate_us", per_run(Stage::kPartitionDedicate), "us");
  out.add("rta.iterations_per_set",
          ratio(static_cast<double>(d.counter(Counter::kAdmissionRtaIterations)), units),
          "count");
  out.add("rta.seeded_per_set",
          ratio(static_cast<double>(d.counter(Counter::kAdmissionSeededRta)), units),
          "count");
  out.add("admission.miss_per_set",
          ratio(static_cast<double>(d.counter(Counter::kAdmissionCacheMiss)), units),
          "count");
}

void add_replay(Outcome& out, const LayerReplay& r) {
  out.add("protocol.frame_ns", r.frame_ns, "ns");
  out.add("json.parse_ns", r.parse_ns, "ns");
  out.add("json.parse_ns_per_byte", r.parse_ns_per_byte, "ns/B");
  out.add("tasks.build_ns", r.build_ns, "ns");
  out.add("bounds.eval_ns", r.eval_ns, "ns");
  out.add("router.handle_ns", r.handle_ns, "ns");
  out.add("router.residual_ns", r.residual_ns, "ns");
}

// ------------------------------------------------------------ admit_wire

struct AdmitInputs {
  std::vector<std::string> lines;
  std::vector<bool> accepted;  ///< in-process Rmts(hc) verdict per line
  double accept_share{0.0};
  double split_share{0.0};
};

AdmitInputs admit_inputs(std::uint64_t seed) {
  const std::vector<rmts::TaskSet> pool =
      task_set_pool(seed, kAdmitPool, kAdmitTasks, kAdmitProcessors,
                    kAdmitUtilization, kAdmitUtilization);
  const rmts::Rmts rmts(std::make_shared<rmts::HarmonicChainBound>());
  AdmitInputs in;
  std::size_t accepted = 0;
  std::size_t split = 0;
  for (const rmts::TaskSet& tasks : pool) {
    // Empty alg/bound: the server defaults, rmts / hc.
    in.lines.push_back(rmts::server::make_admit_request(kAdmitProcessors, tasks));
    const rmts::Assignment a = rmts.partition(tasks, kAdmitProcessors);
    in.accepted.push_back(a.success);
    if (a.success) {
      ++accepted;
      split += a.split_task_count();
    }
  }
  in.accept_share = static_cast<double>(accepted) / static_cast<double>(pool.size());
  in.split_share = ratio(static_cast<double>(split),
                         static_cast<double>(accepted * kAdmitTasks));
  return in;
}

/// Checks one admit reply against the in-process verdict; false on an
/// ok:false reply.
bool check_admit_reply(const std::string& reply, bool expected, Outcome& out) {
  if (!reply_ok(reply)) return false;
  if (field(reply, "accepted") != (expected ? "true" : "false")) {
    out.mismatch("admit verdict differs from in-process Rmts(hc): " + reply);
  }
  return true;
}

std::vector<Conn> connect_all(const LiveServer& server, std::size_t count) {
  std::vector<Conn> conns;
  for (std::size_t c = 0; c < count; ++c) conns.emplace_back(server.port());
  return conns;
}

double ok_share(const Outcome& out) {
  return 1.0 - ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted));
}

}  // namespace

Outcome run_admit_wire(const Options& opt) {
  Outcome out;
  out.param("tasks", std::to_string(kAdmitTasks));
  out.param("processors", std::to_string(kAdmitProcessors));
  out.param("normalized_utilization", "0.6");
  out.param("pool", std::to_string(kAdmitPool));
  out.param("alg", "rmts/hc (server default)");
  out.param("workers", std::to_string(kWorkers));
  out.param("connections", std::to_string(kConnections));
  out.param("open_loop_rate_per_s", "2500");
  const OneCpu one_cpu;
  out.pinned_cpu = one_cpu.cpu();

  // Inputs and their reference verdicts: generated before set-up starts.
  const AdmitInputs in = admit_inputs(opt.seed);

  // Set-up, repeated: server start to the first ok reply.  The last
  // server stays up for the measurement.
  std::unique_ptr<LiveServer> server;
  std::vector<Conn> conns;
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    conns.clear();
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<LiveServer>();
    conns.emplace_back(server->port());
    const std::string reply = conns.back().request(in.lines[0]);
    const auto t1 = Clock::now();
    ++out.attempted;
    if (!check_admit_reply(reply, in.accepted[0], out)) ++out.failed;
    setups.push_back(seconds_between(t0, t1));
  }
  for (std::size_t c = 1; c < kConnections; ++c) conns.emplace_back(server->port());

  const double s = opt.seconds;
  const bool trace = opt.trace;

  // Phase 1: closed loop, one admit in flight per connection, each
  // connection walking the pool from its own offset.
  const auto closed = [&](double seconds, double window_s, bool slices) {
    const Phase phase(Clock::now(), seconds, window_s);
    WindowTally tally(phase.windows());
    std::vector<std::size_t> line(conns.size());
    for (std::size_t c = 0; c < conns.size(); ++c) line[c] = c * in.lines.size() / conns.size();
    std::uint64_t sent = 0;
    const std::uint64_t lost = closed_loop(
        conns, phase.end(), slices ? &phase : nullptr,
        [&](std::size_t c) {
          ++sent;
          return in.lines[line[c]];
        },
        [&](std::size_t c, const std::string& reply, Clock::time_point t0,
            Clock::time_point t1) {
          if (!check_admit_reply(reply, in.accepted[line[c]], out)) {
            ++out.failed;
          } else {
            const std::size_t w = phase.window_of(t0);
            ++tally.ok[w];
            tally.latency_ns[w].record(ns_between(t0, t1));
          }
          line[c] = (line[c] + 1) % in.lines.size();
        });
    out.attempted += sent;
    out.failed += lost;
    return summarize(tally, phase);
  };

  // Phase 2: open loop.  Latency from each request's due time.
  struct OpenResult {
    OpenLoopStats stats;
    WindowTally tally{1};
    std::uint64_t ok{0};
    std::uint64_t from_due_ns{0};
    std::uint64_t from_send_ns{0};
  };
  const auto open = [&](double seconds) {
    OpenResult r;
    const Phase phase(Clock::now() + std::chrono::milliseconds(5), seconds, kOpenWindowS);
    r.tally = WindowTally(phase.windows());
    rmts::Rng pick = rmts::Rng(opt.seed).fork(0xA222);
    r.stats = open_loop(
        conns, phase, kOpenLoopRate, rmts::Rng(opt.seed).fork(0xA221),
        [&] {
          return static_cast<std::uint32_t>(
              pick.uniform_int(0, static_cast<std::int64_t>(in.lines.size()) - 1));
        },
        in.lines,
        [&](const std::string& reply, std::uint32_t line, Clock::time_point due,
            Clock::time_point sent, Clock::time_point received) {
          if (!check_admit_reply(reply, in.accepted[line], out)) {
            ++out.failed;
            return;
          }
          const std::uint64_t from_due = ns_between(due, received);
          const std::size_t w = phase.window_of(due);
          ++r.tally.ok[w];
          r.tally.latency_ns[w].record(from_due);
          ++r.ok;
          r.from_due_ns += from_due;
          r.from_send_ns += ns_between(sent, received);
        });
    out.attempted += r.stats.sent;
    out.failed += r.stats.lost;
    return std::make_pair(std::move(r), phase);
  };

  // Warm-up: fills allocator and socket buffers before anything is timed.
  (void)closed(std::min(1.0, 0.05 * s), kWindowS, false);

  // The end-to-end latencies are those of the closed-loop callers.  The
  // open loop's p99, timed from due times, read 0.2-0.7 ms between runs
  // of the same code on a shared 4-vCPU host (a 42% quartile spread), and
  // its median 9-18%: a host stall delays every request due during it,
  // while in the closed loop it delays only the four in flight.  So the
  // open loop runs in the traced run, where its percentiles are per-layer
  // metrics.
  if (!trace) {
    const PhaseSummary p1 = closed(0.9 * s, kWindowS, false);
    conns.clear();
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("ok_share", ok_share(out), "ratio");
    out.add("ops_per_s", p1.rate_per_s, "1/s");
    out.add("p50_us", p1.p50_us, "us");
    out.add("p90_us", p1.p90_us, "us");
    out.add("quality_ratio", in.accept_share, "ratio");
    return out;
  }

  // Traced run.  Phase 1 alternates untraced/traced slices (the tracing
  // overhead); phase 2, the open loop, runs traced throughout and
  // supplies the server stages.
  const PhaseSummary p1 = closed(0.45 * s, 0.45 * s / kTraceSlices, true);
  const rmts::trace::Snapshot before = rmts::trace::snapshot();
  const rmts::server::RuntimeStats rt_before = server->runtime();
  rmts::trace::set_enabled(true);
  auto [p2, phase2] = open(0.35 * s);
  rmts::trace::set_enabled(false);
  const TraceDelta d(before, rmts::trace::snapshot());
  const rmts::server::RuntimeStats rt_after = server->runtime();
  conns.clear();

  const auto requests = static_cast<double>(p2.ok);
  const double e2e_due_us = ratio(static_cast<double>(p2.from_due_ns), requests) / 1e3;
  const double e2e_send_us = ratio(static_cast<double>(p2.from_send_ns), requests) / 1e3;
  const PhaseSummary open_lat = summarize(p2.tally, phase2);
  out.add("loadgen.late_p99_us", p2.stats.late_ns.quantile(0.99) / 1e3, "us");
  out.add("loadgen.open_p50_us", open_lat.p50_us, "us");
  out.add("loadgen.open_p99_us", open_lat.p99_us, "us");
  out.add("loadgen.sent", static_cast<double>(p2.stats.sent), "count");
  add_server_layers(out, d,
                    ratio(requests, static_cast<double>(rt_after.batches_dispatched -
                                                        rt_before.batches_dispatched)),
                    requests, e2e_send_us);
  const LayerReplay replay = replay_admit_lines(in.lines, kAdmitProcessors, 0.15 * s);
  add_replay(out, replay);
  out.add("partition.rmts_ns", replay.rmts_ns, "ns");
  add_admission_counters(out, d, static_cast<double>(d.counter(Counter::kPartitionRuns)));
  out.add("partition.split_share", in.split_share, "ratio");
  for (const char* name : {"online.admit_ns_p50", "online.admit_ns_p99",
                           "online.depart_ns_p99", "online.rebalance_ns"}) {
    out.add(name, 0.0, "ns");
  }
  out.add("online.migrations_per_kop", 0.0, "count");
  out.add("online.reject_share", 0.0, "ratio");
  out.add("online.norm_util", 0.0, "ratio");
  const double layers = (e2e_due_us - e2e_send_us) + server_layers_us(d, requests);
  out.add("reconcile.residual_share", 1.0 - ratio(layers, e2e_due_us), "ratio");
  out.add("trace.overhead_share", 1.0 - ratio(p1.traced_rate, p1.untraced_rate), "ratio");
  return out;
}

// ---------------------------------------------------------- session_wire

namespace {

/// One connection's session and the benchmark's own ledger of it.  The op
/// sequence depends only on the seed and the replies, and the replies only
/// on this session's history, so each connection replays the same
/// sequence on every run with the same seed.
struct SessionConn {
  explicit SessionConn(rmts::Rng r) : rng(r) {}

  rmts::Rng rng;
  std::uint64_t session{0};
  struct Live {
    std::uint64_t ticket;
    double utilization;
  };
  std::vector<Live> live;
  double utilization{0.0};
  // The op in flight: a depart of live[victim], else an admit of `draw`.
  bool departing{false};
  std::size_t victim{0};
  TaskDraw draw{0, 0};
  std::size_t fill_rejects{0};
  std::uint64_t churn_ops{0};
  std::vector<double> util_samples;
  std::uint64_t admits{0};
  std::uint64_t rejects{0};
  std::uint64_t split_admits{0};

  /// The next line: an admit while filling, then admits and departs at
  /// the churn mix.  Empty once a fill is complete (`filling`).
  std::string next(bool filling) {
    if (filling && fill_rejects >= kFillRejects) return {};
    departing = !filling && !live.empty() && rng.uniform() < kWireDepartFraction;
    if (departing) {
      victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      return rmts::server::make_session_depart_request(session, live[victim].ticket);
    }
    draw = draw_session_task(rng);
    return rmts::server::make_session_admit_request(session, draw.wcet, draw.period);
  }

  /// Applies the reply to the ledger; false on an ok:false reply.
  bool apply(const std::string& reply, Outcome& out) {
    if (!reply_ok(reply)) return false;
    if (departing) {
      if (field(reply, "departed") != "true") {
        out.mismatch("ledger ticket not departed: " + reply);
      }
      utilization -= live[victim].utilization;
      live[victim] = live.back();
      live.pop_back();
      return true;
    }
    if (field(reply, "accepted") != "true") {
      ++rejects;
      ++fill_rejects;
      return true;
    }
    std::uint64_t ticket = 0;
    std::uint64_t parts = 0;
    if (!field_number(reply, "ticket", ticket) || !field_number(reply, "parts", parts)) {
      out.mismatch("session_admit reply without ticket/parts: " + reply);
      return true;
    }
    ++admits;
    fill_rejects = 0;
    if (parts > 1) ++split_admits;
    const double u = static_cast<double>(draw.wcet) / static_cast<double>(draw.period);
    live.push_back({ticket, u});
    utilization += u;
    return true;
  }
};

}  // namespace

Outcome run_session_wire(const Options& opt) {
  Outcome out;
  out.param("processors_per_session", std::to_string(kSessionProcessors));
  out.param("connections", std::to_string(kConnections));
  out.param("depart_fraction", "0.45");
  out.param("task_draw", "period U[1e3,1e6], utilization U[0.03,0.25]");
  out.param("workers", std::to_string(kWorkers));
  const OneCpu one_cpu;
  out.pinned_cpu = one_cpu.cpu();

  // Set-up, repeated: server start, each connection's session_open (its
  // first ok reply) and its fill to capacity.  The last server stays up.
  std::unique_ptr<LiveServer> server;
  std::vector<Conn> conns;
  std::vector<SessionConn> sessions;
  std::vector<double> setups;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    conns.clear();
    server.reset();
    sessions.clear();
    const auto t0 = Clock::now();
    server = std::make_unique<LiveServer>();
    conns = connect_all(*server, kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      sessions.emplace_back(rmts::Rng(opt.seed).fork(c));
      const std::string reply =
          conns[c].request(rmts::server::make_session_open_request(kSessionProcessors));
      ++out.attempted;
      if (!reply_ok(reply) || !field_number(reply, "session", sessions[c].session)) {
        ++out.failed;
      }
    }
    std::uint64_t sent = 0;
    out.failed += closed_loop(
        conns, Clock::now() + std::chrono::minutes(1), nullptr,
        [&](std::size_t c) {
          std::string line = sessions[c].next(true);
          if (!line.empty()) ++sent;
          return line;
        },
        [&](std::size_t c, const std::string& reply, Clock::time_point, Clock::time_point) {
          if (!sessions[c].apply(reply, out)) ++out.failed;
        });
    out.attempted += sent;
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  const double s = opt.seconds;
  const bool trace = opt.trace;
  const rmts::trace::Snapshot before = rmts::trace::snapshot();
  const rmts::server::RuntimeStats rt_before = server->runtime();
  const Phase phase(Clock::now(), (trace ? 0.8 : 0.95) * s,
                    trace ? 0.8 * s / kTraceSlices : kWindowS);
  WindowTally tally(phase.windows());
  std::uint64_t sent = 0, traced_ok = 0, traced_ns = 0;
  out.failed += closed_loop(
      conns, phase.end(), trace ? &phase : nullptr,
      [&](std::size_t c) {
        ++sent;
        return sessions[c].next(false);
      },
      [&](std::size_t c, const std::string& reply, Clock::time_point t0,
          Clock::time_point t1) {
        SessionConn& conn = sessions[c];
        if (!conn.apply(reply, out)) {
          ++out.failed;
          return;
        }
        const std::size_t w = phase.window_of(t0);
        const std::uint64_t ns = ns_between(t0, t1);
        ++tally.ok[w];
        // The end-to-end percentiles are those of session admits.
        if (!conn.departing) tally.latency_ns[w].record(ns);
        if (Phase::traced_window(w)) {
          ++traced_ok;
          traced_ns += ns;
        }
        ++conn.churn_ops;
        if (conn.churn_ops <= kUtilOps && conn.churn_ops % kUtilEvery == 0) {
          conn.util_samples.push_back(conn.utilization /
                                      static_cast<double>(kSessionProcessors));
        }
      });
  out.attempted += sent;
  const TraceDelta d(before, rmts::trace::snapshot());
  const rmts::server::RuntimeStats rt_after = server->runtime();

  // The ledger must match what the server holds.
  std::uint64_t admits = 0, rejects = 0, splits = 0, migrations = 0, session_ops = 0;
  double util_sum = 0.0;
  for (std::size_t c = 0; c < sessions.size(); ++c) {
    const SessionConn& conn = sessions[c];
    admits += conn.admits;
    rejects += conn.rejects;
    splits += conn.split_admits;
    double mean = 0.0;
    for (double u : conn.util_samples) mean += u;
    util_sum += ratio(mean, static_cast<double>(conn.util_samples.size()));
    const std::string reply =
        conns[c].request(rmts::server::make_session_stats_request(conn.session));
    ++out.attempted;
    std::size_t resident = 0;
    std::uint64_t a = 0, r = 0, dp = 0, m = 0;
    double util = 0.0;
    const std::string_view util_text = field(reply, "utilization");
    if (!reply_ok(reply) || !field_number(reply, "resident_tasks", resident) ||
        !field_number(reply, "admits", a) || !field_number(reply, "rejects", r) ||
        !field_number(reply, "departs", dp) || !field_number(reply, "migrations", m) ||
        std::from_chars(util_text.data(), util_text.data() + util_text.size(), util).ec !=
            std::errc{}) {
      ++out.failed;
      continue;
    }
    if (resident != conn.live.size() ||
        std::abs(util - conn.utilization) > 1e-6 * std::max(1.0, util)) {
      out.mismatch("session " + std::to_string(conn.session) + ": ledger holds " +
                   std::to_string(conn.live.size()) + " tasks (U=" +
                   std::to_string(conn.utilization) + "), server reports " + reply);
    }
    migrations += m;
    session_ops += a + r + dp;
  }
  conns.clear();
  const PhaseSummary sum = summarize(tally, phase);
  const double norm_util = util_sum / static_cast<double>(sessions.size());

  if (!trace) {
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("ok_share", ok_share(out), "ratio");
    out.add("ops_per_s", sum.rate_per_s, "1/s");
    out.add("p50_us", sum.p50_us, "us");
    out.add("p90_us", sum.p90_us, "us");
    out.add("quality_ratio", norm_util, "ratio");
    return out;
  }

  const auto requests = static_cast<double>(traced_ok);
  const double e2e_us = ratio(static_cast<double>(traced_ns), requests) / 1e3;
  for (const char* name : {"loadgen.late_p99_us", "loadgen.open_p50_us", "loadgen.open_p99_us"}) {
    out.add(name, 0.0, "us");
  }
  out.add("loadgen.sent", static_cast<double>(sent), "count");
  // Batches are counted in untraced slices too, so the batch size is
  // taken over every op of the phase.
  add_server_layers(out, d,
                    ratio(static_cast<double>(sent),
                          static_cast<double>(rt_after.batches_dispatched -
                                              rt_before.batches_dispatched)),
                    requests, e2e_us);
  SessionTimings online;
  const LayerReplay replay = replay_session_ops(opt.seed, 0.15 * s, online, out);
  add_replay(out, replay);
  out.add("partition.rmts_ns", 0.0, "ns");
  add_admission_counters(out, d, requests);
  out.add("partition.split_share",
          ratio(static_cast<double>(splits), static_cast<double>(admits)), "ratio");
  out.add("online.admit_ns_p50", online.admit_ns_p50, "ns");
  out.add("online.admit_ns_p99", online.admit_ns_p99, "ns");
  out.add("online.depart_ns_p99", online.depart_ns_p99, "ns");
  out.add("online.rebalance_ns", online.rebalance_ns, "ns");
  out.add("online.migrations_per_kop",
          1000.0 * ratio(static_cast<double>(migrations), static_cast<double>(session_ops)),
          "count");
  out.add("online.reject_share",
          ratio(static_cast<double>(rejects), static_cast<double>(admits + rejects)), "ratio");
  out.add("online.norm_util", norm_util, "ratio");
  out.add("reconcile.residual_share", 1.0 - ratio(server_layers_us(d, requests), e2e_us),
          "ratio");
  out.add("trace.overhead_share", 1.0 - ratio(sum.traced_rate, sum.untraced_rate), "ratio");
  return out;
}

}  // namespace perfbench
