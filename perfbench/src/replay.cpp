// In-process replay of wire request lines through the public functions of
// each layer the server runs them through, for the traced runs'
// per-layer metrics.  Tracing is off while these run, so the layers cost
// what they cost in the untraced end-to-end runs.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bounds/harmonic.hpp"
#include "online/session.hpp"
#include "partition/rmts.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/router.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rmts::server::JsonValue;

/// Keeps results observable so the timed calls cannot be elided.
volatile std::size_t g_sink = 0;

double mean_line_bytes(const std::vector<std::string>& lines) {
  std::size_t bytes = 0;
  for (const std::string& line : lines) bytes += line.size();
  return ratio(static_cast<double>(bytes), static_cast<double>(lines.size()));
}

/// Mean ns per line of framing every line of `lines` with one decoder.
double frame_ns(const std::vector<std::string>& lines) {
  std::vector<std::string> framed;
  framed.reserve(lines.size());
  for (const std::string& line : lines) framed.push_back(line + '\n');
  rmts::server::LineDecoder decoder;
  rmts::server::LineDecoder::Line out;
  const auto t0 = Clock::now();
  for (const std::string& bytes : framed) {
    decoder.feed(bytes);
    while (decoder.next(out)) g_sink = g_sink + out.text.size();
  }
  return static_cast<double>(ns_between(t0, Clock::now())) /
         static_cast<double>(lines.size());
}

std::uint64_t uint_field(const JsonValue& reply, const char* key) {
  const JsonValue* v = reply.find(key);
  return v != nullptr && v->is_int() ? static_cast<std::uint64_t>(v->as_int()) : 0;
}

bool bool_field(const JsonValue& reply, const char* key) {
  const JsonValue* v = reply.find(key);
  return v != nullptr && v->is_bool() && v->as_bool();
}

}  // namespace

LayerReplay replay_admit_lines(const std::vector<std::string>& lines,
                               std::size_t processors, double seconds) {
  // Each layer's input, prepared outside the timed loops.
  std::vector<std::vector<std::pair<rmts::Time, rmts::Time>>> pairs;
  std::vector<rmts::TaskSet> sets;
  for (const std::string& line : lines) {
    JsonValue request;
    std::string error;
    if (!rmts::server::json_parse(line, request, error)) std::abort();
    auto& task_pairs = pairs.emplace_back();
    for (const JsonValue& task : request.find("tasks")->items()) {
      task_pairs.emplace_back(task.items()[0].as_int(), task.items()[1].as_int());
    }
    sets.push_back(rmts::TaskSet::from_pairs(task_pairs));
  }
  const rmts::HarmonicChainBound hc;
  const rmts::Rmts rmts(std::make_shared<rmts::HarmonicChainBound>());
  const rmts::server::Metrics metrics;
  const rmts::server::Router router(rmts::server::RouterConfig{}, metrics);

  const auto n = static_cast<double>(lines.size());
  std::vector<double> frame, parse, build, eval, part, handle;
  const auto timed = [&](std::vector<double>& into, auto&& body) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < lines.size(); ++i) body(i);
    into.push_back(static_cast<double>(ns_between(t0, Clock::now())) / n);
  };
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  // Whole passes over the pool, so every layer sees the same inputs.
  for (std::size_t pass = 0; pass < 3 || Clock::now() < deadline; ++pass) {
    frame.push_back(frame_ns(lines));
    JsonValue value;
    std::string error;
    timed(parse, [&](std::size_t i) {
      g_sink = g_sink + rmts::server::json_parse(lines[i], value, error);
    });
    timed(build, [&](std::size_t i) {
      g_sink = g_sink + rmts::TaskSet::from_pairs(pairs[i]).size();
    });
    timed(eval, [&](std::size_t i) {
      g_sink = g_sink + static_cast<std::size_t>(hc.evaluate(sets[i]) * 1e6);
    });
    timed(part, [&](std::size_t i) {
      g_sink = g_sink + rmts.partition(sets[i], processors).success;
    });
    timed(handle, [&](std::size_t i) {
      g_sink = g_sink + router.handle(lines[i]).reply.size();
    });
  }
  LayerReplay out;
  out.frame_ns = median(frame);
  out.parse_ns = median(parse);
  out.parse_ns_per_byte = ratio(out.parse_ns, mean_line_bytes(lines));
  out.build_ns = median(build);
  out.eval_ns = median(eval);
  out.rmts_ns = median(part);
  out.handle_ns = median(handle);
  out.residual_ns =
      out.handle_ns - out.parse_ns - out.build_ns - out.eval_ns - out.rmts_ns;
  return out;
}

LayerReplay replay_session_ops(std::uint64_t seed, double seconds,
                               SessionTimings& online, Outcome& outcome) {
  const rmts::server::Metrics metrics;
  const rmts::server::Router router(rmts::server::RouterConfig{}, metrics);
  JsonValue reply;
  std::string error;
  // Parses a router reply into `reply`; false (and a mismatch) unless ok.
  const auto accept = [&](const std::string& routed, const std::string& line) {
    if (!rmts::server::json_parse(routed, reply, error) || !bool_field(reply, "ok")) {
      outcome.mismatch("session replay: router refused " + line);
      return false;
    }
    return true;
  };
  const std::string open = rmts::server::make_session_open_request(kSessionProcessors);
  if (!accept(router.handle(open).reply, open)) return {};
  const std::uint64_t sid = uint_field(reply, "session");

  rmts::online::SessionConfig config;
  config.processors = kSessionProcessors;
  config.rebalance_every = 0;  // the replay calls rebalance() itself
  rmts::online::PartitionSession session(config);
  rmts::Rng rng = rmts::Rng(seed).fork(0x5E55);
  std::vector<rmts::online::Ticket> live;

  std::vector<std::string> lines;
  rmts::Histogram admit_ns, depart_ns;
  std::uint64_t parse_total = 0, handle_total = 0, online_total = 0;
  std::uint64_t rebalance_total = 0, rebalances = 0, departs = 0;
  bool churning = false;
  std::size_t rejected = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (!churning || Clock::now() < deadline) {
    const bool depart = churning && !live.empty() && rng.uniform() < kWireDepartFraction;
    std::string line;
    std::uint64_t op_ns = 0;
    bool verdict = false;
    std::uint64_t ticket = 0;
    std::size_t victim = 0;
    if (depart) {
      victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ticket = live[victim];
      line = rmts::server::make_session_depart_request(sid, ticket);
      const auto t0 = Clock::now();
      verdict = session.depart(ticket);
      op_ns = ns_between(t0, Clock::now());
    } else {
      const TaskDraw d = draw_session_task(rng);
      line = rmts::server::make_session_admit_request(sid, d.wcet, d.period);
      const auto t0 = Clock::now();
      const rmts::online::AdmitResult r = session.admit(d.wcet, d.period);
      op_ns = ns_between(t0, Clock::now());
      verdict = r.admitted;
      ticket = r.ticket;
    }
    const auto t1 = Clock::now();
    g_sink = g_sink + rmts::server::json_parse(line, reply, error);
    const auto t2 = Clock::now();
    const std::string routed = router.handle(line).reply;
    const auto t3 = Clock::now();
    if (!accept(routed, line)) return {};
    // The router's session saw the same inputs, so it must agree.
    const bool router_verdict = bool_field(reply, depart ? "departed" : "accepted");
    if (router_verdict != verdict ||
        (!depart && verdict && uint_field(reply, "ticket") != ticket)) {
      outcome.mismatch("router session diverged from PartitionSession on " + line);
      return {};
    }
    if (depart) {
      live[victim] = live.back();
      live.pop_back();
    } else if (verdict) {
      live.push_back(ticket);
    }
    if (!churning) {
      rejected = verdict ? 0 : rejected + 1;
      churning = rejected >= kFillRejects;
      continue;
    }
    std::uint64_t rebalance_ns = 0;
    if (depart && ++departs % kRebalanceEvery == 0) {
      const auto t4 = Clock::now();
      session.rebalance();
      rebalance_ns = ns_between(t4, Clock::now());
      rebalance_total += rebalance_ns;
      ++rebalances;
    }
    (depart ? depart_ns : admit_ns).record(op_ns);
    lines.push_back(std::move(line));
    parse_total += ns_between(t1, t2);
    handle_total += ns_between(t2, t3);
    online_total += op_ns + rebalance_ns;
  }

  const auto ops = static_cast<double>(lines.size());
  LayerReplay out;
  out.frame_ns = frame_ns(lines);
  out.parse_ns = static_cast<double>(parse_total) / ops;
  out.parse_ns_per_byte = ratio(out.parse_ns, mean_line_bytes(lines));
  out.online_ns = static_cast<double>(online_total) / ops;
  out.handle_ns = static_cast<double>(handle_total) / ops;
  out.residual_ns = out.handle_ns - out.parse_ns - out.online_ns;
  online.admit_ns_p50 = admit_ns.quantile(0.50);
  online.admit_ns_p99 = admit_ns.quantile(0.99);
  online.depart_ns_p99 = depart_ns.quantile(0.99);
  online.rebalance_ns =
      ratio(static_cast<double>(rebalance_total), static_cast<double>(rebalances));
  return out;
}

}  // namespace perfbench
