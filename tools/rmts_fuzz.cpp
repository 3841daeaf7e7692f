// Time-bounded randomized cross-validation harness ("the fuzzer"):
// generates random workloads, runs every partitioning algorithm, and
// checks each accepted assignment against the discrete-event simulator
// plus the structural invariants -- including the fault-injection layer:
//
//  * every simulated run is cross-checked bit-for-bit (counters, misses,
//    trace) against the naive reference core (sim/simulator_reference.hpp);
//  * identity faults (factor 1.0, no jitter) must reproduce the nominal
//    run counter-for-counter;
//  * random overruns under budget enforcement must never cause a miss
//    (only degradations/aborts);
//  * under priority demotion every missing task must itself have
//    overrun (misses are attributable);
//  * processor failure must be contained to orphan accounting, not
//    crashes;
//  * periodically, the analytic robustness margins must not exceed the
//    simulated ones (analysis/robustness.hpp soundness).
//
//   rmts_fuzz [seconds=10] [seed=1]
//   rmts_fuzz proto [seconds=10] [seed=1]
//   rmts_fuzz json [seconds=10] [seed=1]
//   rmts_fuzz kernel [seconds=10] [seed=1]
//   rmts_fuzz churn [seconds=10] [seed=1]
//   rmts_fuzz maxsplit [seconds=10] [seed=1]
//
// The `proto` mode fuzzes the admission-control service's codec instead:
// random, truncated, mutated and oversized byte streams are fed through
// the in-process LineDecoder + Router pipeline (no sockets), asserting
// that nothing crashes, decoder memory stays under its cap, and every
// reply -- including those for garbage -- is a well-formed one-line JSON
// object carrying "ok" and, on failure, a non-empty "error".  Every
// request line and reply also goes through the JSON differential below.
//
// The `json` mode is the codec's differential fuzz on its own: random
// documents (deep nesting, int64-edge and out-of-range numbers, escapes
// and surrogates, duplicate keys), their byte mutations and truncations,
// raw bytes and protocol lines are parsed by the server's tape parser and
// by the DOM parser it replaced (tests/json_oracle.hpp), which must agree
// on accept/reject, the error message and every value.
//
// The `churn` mode drives random admit/depart/rebalance interleavings
// through an online PartitionSession (src/online) and checks, after every
// operation, that no resident task is ever un-admitted (the harness's own
// ticket ledger must match session.residents() exactly) and that the
// utilization accounting balances; periodically -- and at the end of every
// interleaving -- it re-derives full structural + exact-RTA invariants
// from scratch (the differential against the incremental cached path) and
// batch re-partitions the live resident set with RmtsLight to sanity-check
// the online packing against the paper's from-scratch partitioner.
//
// The `kernel` mode differentially fuzzes the SoA RTA kernel
// (rta/rta_kernel.hpp) against the checked scalar path: random hosted
// sets -- including overflow-scale parameters that straddle the 2^31
// fast-path boundary -- must produce bit-identical analysis outcomes,
// admission verdicts and response times through kernel_analyze,
// ProcessorState::fits/fits_batch/try_add and kernel_jitter_response, with
// the SoA mirror staying consistent under any incremental insertion order;
// the responses a fitting kernel_fits commits must equal
// kernel_response_time on the post-insert set.
//
// The `maxsplit` mode differentially fuzzes the scheduling-point MaxSplit
// against the binary-search oracle: random processors built through
// fits()/add() or through try_add()/remove() churn (log-uniform periods
// in [1e3, 1e6], synthetic tail deadlines) and prototypes at the top
// priority -- the RM-TS shape -- or below hosted priorities, which
// exercises the self-budget path.  A share of the cases is
// overflow-scale: periods and wcets near 2^62, deadlines near
// kTimeInfinity and candidate periods whose arrivals saturate there.
// Both methods must agree, and the result must leave a bottleneck: it
// fits, and one more tick does not.
//
// On violation the exact seed/attempt and fault configuration are printed
// and the offending task set is written to
// rmts_fuzz_violation_<seed>_<attempt>.txt, so any failure replays with
// `rmts_fuzz <any> <seed>` or from the dumped file.  Exit code 0 iff no
// violation found.  This is the long-running counterpart of the bounded
// soundness tests in tests/ -- run it for an hour before a release.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/robustness.hpp"
#include "bounds/best_of.hpp"
#include "bounds/bound.hpp"
#include "common/checked_math.hpp"
#include "common/rng.hpp"
#include "io/taskset_io.hpp"
#include "json_oracle.hpp"
#include "online/session.hpp"
#include "partition/baselines.hpp"
#include "partition/edf_split.hpp"
#include "partition/max_split.hpp"
#include "partition/processor_state.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "partition/spa.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/router.hpp"
#include "rta/rta.hpp"
#include "rta/rta_kernel.hpp"
#include "sim/simulator.hpp"
#include "sim/simulator_reference.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rmts;

struct Entry {
  std::shared_ptr<const Partitioner> algorithm;
  DispatchPolicy policy;
  /// Whether accepted => schedulable is claimed unconditionally (exact
  /// admission) or only within the algorithm's theorem premises (SPA).
  bool unconditional;
};

struct Reporter {
  std::uint64_t seed;
  std::uint64_t attempt = 0;
  std::uint64_t violations = 0;

  /// Prints the reproduction context and dumps the task set to a file.
  void violation(const std::string& what, const TaskSet& tasks,
                 const Assignment& assignment, const FaultModel& faults) {
    ++violations;
    std::cerr << "VIOLATION: " << what << "\n  repro: seed " << seed
              << ", attempt " << attempt << "\n  faults: factor "
              << faults.overrun_factor << ", ticks " << faults.overrun_ticks
              << ", prob " << faults.overrun_probability << ", jitter "
              << faults.release_jitter << ", fault-seed " << faults.seed
              << ", containment " << static_cast<int>(faults.containment)
              << ", failed-proc ";
    if (faults.failed_processor == kNoProcessor) {
      std::cerr << "none";
    } else {
      std::cerr << faults.failed_processor << "@" << faults.failure_time;
    }
    std::cerr << '\n' << tasks.describe() << assignment.describe();
    const std::string path = "rmts_fuzz_violation_" + std::to_string(seed) +
                             "_" + std::to_string(attempt) + ".txt";
    std::ofstream dump(path);
    if (dump) {
      write_task_set(dump, tasks);
      std::cerr << "  task set written to " << path << '\n';
    }
  }
};

bool counters_equal(const SimResult& a, const SimResult& b) {
  return a.schedulable == b.schedulable && a.misses.size() == b.misses.size() &&
         a.simulated_until == b.simulated_until && a.events == b.events &&
         a.jobs_released == b.jobs_released &&
         a.jobs_completed == b.jobs_completed &&
         a.preemptions == b.preemptions && a.migrations == b.migrations &&
         a.busy_time == b.busy_time && a.max_response == b.max_response &&
         a.jobs_degraded == b.jobs_degraded &&
         a.degraded_per_task == b.degraded_per_task &&
         a.jobs_aborted == b.jobs_aborted && a.jobs_demoted == b.jobs_demoted &&
         a.subtasks_orphaned == b.subtasks_orphaned;
}

// ------------------------------------------------- JSON differential ----

/// Appends a random JSON number token: small ints, int64 edges and
/// beyond, fractions, exponents (some out of double range), -0.
void random_json_number(Rng& rng, std::string& out) {
  static const char* const kEdges[] = {
      "0", "-0", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809",
      "9999999999999999999", "-9999999999999999999", "18446744073709551615",
      "18446744073709551616", "1e308", "1.7976931348623157e308", "1e309",
      "-1e400", "4.9e-324", "2e-324", "1e-400", "0.1", "2.2250738585072014e-308",
      "123456789012345678901234567890", "0.30000000000000004"};
  switch (rng.uniform_int(0, 4)) {
    case 0:
      out += kEdges[rng.uniform_int(0, std::size(kEdges) - 1)];
      return;
    case 1: out += std::to_string(rng.uniform_int(-1000, 1000)); return;
    case 2:
      out += std::to_string(static_cast<std::int64_t>(rng.next()));
      return;
    default: {
      if (rng.uniform() < 0.3) out.push_back('-');
      out += std::to_string(rng.uniform_int(0, 99999));
      if (rng.uniform() < 0.6) {
        out.push_back('.');
        out += std::to_string(rng.uniform_int(0, 999999));
      }
      if (rng.uniform() < 0.5) {
        out.push_back(rng.uniform() < 0.5 ? 'e' : 'E');
        if (rng.uniform() < 0.5) out.push_back(rng.uniform() < 0.5 ? '-' : '+');
        out += std::to_string(rng.uniform_int(0, 400));
      }
    }
  }
}

/// Appends a random JSON string literal: plain ASCII, UTF-8, every
/// short escape, \u escapes including valid and broken surrogates.
void random_json_string(Rng& rng, std::string& out) {
  static const char* const kPieces[] = {
      "a", "op", "tasks", " ", "\xc3\xa9", "\xf0\x9f\x98\x80", "\\\"",
      "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041",
      "\\u00e9", "\\u20AC", "\\u0000", "\\ud83d\\ude00", "\\uD800",
      "\\udc00", "\\ud83dx", "\\ud83d\\u0041"};
  out.push_back('"');
  const auto pieces = rng.uniform_int(0, 6);
  for (std::int64_t i = 0; i < pieces; ++i) {
    out += kPieces[rng.uniform_int(0, std::size(kPieces) - 1)];
  }
  out.push_back('"');
}

void random_json_space(Rng& rng, std::string& out) {
  if (rng.uniform() < 0.8) return;
  static constexpr char kSpace[] = {' ', '\t', '\n', '\r'};
  out.push_back(kSpace[rng.uniform_int(0, 3)]);
}

/// Appends a random JSON value; containers shrink with depth, except
/// that now and then a deep chain straddles the parsers' nesting cap.
void random_json_value(Rng& rng, std::string& out, int depth) {
  if (depth == 0 && rng.uniform() < 0.05) {
    const auto levels = rng.uniform_int(60, 70);
    for (std::int64_t i = 0; i < levels; ++i) out += rng.uniform() < 0.5 ? "[" : "{\"k\":";
    random_json_value(rng, out, 99);
    for (std::size_t i = out.size(); i-- > 0;) {
      if (out[i] == '[') out.push_back(']');
      if (out[i] == '{') out.push_back('}');
    }
    return;
  }
  const int roll = static_cast<int>(rng.uniform_int(0, depth >= 4 ? 5 : 7));
  random_json_space(rng, out);
  switch (roll) {
    case 0: out += "null"; break;
    case 1: out += rng.uniform() < 0.5 ? "true" : "false"; break;
    case 2:
    case 3: random_json_number(rng, out); break;
    case 4:
    case 5: random_json_string(rng, out); break;
    case 6: {
      out.push_back('[');
      const auto n = rng.uniform_int(0, 5);
      for (std::int64_t i = 0; i < n; ++i) {
        if (i > 0) out.push_back(',');
        random_json_value(rng, out, depth + 1);
      }
      random_json_space(rng, out);
      out.push_back(']');
      break;
    }
    default: {
      out.push_back('{');
      const auto n = rng.uniform_int(0, 5);
      for (std::int64_t i = 0; i < n; ++i) {
        if (i > 0) out.push_back(',');
        random_json_space(rng, out);
        // A small key alphabet makes duplicate keys common.
        if (rng.uniform() < 0.7) {
          out += "\"k" + std::to_string(rng.uniform_int(0, 3)) + "\"";
        } else {
          random_json_string(rng, out);
        }
        random_json_space(rng, out);
        out.push_back(':');
        random_json_value(rng, out, depth + 1);
      }
      random_json_space(rng, out);
      out.push_back('}');
    }
  }
  random_json_space(rng, out);
}

/// Flips, inserts or deletes a few bytes, favouring the grammar's
/// structural characters, or truncates.
void mutate_json(Rng& rng, std::string& text) {
  static constexpr std::string_view kSignificant = "{}[]\":,\\u0123456789eE+-.tfn \t";
  const auto edits = rng.uniform_int(1, 4);
  for (std::int64_t e = 0; e < edits; ++e) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
    const char c = rng.uniform() < 0.7
                       ? kSignificant[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(kSignificant.size()) - 1))]
                       : static_cast<char>(rng.uniform_int(0, 255));
    switch (rng.uniform_int(0, 3)) {
      case 0: if (at < text.size()) text[at] = c; break;
      case 1: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c); break;
      case 2: if (at < text.size()) text.erase(at, 1); break;
      default: text.resize(at); break;
    }
  }
}

/// Differential JSON fuzz (see the file comment).  Returns the number of
/// mismatches found.
std::uint64_t json_fuzz(double seconds, std::uint64_t seed) {
  Rng pool_rng(seed);
  std::vector<std::string> protocol;
  for (std::size_t i = 0; i < 8; ++i) {
    Rng sample = pool_rng.fork(i);
    WorkloadConfig config;
    config.tasks = 16;
    config.processors = 4;
    config.normalized_utilization = 0.6;
    protocol.push_back(server::make_admit_request(4, generate(sample, config)));
  }
  protocol.push_back(server::make_session_open_request(8));
  protocol.push_back(server::make_stats_request());

  Rng rng(seed ^ 0x6a736f6eULL);  // "json"
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t documents = 0;
  std::uint64_t accepted = 0;
  std::uint64_t mismatches = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < seconds) {
    Rng sample = rng.fork(documents++);
    std::string text;
    switch (sample.uniform_int(0, 5)) {
      case 0: {  // raw bytes
        const auto n = sample.uniform_int(0, 64);
        for (std::int64_t i = 0; i < n; ++i) {
          text.push_back(static_cast<char>(sample.uniform_int(0, 255)));
        }
        break;
      }
      case 1:  // a protocol line, mutated half the time
        text = protocol[static_cast<std::size_t>(sample.uniform_int(
            0, static_cast<std::int64_t>(protocol.size()) - 1))];
        if (sample.uniform() < 0.5) mutate_json(sample, text);
        break;
      case 2:
      case 3:  // a random document
        random_json_value(sample, text, 0);
        break;
      default:  // a mutated random document
        random_json_value(sample, text, 0);
        mutate_json(sample, text);
    }
    const std::string diff = json_oracle::diff_parsers(text);
    if (!diff.empty()) {
      ++mismatches;
      std::cerr << "JSON MISMATCH: " << diff << "\n  repro: seed " << seed
                << ", document " << documents - 1 << "\n  text: " << text
                << '\n';
    }
    server::JsonValue value;
    std::string error;
    if (server::json_parse(text, value, error)) ++accepted;
  }
  std::cout << "rmts_fuzz json: " << documents << " documents (" << accepted
            << " accepted), " << mismatches << " mismatches (seed " << seed
            << ")\n";
  return mismatches;
}

/// In-process protocol fuzz: random byte streams through the service
/// codec.  Returns the number of violations found.
std::uint64_t proto_fuzz(double seconds, std::uint64_t seed) {
  constexpr std::size_t kMaxLine = 4096;  // small cap => oversized paths hit
  server::Metrics metrics;
  server::RouterConfig router_config;
  router_config.max_tasks = 64;
  router_config.max_processors = 16;
  router_config.sim_horizon_cap = 200'000;
  const server::Router router(router_config, metrics);

  // A small pool of valid requests used as mutation seeds.
  Rng pool_rng(seed);
  std::vector<std::string> valid;
  for (std::size_t i = 0; i < 16; ++i) {
    Rng sample = pool_rng.fork(i);
    WorkloadConfig config;
    config.tasks = 8;
    config.processors = 4;
    config.normalized_utilization = 0.5;
    const TaskSet tasks = generate(sample, config);
    switch (i % 4) {
      case 0: valid.push_back(server::make_admit_request(4, tasks)); break;
      case 1: valid.push_back(server::make_analyze_request(4, tasks)); break;
      case 2: valid.push_back(server::make_simulate_request(4, tasks)); break;
      default: valid.push_back(server::make_stats_request()); break;
    }
  }

  Rng rng(seed ^ 0x70726f746fULL);  // "proto"
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t attempts = 0;
  std::uint64_t lines = 0;
  std::uint64_t oversized = 0;
  std::uint64_t violations = 0;
  const auto fail = [&](const std::string& what, const std::string& detail) {
    ++violations;
    std::cerr << "PROTO VIOLATION: " << what << "\n  repro: seed " << seed
              << ", attempt " << attempts << "\n  detail: " << detail << '\n';
  };

  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < seconds) {
    Rng sample = rng.fork(attempts++);
    server::LineDecoder decoder(kMaxLine);

    // Compose a stream of ~8 segments: garbage, mutated/truncated valid
    // requests, oversized runs, and pristine requests.
    std::string stream;
    const auto segments = static_cast<std::size_t>(sample.uniform_int(1, 8));
    for (std::size_t s = 0; s < segments; ++s) {
      switch (sample.uniform_int(0, 4)) {
        case 0: {  // raw random bytes (newlines included by chance)
          const auto n = static_cast<std::size_t>(sample.uniform_int(0, 256));
          for (std::size_t i = 0; i < n; ++i) {
            stream.push_back(static_cast<char>(sample.uniform_int(0, 255)));
          }
          stream.push_back('\n');
          break;
        }
        case 1: {  // a valid request with random byte flips
          std::string line = valid[static_cast<std::size_t>(
              sample.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1))];
          const auto flips = static_cast<std::size_t>(sample.uniform_int(0, 8));
          for (std::size_t i = 0; i < flips && !line.empty(); ++i) {
            const auto at = static_cast<std::size_t>(sample.uniform_int(
                0, static_cast<std::int64_t>(line.size()) - 1));
            line[at] = static_cast<char>(sample.uniform_int(1, 255));
          }
          if (line.find('\n') != std::string::npos) {
            line.erase(line.find('\n'));  // keep it one line
          }
          stream += line;
          stream.push_back('\n');
          break;
        }
        case 2: {  // truncated valid request
          const std::string& line = valid[static_cast<std::size_t>(
              sample.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1))];
          const auto keep = static_cast<std::size_t>(
              sample.uniform_int(0, static_cast<std::int64_t>(line.size())));
          stream += line.substr(0, keep);
          stream.push_back('\n');
          break;
        }
        case 3: {  // oversized line (over the decoder cap)
          const auto n = kMaxLine + static_cast<std::size_t>(
                                        sample.uniform_int(1, 4096));
          stream.append(n, 'x');
          stream.push_back('\n');
          break;
        }
        default: {  // pristine valid request
          stream += valid[static_cast<std::size_t>(
              sample.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1))];
          stream.push_back('\n');
          break;
        }
      }
    }

    // Feed in random fragments, draining after each, like a TCP stream.
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const auto chunk = static_cast<std::size_t>(sample.uniform_int(
          1, static_cast<std::int64_t>(stream.size() - offset)));
      decoder.feed(std::string_view(stream).substr(offset, chunk));
      offset += chunk;
      if (decoder.buffered() > kMaxLine) {
        fail("decoder memory exceeded its cap",
             "buffered " + std::to_string(decoder.buffered()));
      }

      server::LineDecoder::Line line;
      while (decoder.next(line)) {
        ++lines;
        const server::HandleOutcome outcome =
            line.oversized ? router.oversized_line() : router.handle(line.text);
        if (line.oversized) ++oversized;
        for (const std::string_view text : {std::string_view(line.text),
                                            std::string_view(outcome.reply)}) {
          const std::string diff = json_oracle::diff_parsers(text);
          if (!diff.empty()) {
            fail("tape parser disagrees with the oracle: " + diff, std::string(text));
          }
        }

        // Every reply, for any input, must be one well-formed JSON object
        // with a bool "ok"; failures must carry a non-empty "error".
        server::JsonValue reply;
        std::string parse_error;
        if (outcome.reply.find('\n') != std::string::npos) {
          fail("reply contains a newline", outcome.reply);
        } else if (!server::json_parse(outcome.reply, reply, parse_error)) {
          fail("reply is not valid JSON: " + parse_error, outcome.reply);
        } else if (!reply.is_object()) {
          fail("reply is not a JSON object", outcome.reply);
        } else {
          const server::JsonValue* ok = reply.find("ok");
          if (ok == nullptr || !ok->is_bool()) {
            fail("reply lacks a bool \"ok\"", outcome.reply);
          } else if (!ok->as_bool()) {
            const server::JsonValue* error = reply.find("error");
            if (error == nullptr || !error->is_string() ||
                error->as_string().empty()) {
              fail("failure reply lacks a non-empty \"error\"", outcome.reply);
            }
            if (!outcome.error) {
              fail("ok:false reply not recorded as an error", outcome.reply);
            }
          }
        }
      }
    }
  }

  std::cout << "rmts_fuzz proto: " << attempts << " streams, " << lines
            << " lines (" << oversized << " oversized), " << violations
            << " violations (seed " << seed << ")\n";
  return violations;
}

// ------------------------------------------------ kernel differential --

/// The scalar path's documented fits() semantics, materialized naively:
/// the candidate under its higher-priority prefix, then every
/// lower-priority hosted subtask with the candidate appended to its
/// interferer set -- all through the checked scalar response_time, no
/// seeds, no caches.  Ground truth for the kernel's admission verdicts.
bool oracle_fits(std::span<const Subtask> subtasks, const Subtask& candidate,
                 RtaOutcome& own) {
  const auto pos_it = std::lower_bound(
      subtasks.begin(), subtasks.end(), candidate,
      [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
  const auto pos = static_cast<std::size_t>(pos_it - subtasks.begin());
  own = response_time(candidate.wcet, candidate.deadline, subtasks.first(pos));
  if (!own.schedulable) return false;
  for (std::size_t i = pos; i < subtasks.size(); ++i) {
    std::vector<Subtask> hp(subtasks.begin(),
                            subtasks.begin() + static_cast<std::ptrdiff_t>(i));
    hp.push_back(candidate);
    const RtaOutcome out =
        response_time(subtasks[i].wcet, subtasks[i].deadline, hp);
    if (!out.schedulable) return false;
  }
  return true;
}

/// Replica of the pre-kernel robustness jitter fixed point (saturating
/// interference, overflow conflated with kTimeInfinity) -- the value
/// contract kernel_jitter_response promises to keep.
std::optional<Time> oracle_jitter(Time wcet, Time bound,
                                  std::span<const Subtask> hp, Time jitter) {
  const auto sat_add = [](Time a, Time b) noexcept {
    const auto sum = checked_add(a, b);
    return sum ? *sum : kTimeInfinity;
  };
  const auto sat_interference = [&](Time t) noexcept {
    const auto demand = interference_at(t, hp);
    return demand ? *demand : kTimeInfinity;
  };
  if (wcet > bound) return std::nullopt;
  Time r = sat_add(wcet, sat_interference(sat_add(wcet, jitter)));
  while (r <= bound) {
    const Time next = sat_add(wcet, sat_interference(sat_add(r, jitter)));
    if (next == r) return r;
    r = next;
  }
  return std::nullopt;
}

/// One random subtask.  Realistic draws stay well inside the kernel's
/// no-overflow fast path; overflow-scale draws straddle the 2^31 boundary
/// (including exactly 2^31 +- a few) and reach kTimeInfinity/4 so every
/// probe also exercises the checked scalar fallback and the saturating
/// prefix sums.
Subtask random_kernel_subtask(Rng& rng, std::size_t priority,
                              bool overflow_scale) {
  Subtask s;
  s.priority = priority;
  s.task_id = static_cast<TaskId>(priority);
  if (overflow_scale && rng.uniform_int(0, 1) == 0) {
    const Time boundary = Time{1} << 31;
    s.period = rng.uniform_int(0, 1) == 0
                   ? std::max<Time>(1, boundary + rng.uniform_int(-4, 4))
                   : rng.uniform_int(1, kTimeInfinity / 4);
    s.wcet = rng.uniform_int(0, 1) == 0 ? rng.uniform_int(1, s.period)
                                        : std::max<Time>(1, boundary - 2 +
                                                                rng.uniform_int(0, 4));
  } else {
    s.period = rng.uniform_int(1, 1'000'000);
    s.wcet = rng.uniform_int(1, s.period);
  }
  s.deadline = rng.uniform_int(1, s.period);
  return s;
}

/// Commit-on-fit exactness.  kernel_fits over exact candidate-free seeds
/// (scalar per-prefix RTA; kTimeInfinity for a miss) with the `committed`
/// output must, whenever it reports a commit, have stored for every hosted
/// subtask at or below the candidate exactly its kernel_response_time in
/// the post-insert set; and ProcessorState::try_add must reproduce the
/// oracle verdict and leave every response equal to a fresh analysis of
/// the grown set.  Stops, checking nothing more, once `out_of_time()`.
template <typename Fail, typename OutOfTime>
void check_commit(const std::vector<Subtask>& subtasks, const RtaSoa& soa,
                  const Subtask& candidate, bool expected, const Fail& fail,
                  const OutOfTime& out_of_time) {
  const std::size_t n = subtasks.size();
  std::vector<Time> seeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (out_of_time()) return;
    const auto hp = std::span<const Subtask>(subtasks).first(i);
    const RtaOutcome out =
        response_time(subtasks[i].wcet, subtasks[i].deadline, hp);
    seeds[i] = out.schedulable ? out.response : kTimeInfinity;
  }
  std::vector<Time> committed(n + 1, -1);
  const KernelFit verdict = kernel_fits(subtasks, soa, seeds, candidate,
                                        /*seeds_exact=*/true, committed.data());
  if (verdict.fits != expected) fail("kernel_fits with output diverged");
  if (verdict.committed && !verdict.fits) fail("kernel_fits committed a miss");

  const auto pos_it = std::lower_bound(
      subtasks.begin(), subtasks.end(), candidate,
      [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
  const auto pos = static_cast<std::size_t>(pos_it - subtasks.begin());
  std::vector<Subtask> grown = subtasks;
  grown.insert(grown.begin() + static_cast<std::ptrdiff_t>(pos), candidate);
  RtaSoa grown_soa;
  grown_soa.assign(grown);
  if (verdict.committed) {
    for (std::size_t i = pos; i < n; ++i) {
      if (out_of_time()) return;
      const RtaOutcome fresh =
          kernel_response_time(grown, grown_soa, i + 1, grown[i + 1].wcet,
                               grown[i + 1].deadline, 0);
      if (!fresh.schedulable || fresh.response != committed[i]) {
        fail("committed response diverged from kernel_response_time at " +
             std::to_string(i));
      }
    }
  }

  ProcessorState processor;
  for (const Subtask& s : subtasks) processor.add(s);
  if (processor.try_add(candidate) != expected) {
    fail("try_add() diverged from the scalar oracle");
  }
  if (!expected) return;
  for (std::size_t i = 0; i < grown.size(); ++i) {
    if (out_of_time()) return;
    const RtaOutcome fresh = kernel_response_time(
        grown, grown_soa, i, grown[i].wcet, grown[i].deadline, 0);
    // A random host may already miss above the candidate (fits() does not
    // re-check that prefix); the candidate and everything below it fit.
    if (!fresh.schedulable) {
      if (i >= pos) fail("try_add() admitted an unschedulable set");
      continue;
    }
    if (processor.response_time_of(i) != fresh.response) {
      fail("response after try_add() diverged at " + std::to_string(i));
    }
  }
}

/// Differential fuzz of the SoA kernel against the scalar path.  Returns
/// the number of violations found.
///
/// One overflow-scale set can hold single RTA calls of several seconds, so
/// the time budget is also checked between the checks of a set: a set the
/// budget runs out in stops there and is not counted as tested.
std::uint64_t kernel_fuzz(double seconds, std::uint64_t seed) {
  Rng rng(seed ^ 0x6b65726e656cULL);  // "kernel"
  const auto start = std::chrono::steady_clock::now();
  const auto out_of_time = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() >= seconds;
  };
  std::uint64_t attempts = 0;
  std::uint64_t tested = 0;
  std::uint64_t probes = 0;
  std::uint64_t violations = 0;
  const auto fail = [&](const std::string& what) {
    ++violations;
    std::cerr << "KERNEL VIOLATION: " << what << "\n  repro: seed " << seed
              << ", attempt " << attempts - 1 << '\n';
  };

  while (!out_of_time()) {
    Rng sample = rng.fork(attempts++);
    const bool overflow_scale = sample.uniform_int(0, 5) == 0;
    const auto n = static_cast<std::size_t>(sample.uniform_int(0, 10));
    std::vector<Subtask> subtasks;
    subtasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      subtasks.push_back(random_kernel_subtask(sample, i, overflow_scale));
    }

    // (a) A rebuilt mirror is consistent, and kernel_analyze (the routed
    // analyze_processor) agrees bit-for-bit with per-prefix scalar RTA.
    RtaSoa soa;
    soa.assign(subtasks);
    if (!soa.mirrors(subtasks)) fail("assign() mirror inconsistent");
    const ProcessorRta kernel = kernel_analyze(subtasks);
    {
      bool schedulable = true;
      std::size_t first_miss = n;
      for (std::size_t i = 0; i < n; ++i) {
        const auto hp = std::span<const Subtask>(subtasks).first(i);
        const RtaOutcome out =
            response_time(subtasks[i].wcet, subtasks[i].deadline, hp);
        if (!out.schedulable) {
          schedulable = false;
          first_miss = i;
          break;
        }
        if (kernel.response[i] != out.response) {
          fail("kernel_analyze response diverged at index " +
               std::to_string(i));
        }
      }
      if (kernel.schedulable != schedulable || kernel.first_miss != first_miss) {
        fail("kernel_analyze verdict diverged from scalar per-prefix RTA");
      }
    }

    // (b) Seeded and with-extra twins at a random prefix are bit-identical
    // to the scalar functions under the same (valid) seed.
    if (out_of_time()) break;
    if (n > 0) {
      const auto i = static_cast<std::size_t>(
          sample.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const Subtask probe = subtasks[i];
      const auto hp = std::span<const Subtask>(subtasks).first(i);
      const Time seed_value = sample.uniform_int(0, probe.wcet);
      const RtaOutcome ks = kernel_response_time(
          subtasks, soa, i, probe.wcet, probe.deadline, seed_value);
      const RtaOutcome ss =
          response_time_seeded(probe.wcet, probe.deadline, hp, seed_value);
      if (ks.schedulable != ss.schedulable || ks.response != ss.response) {
        fail("kernel_response_time diverged from response_time_seeded");
      }
      const Subtask extra = random_kernel_subtask(
          sample, static_cast<std::size_t>(sample.uniform_int(0, 20)),
          overflow_scale);
      const RtaOutcome kw = kernel_response_time_with(
          subtasks, soa, i, probe.wcet, probe.deadline, extra, seed_value);
      const RtaOutcome sw = response_time_with(probe.wcet, probe.deadline, hp,
                                               extra, seed_value);
      if (kw.schedulable != sw.schedulable || kw.response != sw.response) {
        fail("kernel_response_time_with diverged from response_time_with");
      }
    }

    // (c) Incremental mirror maintenance: inserting the subtasks in a
    // random order at their priority positions must leave the mirror
    // indistinguishable from a rebuild at every step.
    if (out_of_time()) break;
    std::vector<Subtask> shuffled = subtasks;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          sample.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(shuffled[i - 1], shuffled[j]);
    }
    {
      RtaSoa incremental;
      std::vector<Subtask> hosted;
      for (const Subtask& s : shuffled) {
        const auto pos_it = std::lower_bound(
            hosted.begin(), hosted.end(), s,
            [](const Subtask& a, const Subtask& b) {
              return a.priority < b.priority;
            });
        const auto pos = static_cast<std::size_t>(pos_it - hosted.begin());
        hosted.insert(pos_it, s);
        incremental.insert(pos, s);
        if (!incremental.mirrors(hosted)) {
          fail("insert() mirror inconsistent after " +
               std::to_string(hosted.size()) + " insertions");
          break;
        }
      }
    }

    // (d) Admission: fits() (kernel-routed, seeded from the memoized
    // cache) and fits_batch() agree with the naive scalar oracle on the
    // verdict AND the candidate's reported response, and the verdict is
    // independent of the add() order that built the processor.
    ProcessorState in_order;
    for (const Subtask& s : subtasks) in_order.add(s);
    ProcessorState shuffled_order;
    for (const Subtask& s : shuffled) shuffled_order.add(s);

    const auto k = static_cast<std::size_t>(sample.uniform_int(1, 4));
    std::vector<Subtask> candidates;
    candidates.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
      candidates.push_back(random_kernel_subtask(
          sample, static_cast<std::size_t>(sample.uniform_int(0, 20)),
          overflow_scale));
    }
    std::vector<KernelFit> verdicts(candidates.size());
    if (out_of_time()) break;
    in_order.fits_batch(candidates, verdicts);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (out_of_time()) break;
      ++probes;
      RtaOutcome own;
      const bool expected = oracle_fits(subtasks, candidates[c], own);
      if (out_of_time()) break;
      if (in_order.fits(candidates[c]) != expected) {
        fail("fits() diverged from the scalar oracle");
      }
      if (out_of_time()) break;
      if (shuffled_order.fits(candidates[c]) != expected) {
        fail("fits() verdict depends on add() order");
      }
      if (verdicts[c].fits != expected) {
        fail("fits_batch() diverged from the scalar oracle");
      }
      if (expected && verdicts[c].response != own.response) {
        fail("fits_batch() candidate response diverged from scalar RTA");
      }
      check_commit(subtasks, soa, candidates[c], expected, fail, out_of_time);
    }
    if (out_of_time()) break;

    // (e) The jitter kernel keeps the old robustness loop's exact values.
    if (n > 0) {
      const auto i = static_cast<std::size_t>(
          sample.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto hp = std::span<const Subtask>(subtasks).first(i);
      const Time jitter = sample.uniform_int(0, 1) == 0
                              ? sample.uniform_int(0, 1'000'000)
                              : sample.uniform_int(0, kTimeInfinity / 4);
      const Time bound = subtasks[i].period;
      const auto kj = kernel_jitter_response(subtasks, soa, i,
                                             subtasks[i].wcet, bound, jitter);
      const auto sj = oracle_jitter(subtasks[i].wcet, bound, hp, jitter);
      if (kj != sj) fail("kernel_jitter_response diverged from scalar loop");
    }
    ++tested;
  }

  std::cout << "rmts_fuzz kernel: " << tested << " hosted sets, " << probes
            << " admission probes, " << violations << " violations (seed "
            << seed << ")\n";
  return violations;
}

// ------------------------------------------------ MaxSplit differential --

/// One random subtask for the MaxSplit fuzz.  Realistic draws follow the
/// library workload (log-uniform periods in [1e3, 1e6]); overflow-scale
/// draws put periods, wcets and deadlines near 2^62 and kTimeInfinity, so
/// the demand and the candidate's arrivals saturate int64.
Subtask random_split_subtask(Rng& rng, std::size_t priority,
                             bool overflow_scale) {
  Subtask s;
  s.priority = priority;
  s.task_id = static_cast<TaskId>(priority);
  if (overflow_scale) {
    s.period = rng.uniform_int(0, 1) == 0
                   ? rng.uniform_int(Time{1} << 61, Time{1} << 62)
                   : rng.uniform_int(kTimeInfinity / 2, kTimeInfinity);
    s.wcet = rng.uniform_int(0, 1) == 0 ? rng.uniform_int(1, s.period / 2)
                                        : rng.uniform_int(1, 1'000'000);
  } else {
    s.period = rng.log_uniform_time(1'000, 1'000'000);
    s.wcet = rng.uniform_int(1, std::max<Time>(1, s.period / 3));
  }
  s.deadline = s.period;
  if (rng.uniform_int(0, 2) == 0) {  // synthetic (tail) deadline
    s.deadline = rng.uniform_int(s.wcet, s.period);
    s.kind = SubtaskKind::kTail;
  }
  return s;
}

/// Writes a failing MaxSplit case (hosted subtasks and prototype, one
/// `priority wcet period deadline` line each) for replay.
void dump_split_case(const std::string& path, const std::string& what,
                     std::span<const Subtask> hosted, const Subtask& prototype) {
  std::ofstream dump(path);
  if (!dump) return;
  dump << "# " << what << "\n# hosted: priority wcet period deadline\n";
  for (const Subtask& s : hosted) {
    dump << s.priority << ' ' << s.wcet << ' ' << s.period << ' '
         << s.deadline << '\n';
  }
  dump << "# prototype\n"
       << prototype.priority << ' ' << prototype.wcet << ' '
       << prototype.period << ' ' << prototype.deadline << '\n';
  std::cerr << "  case written to " << path << '\n';
}

/// Differential fuzz of the scheduling-point MaxSplit against the binary
/// search.  Returns the number of violations found.
std::uint64_t maxsplit_fuzz(double seconds, std::uint64_t seed) {
  Rng rng(seed ^ 0x6d61787370ULL);  // "maxsp"
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t attempts = 0;
  std::uint64_t overflow_cases = 0;
  std::uint64_t churn_cases = 0;
  std::uint64_t lower_priority = 0;
  std::uint64_t partial = 0;  // 0 < result < wcet: a real split
  std::uint64_t violations = 0;

  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < seconds) {
    Rng sample = rng.fork(attempts++);
    const bool overflow_scale = sample.uniform_int(0, 4) == 0;
    overflow_cases += overflow_scale ? 1 : 0;

    // Hosted priorities are distinct draws from 1..40; a prototype at 0
    // is top-priority (the RM-TS split shape).  A quarter of the
    // processors are built through add/remove churn, the online session's
    // shape: remove() re-seeds the cached responses MaxSplit starts from.
    ProcessorState processor;
    std::vector<std::size_t> taken;
    const bool churned = sample.uniform_int(0, 3) == 0;
    churn_cases += churned ? 1 : 0;
    const auto hosted = sample.uniform_int(0, 10) * (churned ? 2 : 1);
    for (std::int64_t k = 0; k < hosted; ++k) {
      if (churned && !taken.empty() && sample.uniform_int(0, 2) == 0) {
        const auto index = static_cast<std::size_t>(sample.uniform_int(
            0, static_cast<std::int64_t>(taken.size()) - 1));
        const std::size_t gone = processor.subtasks()[index].priority;
        taken.erase(std::find(taken.begin(), taken.end(), gone));
        processor.remove(index);
        continue;
      }
      const auto priority = static_cast<std::size_t>(sample.uniform_int(1, 40));
      if (std::find(taken.begin(), taken.end(), priority) != taken.end()) continue;
      const Subtask s = random_split_subtask(sample, priority, overflow_scale);
      // MaxSplit's precondition: the processor stays schedulable.  Churn
      // admits through try_add() as the session does (the cache commits
      // its probe), the rest through fits() + add() (stale seeds).
      if (churned) {
        if (!processor.try_add(s)) continue;
      } else {
        if (!processor.fits(s)) continue;
        processor.add(s);
      }
      taken.push_back(priority);
    }
    std::size_t priority = 0;
    if (sample.uniform_int(0, 2) == 0) {
      do {
        priority = static_cast<std::size_t>(sample.uniform_int(1, 41));
      } while (std::find(taken.begin(), taken.end(), priority) != taken.end());
      ++lower_priority;
    }
    Subtask prototype = random_split_subtask(sample, priority, overflow_scale);
    prototype.wcet = sample.uniform_int(1, prototype.period);
    if (overflow_scale && sample.uniform_int(0, 1) == 0) {
      // Few, huge candidate arrivals: the last ones sit near kTimeInfinity.
      prototype.period = sample.uniform_int(kTimeInfinity / 8, kTimeInfinity);
    }

    const Time points =
        max_admissible_wcet(processor, prototype, MaxSplitMethod::kSchedulingPoints);
    const Time binary =
        max_admissible_wcet(processor, prototype, MaxSplitMethod::kBinarySearch);
    const auto fits_with = [&](Time wcet) {
      Subtask probe = prototype;
      probe.wcet = wcet;
      return processor.fits(probe);
    };
    std::string what;
    if (points != binary) {
      what = "scheduling points " + std::to_string(points) +
             " != binary search " + std::to_string(binary);
    } else if (binary > 0 && !fits_with(binary)) {
      what = "MaxSplit result " + std::to_string(binary) + " does not fit";
    } else if (binary < prototype.wcet && fits_with(binary + 1)) {
      what = "MaxSplit result " + std::to_string(binary) +
             " leaves no bottleneck";
    }
    if (binary > 0 && binary < prototype.wcet) ++partial;
    if (!what.empty()) {
      ++violations;
      std::cerr << "MAXSPLIT VIOLATION: " << what << "\n  repro: seed " << seed
                << ", attempt " << attempts - 1 << '\n';
      dump_split_case("rmts_fuzz_violation_" + std::to_string(seed) + "_" +
                          std::to_string(attempts - 1) + ".txt",
                      what, processor.subtasks(), prototype);
    }
  }

  std::cout << "rmts_fuzz maxsplit: " << attempts << " cases (" << overflow_cases
            << " overflow-scale, " << churn_cases << " churned, "
            << lower_priority << " lower-priority prototypes, "
            << partial << " partial splits), " << violations
            << " violations (seed " << seed << ")\n";
  return violations;
}

// --------------------------------------------------- online churn fuzz --

/// Random admit/depart/rebalance interleavings on a PartitionSession.
/// Returns the number of violations found.
std::uint64_t churn_fuzz(double seconds, std::uint64_t seed) {
  Rng rng(seed ^ 0x636875726eULL);  // "churn"
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t attempts = 0;
  std::uint64_t operations = 0;
  std::uint64_t admitted = 0;
  std::uint64_t split_admits = 0;
  std::uint64_t departed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t full_checks = 0;
  std::uint64_t batch_checks = 0;
  std::uint64_t batch_accepts = 0;
  std::uint64_t violations = 0;

  // The harness's own ledger of what must be resident: insertion-ordered
  // (ticket, wcet, period) rows.  Tickets are monotone, so this stays
  // ticket-sorted for free -- directly comparable to session.residents().
  struct Row {
    online::Ticket ticket;
    Time wcet;
    Time period;
  };
  std::vector<Row> ledger;

  const auto fail = [&](const std::string& what, std::uint64_t op) {
    ++violations;
    std::cerr << "CHURN VIOLATION: " << what << "\n  repro: seed " << seed
              << ", attempt " << attempts - 1 << ", op " << op << '\n';
    std::vector<std::pair<Time, Time>> pairs;
    pairs.reserve(ledger.size());
    for (const Row& row : ledger) pairs.emplace_back(row.wcet, row.period);
    if (pairs.empty()) return;
    const std::string path = "rmts_fuzz_violation_" + std::to_string(seed) +
                             "_" + std::to_string(attempts - 1) + ".txt";
    std::ofstream dump(path);
    if (dump) {
      write_task_set(dump, TaskSet::from_pairs(pairs));
      std::cerr << "  resident set written to " << path << '\n';
    }
  };

  // Never-un-admit, after EVERY operation: the live resident rows must be
  // exactly the ledger -- same tickets, same parameters, nothing dropped,
  // nothing mutated -- and the utilization books must balance.
  const auto check_residents = [&](const online::PartitionSession& session,
                                   std::uint64_t op) {
    const auto residents = session.residents();
    if (residents.size() != ledger.size()) {
      fail("resident count diverged from the ledger (" +
               std::to_string(residents.size()) + " vs " +
               std::to_string(ledger.size()) + ")",
           op);
      return;
    }
    for (std::size_t i = 0; i < ledger.size(); ++i) {
      if (residents[i].ticket != ledger[i].ticket ||
          residents[i].wcet != ledger[i].wcet ||
          residents[i].period != ledger[i].period) {
        fail("resident row " + std::to_string(i) + " diverged (ticket " +
                 std::to_string(residents[i].ticket) + " vs " +
                 std::to_string(ledger[i].ticket) + ")",
             op);
        return;
      }
    }
    double expected_utilization = 0.0;
    for (const Row& row : ledger) {
      expected_utilization +=
          static_cast<double>(row.wcet) / static_cast<double>(row.period);
    }
    const online::SessionStats stats = session.stats();
    const double tolerance = 1e-9 * std::max(1.0, expected_utilization);
    if (std::abs(stats.utilization - expected_utilization) > tolerance) {
      fail("utilization accounting diverged (" +
               std::to_string(stats.utilization) + " vs ledger " +
               std::to_string(expected_utilization) + ")",
           op);
    }
    if (stats.resident_tasks != ledger.size()) {
      fail("stats.resident_tasks diverged from the ledger", op);
    }
  };

  // From-scratch cross-checks: full structural + exact-RTA invariants,
  // and a batch RmtsLight re-partition of the live resident set.
  const RmtsLight batch;
  const auto check_from_scratch = [&](const online::PartitionSession& session,
                                      std::size_t processors,
                                      std::uint64_t op) {
    ++full_checks;
    const std::string violation = session.check_invariants();
    if (!violation.empty()) fail("invariant: " + violation, op);
    if (ledger.empty()) return;
    ++batch_checks;
    std::vector<std::pair<Time, Time>> pairs;
    pairs.reserve(ledger.size());
    for (const Row& row : ledger) pairs.emplace_back(row.wcet, row.period);
    const TaskSet residents = TaskSet::from_pairs(pairs);
    const Assignment repartition = batch.partition(residents, processors);
    if (repartition.success) ++batch_accepts;
    // The sanity leg: what the online session is hosting is schedulable
    // from scratch (check_invariants above), so a batch reject is a
    // packing-quality gap, not a soundness bug -- but a batch accept that
    // claims LESS utilization than the session holds would mean the
    // ledger and the assignment disagree about what "the set" is.
    if (repartition.success &&
        std::abs(residents.total_utilization() - session.stats().utilization) >
            1e-9 * std::max(1.0, residents.total_utilization())) {
      fail("batch re-partition saw a different total utilization", op);
    }
  };

  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < seconds) {
    Rng sample = rng.fork(attempts++);

    online::SessionConfig config;
    config.processors = static_cast<std::size_t>(sample.uniform_int(1, 6));
    config.allow_splitting = sample.uniform_int(0, 3) != 0;
    config.split_granularity = sample.uniform_int(0, 1) == 0
                                   ? Time{1}
                                   : sample.uniform_int(1, 16);
    config.rebalance_every =
        static_cast<std::size_t>(sample.uniform_int(0, 24));
    config.max_migrations_per_round =
        static_cast<std::size_t>(sample.uniform_int(1, 8));
    config.hysteresis = sample.uniform(0.02, 0.30);
    if (sample.uniform_int(0, 7) == 0) {
      config.max_resident = static_cast<std::size_t>(sample.uniform_int(1, 8));
    }
    online::PartitionSession session(config);
    ledger.clear();

    const auto ops =
        static_cast<std::uint64_t>(sample.uniform_int(32, 160));
    const double depart_rate = sample.uniform(0.10, 0.60);
    for (std::uint64_t op = 0; op < ops; ++op) {
      ++operations;
      const double roll = sample.uniform(0.0, 1.0);
      if (!ledger.empty() && roll < depart_rate) {
        const auto victim = static_cast<std::size_t>(sample.uniform_int(
            0, static_cast<std::int64_t>(ledger.size()) - 1));
        const online::Ticket ticket = ledger[victim].ticket;
        ledger.erase(ledger.begin() + static_cast<std::ptrdiff_t>(victim));
        if (!session.depart(ticket)) {
          fail("depart(" + std::to_string(ticket) + ") of a resident failed",
               op);
        }
        ++departed;
        if (session.depart(ticket)) {
          fail("double depart(" + std::to_string(ticket) + ") succeeded", op);
        }
      } else if (roll < depart_rate + 0.05) {
        migrations += session.rebalance();
      } else {
        // Modest utilizations keep sessions long-lived; occasional heavy
        // draws force rejections and split placements.
        const Time period = sample.uniform_int(2, 10'000);
        const double target = sample.uniform_int(0, 4) == 0
                                  ? sample.uniform(0.5, 1.0)
                                  : sample.uniform(0.02, 0.45);
        const Time wcet = std::max<Time>(
            1, static_cast<Time>(static_cast<double>(period) * target));
        const online::AdmitResult result = session.admit(wcet, period);
        if (result.admitted) {
          ++admitted;
          if (result.parts > 1) ++split_admits;
          if (!ledger.empty() && result.ticket <= ledger.back().ticket) {
            fail("ticket " + std::to_string(result.ticket) +
                     " not monotonically increasing",
                 op);
          }
          ledger.push_back({result.ticket, wcet, period});
        }
      }
      check_residents(session, op);
      if (op % 24 == 23) {
        check_from_scratch(session, config.processors, op);
      }
      if (violations != 0) break;
    }
    if (violations != 0) break;
    check_from_scratch(session, config.processors, ops);
  }

  std::cout << "rmts_fuzz churn: " << attempts << " sessions, " << operations
            << " ops (" << admitted << " admits, " << split_admits
            << " split, " << departed << " departs, " << migrations
            << " migrations), " << full_checks << " full invariant checks, "
            << batch_accepts << "/" << batch_checks
            << " batch re-partition accepts, " << violations
            << " violations (seed " << seed << ")\n";
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "kernel") {
    const double kernel_seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
    const std::uint64_t kernel_seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    return kernel_fuzz(kernel_seconds, kernel_seed) == 0 ? 0 : 1;
  }
  if (argc > 1 && std::string(argv[1]) == "maxsplit") {
    const double maxsplit_seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
    const std::uint64_t maxsplit_seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    return maxsplit_fuzz(maxsplit_seconds, maxsplit_seed) == 0 ? 0 : 1;
  }
  if (argc > 1 && std::string(argv[1]) == "churn") {
    const double churn_seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
    const std::uint64_t churn_seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    return churn_fuzz(churn_seconds, churn_seed) == 0 ? 0 : 1;
  }
  if (argc > 1 && std::string(argv[1]) == "json") {
    const double json_seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
    const std::uint64_t json_seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    return json_fuzz(json_seconds, json_seed) == 0 ? 0 : 1;
  }
  if (argc > 1 && std::string(argv[1]) == "proto") {
    const double proto_seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
    const std::uint64_t proto_seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    return proto_fuzz(proto_seconds, proto_seed) == 0 ? 0 : 1;
  }

  const double seconds = argc > 1 ? std::atof(argv[1]) : 10.0;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  const std::vector<Entry> roster{
      {std::make_shared<RmtsLight>(), DispatchPolicy::kFixedPriority, true},
      {std::make_shared<RmtsLight>(MaxSplitMethod::kBinarySearch),
       DispatchPolicy::kFixedPriority, true},
      {std::make_shared<RmtsLight>(MaxSplitMethod::kSchedulingPoints,
                                   SelectionPolicy::kFirstFit),
       DispatchPolicy::kFixedPriority, true},
      {std::make_shared<Rmts>(
           std::make_shared<BestOfBounds>(BestOfBounds::all_known())),
       DispatchPolicy::kFixedPriority, true},
      {std::make_shared<Spa2>(), DispatchPolicy::kFixedPriority, false},
      {std::make_shared<PartitionedRm>(FitPolicy::kFirstFit,
                                       TaskOrder::kDecreasingUtilization,
                                       Admission::kExactRta),
       DispatchPolicy::kFixedPriority, true},
      {std::make_shared<EdfSplit>(), DispatchPolicy::kEarliestDeadlineFirst,
       true},
  };

  Rng rng(seed);
  SimWorkspace workspace;  // reused across every simulated run
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t attempts = 0;  // fork key: advances even on infeasible draws
  std::uint64_t sets = 0;
  std::uint64_t accepted = 0;
  std::uint64_t margin_checks = 0;
  Reporter reporter{seed};

  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < seconds) {
    Rng sample = rng.fork(attempts);
    reporter.attempt = attempts++;
    WorkloadConfig config;
    config.processors = static_cast<std::size_t>(sample.uniform_int(1, 8));
    config.tasks =
        config.processors * static_cast<std::size_t>(sample.uniform_int(2, 6));
    config.period_model = PeriodModel::kGrid;
    config.period_grid = small_hyperperiod_grid();
    config.max_task_utilization = sample.uniform(0.3, 0.95);
    config.normalized_utilization = sample.uniform(0.3, 0.99);
    if (config.normalized_utilization >
        0.95 * config.max_task_utilization * static_cast<double>(config.tasks) /
            static_cast<double>(config.processors)) {
      continue;  // infeasible UUniFast target; redraw
    }
    const TaskSet tasks = generate(sample, config);
    ++sets;

    const double theta = liu_layland_theta(tasks.size());
    for (const Entry& entry : roster) {
      const Assignment assignment =
          entry.algorithm->partition(tasks, config.processors);
      if (!assignment.success) continue;
      const bool claimed =
          entry.unconditional ||
          tasks.normalized_utilization(config.processors) <= theta;
      if (!claimed) continue;
      ++accepted;
      SimConfig sim;
      sim.horizon = recommended_horizon(tasks, 2'000'000);
      sim.policy = entry.policy;
      // Invariant 0: the indexed core agrees with the naive reference core
      // bit-for-bit on every run the fuzzer performs.
      const auto simulate_checked = [&](const SimConfig& sim_config) {
        SimResult result = simulate(tasks, assignment, sim_config, workspace);
        if (!(result == simulate_reference(tasks, assignment, sim_config))) {
          reporter.violation(
              entry.algorithm->name() + ": indexed core diverged from reference",
              tasks, assignment, sim_config.faults);
        }
        return result;
      };
      const SimResult nominal = simulate_checked(sim);
      if (!nominal.schedulable) {
        reporter.violation(entry.algorithm->name() +
                               " accepted but missed a deadline",
                           tasks, assignment, sim.faults);
        continue;
      }

      // Invariant 1: identity faults (factor 1.0, no jitter) are miss-free
      // and bit-identical on every counter.
      SimConfig identity = sim;
      identity.faults.seed =
          static_cast<std::uint64_t>(sample.uniform_int(1, 1 << 30));
      identity.faults.overrun_probability = sample.uniform(0.0, 1.0);
      identity.faults.containment = ContainmentPolicy::kBudgetEnforcement;
      if (!counters_equal(nominal, simulate_checked(identity))) {
        reporter.violation(entry.algorithm->name() +
                               ": identity fault model changed the run",
                           tasks, assignment, identity.faults);
      }

      // Invariant 2: overruns under budget enforcement never miss -- the
      // contained demand is exactly the accepted nominal demand.
      SimConfig contained = sim;
      contained.stop_at_first_miss = false;
      contained.faults.seed =
          static_cast<std::uint64_t>(sample.uniform_int(1, 1 << 30));
      contained.faults.overrun_factor = sample.uniform(1.0, 3.0);
      contained.faults.overrun_ticks = sample.uniform_int(0, 3);
      contained.faults.overrun_probability = sample.uniform(0.2, 1.0);
      contained.faults.containment = ContainmentPolicy::kBudgetEnforcement;
      const SimResult guarded = simulate_checked(contained);
      if (!guarded.misses.empty()) {
        reporter.violation(entry.algorithm->name() +
                               ": budget enforcement let an overrun miss",
                           tasks, assignment, contained.faults);
      }

      // Invariant 3: under priority demotion, only tasks that actually
      // overran can miss (no collateral victims).
      SimConfig demoted = contained;
      demoted.faults.containment = ContainmentPolicy::kPriorityDemotion;
      const SimResult shielded = simulate_checked(demoted);
      for (const DeadlineMiss& miss : shielded.misses) {
        for (std::size_t rank = 0; rank < tasks.size(); ++rank) {
          if (tasks[rank].id == miss.task &&
              shielded.degraded_per_task[rank] == 0) {
            reporter.violation(
                entry.algorithm->name() +
                    ": demotion missed a task that never overran",
                tasks, assignment, demoted.faults);
          }
        }
      }

      // Invariant 4: processor failure is contained (orphans counted, no
      // crash; survivors keep the busy-time accounting consistent).
      if (reporter.attempt % 4 == 0) {
        SimConfig failing = sim;
        failing.stop_at_first_miss = false;
        failing.faults.failed_processor = static_cast<std::size_t>(
            sample.uniform_int(0, static_cast<Time>(config.processors) - 1));
        failing.faults.failure_time = sample.uniform_int(0, sim.horizon);
        const SimResult survived = simulate_checked(failing);
        if (survived.busy_time[failing.faults.failed_processor] >
            failing.faults.failure_time) {
          reporter.violation(entry.algorithm->name() +
                                 ": failed processor kept executing",
                             tasks, assignment, failing.faults);
        }
      }

      // Invariant 5 (periodic, costlier): the analytic robustness margins
      // never exceed the simulated ones on a fixed assignment.
      if (entry.policy == DispatchPolicy::kFixedPriority &&
          reporter.attempt % 16 == 0) {
        ++margin_checks;
        RobustnessConfig robustness;
        robustness.horizon_cap = 2'000'000;
        robustness.fault_seed =
            static_cast<std::uint64_t>(sample.uniform_int(1, 1 << 30));
        const RobustnessReport report =
            analyze_robustness(tasks, assignment, robustness);
        if (report.analytic_overrun_margin >
                report.simulated_overrun_margin + 1e-9 ||
            report.analytic_jitter_margin > report.simulated_jitter_margin) {
          reporter.violation(entry.algorithm->name() +
                                 ": analytic margin exceeds simulated margin",
                             tasks, assignment, sim.faults);
        }
      }
    }
  }

  std::cout << "rmts_fuzz: " << sets << " task sets, " << accepted
            << " accepted-and-claimed partitions simulated, " << margin_checks
            << " margin soundness checks, " << reporter.violations
            << " violations (seed " << seed << ")\n";
  return reporter.violations == 0 ? 0 : 1;
}
