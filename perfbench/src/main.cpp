// rmts_perfbench: the repo benchmark.  Usually run through run.py, which
// builds it first:
//
//   rmts_perfbench --workload admit_wire|session_wire|library --seed N
//                  --seconds S --trace 0|1
//
// Prints a provenance line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when a
// correctness check fails or the run cannot complete (no result line
// then), 2 on bad arguments, 3 when a workload's metric names do not
// match the lists below.
#include <unistd.h>

#include <algorithm>
#include <exception>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/trace.hpp"
#include "server/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using perfbench::Outcome;

/// Every run reports exactly these names, in this order (BENCHMARK.json
/// lists the same ones).
constexpr std::string_view kEndToEnd[] = {
    "setup_s", "peak_rss_mb", "ok_share", "ops_per_s",
    "p50_us",  "p90_us",      "quality_ratio"};
constexpr std::string_view kPerLayer[] = {
    "loadgen.late_p99_us",    "loadgen.open_p50_us",
    "loadgen.open_p99_us",    "loadgen.sent",
    "server.decode_us",       "server.queue_wait_p50_us",
    "server.queue_wait_p99_us", "server.compute_us",
    "server.write_us",        "server.batch_size",
    "server.wire_us",         "pool.task_wait_us",
    "pool.task_run_us",       "protocol.frame_ns",
    "json.parse_ns",          "json.parse_ns_per_byte",
    "tasks.build_ns",         "bounds.eval_ns",
    "router.handle_ns",       "router.residual_ns",
    "router.admit_us",        "router.session_us",
    "partition.rmts_ns",      "partition.place_us",
    "partition.preassign_us", "partition.dedicate_us",
    "partition.split_share",  "rta.iterations_per_set",
    "rta.seeded_per_set",     "admission.miss_per_set",
    "online.admit_ns_p50",    "online.admit_ns_p99",
    "online.depart_ns_p99",   "online.rebalance_ns",
    "online.migrations_per_kop", "online.reject_share",
    "online.norm_util",       "reconcile.residual_share",
    "trace.overhead_share"};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "rmts_perfbench: " << problem
            << "\nusage: rmts_perfbench --workload admit_wire|session_wire|library"
               " --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have[2] = end != value.c_str() && *end == '\0' && o.seconds >= 1.0 &&
                o.seconds <= 120.0;
    } else if (flag == "--trace") {
      o.trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("need --workload, --seed, --seconds (1..120) and --trace 0|1");
  }
  return o;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      const std::size_t first =
          colon == std::string::npos ? colon : line.find_first_not_of(" \t", colon + 1);
      if (first != std::string::npos) return line.substr(first);
    }
  }
  return "unknown";
}

std::string quoted(std::string_view text) {
  return '"' + rmts::json_escape(std::string(text)) + '"';
}

/// Build and host provenance plus the workload parameters, one JSON line
/// (the bench::JsonReport "environment" idiom).
void print_provenance(const perfbench::Options& o, const Outcome& out) {
  std::cout << "{\"provenance\": {\"compiler\": " << quoted(__VERSION__)
            << ", \"flags\": " << quoted(PERFBENCH_FLAGS)
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"tracing_compiled_in\": "
            << (rmts::trace::compiled_in() ? "true" : "false")
            << ", \"cpu\": " << quoted(cpu_model())
            << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"pinned_cpu\": " << out.pinned_cpu
            << ", \"workload\": " << quoted(o.workload) << ", \"seed\": " << o.seed
            << ", \"seconds\": " << rmts::server::json_number(o.seconds)
            << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"params\": {";
  for (std::size_t i = 0; i < out.params.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << quoted(out.params[i].first) << ": "
              << quoted(out.params[i].second);
  }
  std::cout << "}}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  // Nothing records until a traced slice switches recording on.
  rmts::trace::set_enabled(false);

  Outcome out;
  try {
    if (options.workload == "admit_wire") {
      out = perfbench::run_admit_wire(options);
    } else if (options.workload == "session_wire") {
      out = perfbench::run_session_wire(options);
    } else if (options.workload == "library") {
      out = perfbench::run_library(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "rmts_perfbench: " << error.what() << '\n';
    return 1;
  }

  // Order the metrics as listed; a missing or extra name is a bug here.
  const auto* names = options.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const auto* names_end = options.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::vector<Outcome::Metric> ordered;
  for (const auto* n = names; n != names_end; ++n) {
    const auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                                 [&](const Outcome::Metric& m) { return m.name == *n; });
    if (it == out.metrics.end()) {
      std::cerr << "rmts_perfbench: workload did not report " << *n << '\n';
      return 3;
    }
    ordered.push_back(*it);
  }
  if (ordered.size() != out.metrics.size()) {
    std::cerr << "rmts_perfbench: workload reported unlisted metrics\n";
    return 3;
  }

  for (const std::string& m : out.mismatches) std::cerr << "MISMATCH: " << m << '\n';
  print_provenance(options, out);
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << quoted(ordered[i].name)
              << ": {\"value\": " << rmts::server::json_number(ordered[i].value)
              << ", \"unit\": " << quoted(ordered[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return out.correct ? 0 : 1;
}
