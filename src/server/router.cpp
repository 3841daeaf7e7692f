#include "server/router.hpp"

#include <array>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/robustness.hpp"
#include "bounds/burchard.hpp"
#include "bounds/harmonic.hpp"
#include "bounds/ll_bound.hpp"
#include "bounds/scaled_periods.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"
#include "partition/baselines.hpp"
#include "partition/edf_split.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "partition/spa.hpp"
#include "rta/rta.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "sim/simulator.hpp"

namespace rmts::server {

namespace {

/// Internal signal for "this request is malformed"; converted into an
/// ok:false reply by handle().  Distinct from rmts::Error so library
/// contract violations (which we also map to ok:false) keep their own
/// messages.
struct ProtocolError {
  std::string message;
};

[[noreturn]] void reject(std::string message) {
  throw ProtocolError{std::move(message)};
}

const JsonValue& require(const JsonValue& request, std::string_view key) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) reject("missing field '" + std::string(key) + "'");
  return *value;
}

std::int64_t require_int(const JsonValue& request, std::string_view key,
                         std::int64_t lo, std::int64_t hi) {
  const JsonValue& value = require(request, key);
  if (!value.is_int()) reject("field '" + std::string(key) + "' must be an integer");
  const std::int64_t parsed = value.as_int();
  if (parsed < lo || parsed > hi) {
    reject("field '" + std::string(key) + "' out of range [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return parsed;
}

std::int64_t optional_int(const JsonValue& request, std::string_view key,
                          std::int64_t fallback, std::int64_t lo,
                          std::int64_t hi) {
  if (request.find(key) == nullptr) return fallback;
  return require_int(request, key, lo, hi);
}

double optional_double(const JsonValue& request, std::string_view key,
                       double fallback, double lo, double hi) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) {
    reject("field '" + std::string(key) + "' must be a number");
  }
  const double parsed = value->as_double();
  if (!(parsed >= lo && parsed <= hi)) {
    reject("field '" + std::string(key) + "' out of range");
  }
  return parsed;
}

/// The view is into the request's document, valid while it is.
std::string_view optional_string(const JsonValue& request, std::string_view key,
                                 std::string_view fallback) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_string()) {
    reject("field '" + std::string(key) + "' must be a string");
  }
  return value->as_string();
}

TaskSet parse_tasks(const JsonValue& request, std::size_t max_tasks) {
  const JsonValue& tasks = require(request, "tasks");
  if (!tasks.is_array()) reject("field 'tasks' must be an array");
  if (tasks.items().empty()) reject("field 'tasks' must not be empty");
  if (tasks.items().size() > max_tasks) {
    reject("too many tasks (limit " + std::to_string(max_tasks) + ")");
  }
  // Ids follow document order, as in TaskSet::from_pairs.
  std::vector<Task> parsed;
  parsed.reserve(tasks.items().size());
  for (const JsonValue& entry : tasks.items()) {
    const JsonValue::Items pair = entry.items();
    if (pair.size() != 2 || !pair[0].is_int() || !pair[1].is_int()) {
      reject("each task must be a [wcet, period] pair of integers");
    }
    parsed.push_back(Task{pair[0].as_int(), pair[1].as_int(),
                          static_cast<TaskId>(parsed.size())});
  }
  // TaskSet validates 0 < C <= T and throws InvalidTaskError with the
  // offending values; handle() maps that to ok:false.
  return TaskSet(std::move(parsed));
}

/// The wire names of the bounds, in Catalog order.
constexpr std::array<std::string_view, 5> kBoundNames{"ll", "hc", "tbound",
                                                      "rbound", "burchard"};

/// Every bound and partitioner a request can name, built once.  They keep
/// no state between calls (evaluate() and partition() are const, and their
/// scratch is thread-local), so all workers share these instances instead
/// of building a bound and an algorithm per request.
struct Catalog {
  std::array<BoundPtr, kBoundNames.size()> bounds{
      std::make_shared<LiuLaylandBound>(), std::make_shared<HarmonicChainBound>(),
      std::make_shared<TBound>(), std::make_shared<RBound>(),
      std::make_shared<BurchardBound>()};
  /// RM-TS under each bound, parallel to `bounds`.
  std::array<Rmts, kBoundNames.size()> rmts{Rmts(bounds[0]), Rmts(bounds[1]),
                                            Rmts(bounds[2]), Rmts(bounds[3]),
                                            Rmts(bounds[4])};
  RmtsLight rmts_light;
  Spa1 spa1;
  Spa2 spa2;
  PartitionedRm prm_ff{FitPolicy::kFirstFit, TaskOrder::kDecreasingUtilization,
                       Admission::kExactRta};
  EdfSplit edf_ts;
};

const Catalog& catalog() {
  static const Catalog instance;
  return instance;
}

/// Position of bound `name` in the catalog; rejects an unknown name.
std::size_t bound_index(std::string_view name) {
  for (std::size_t i = 0; i < kBoundNames.size(); ++i) {
    if (kBoundNames[i] == name) return i;
  }
  reject("unknown bound '" + std::string(name) + "'");
}

/// `bound` is a bound_index(); only RM-TS consults it.
const Partitioner& make_algorithm(std::string_view name, std::size_t bound) {
  const Catalog& c = catalog();
  if (name == "rmts") return c.rmts[bound];
  if (name == "rmts-light") return c.rmts_light;
  if (name == "spa1") return c.spa1;
  if (name == "spa2") return c.spa2;
  if (name == "prm-ff") return c.prm_ff;
  if (name == "edf-ts") return c.edf_ts;
  reject("unknown algorithm '" + std::string(name) + "'");
}

/// Everything the partition-based endpoints share: task set, M, algorithm
/// and its dispatch policy.
struct PartitionRequest {
  TaskSet tasks;
  std::size_t processors{0};
  std::string_view algorithm_key;  ///< into the request's document
  const Partitioner* algorithm{nullptr};  ///< a catalog() instance
  DispatchPolicy policy{DispatchPolicy::kFixedPriority};
};

PartitionRequest parse_partition_request(const JsonValue& request,
                                         const RouterConfig& config) {
  PartitionRequest out;
  out.tasks = parse_tasks(request, config.max_tasks);
  out.processors = static_cast<std::size_t>(require_int(
      request, "m", 1, static_cast<std::int64_t>(config.max_processors)));
  out.algorithm_key = optional_string(request, "alg", "rmts");
  const std::string_view bound = optional_string(request, "bound", "hc");
  out.algorithm = &make_algorithm(out.algorithm_key, bound_index(bound));
  out.policy = out.algorithm_key == "edf-ts"
                   ? DispatchPolicy::kEarliestDeadlineFirst
                   : DispatchPolicy::kFixedPriority;
  return out;
}

/// Opens the uniform reply prologue {"ok":true,"op":...,"id":...} and
/// leaves the object open for endpoint-specific fields.
void begin_reply(JsonWriter& w, std::string_view op, const JsonValue* id) {
  w.begin_object();
  w.member("ok", true);
  w.member("op", op);
  if (id != nullptr) w.member("id", *id);
}

void write_task_set_summary(JsonWriter& w, const TaskSet& tasks,
                            std::size_t processors) {
  w.member("n", tasks.size());
  w.member("utilization", tasks.total_utilization());
  w.member("normalized_utilization", tasks.normalized_utilization(processors));
}

void write_assignment_summary(JsonWriter& w, const Assignment& assignment) {
  w.member("accepted", assignment.success);
  w.member("splits", assignment.split_task_count());
  w.member("subtasks", assignment.subtask_count());
  w.member("assigned_utilization", assignment.assigned_utilization());
  if (!assignment.unassigned.empty()) {
    w.key("unassigned");
    w.begin_array();
    for (const TaskId id : assignment.unassigned) {
      w.value(static_cast<std::uint64_t>(id));
    }
    w.end_array();
  }
}





ContainmentPolicy parse_containment(std::string_view name) {
  if (name == "none") return ContainmentPolicy::kNone;
  if (name == "budget") return ContainmentPolicy::kBudgetEnforcement;
  if (name == "demote") return ContainmentPolicy::kPriorityDemotion;
  reject("unknown containment policy '" + std::string(name) + "'");
}

FaultModel parse_faults(const JsonValue& request) {
  FaultModel faults;
  const JsonValue* spec = request.find("faults");
  if (spec == nullptr) return faults;
  if (!spec->is_object()) reject("field 'faults' must be an object");
  faults.overrun_factor = optional_double(*spec, "factor", 1.0, 0.0, 1e6);
  faults.overrun_ticks = optional_int(*spec, "ticks", 0, 0, 1'000'000'000);
  faults.overrun_probability = optional_double(*spec, "prob", 1.0, 0.0, 1.0);
  faults.release_jitter =
      optional_int(*spec, "jitter", 0, 0, 1'000'000'000'000);
  faults.seed = static_cast<std::uint64_t>(optional_int(
      *spec, "seed", 0, 0, std::numeric_limits<std::int64_t>::max()));
  faults.containment =
      parse_containment(optional_string(*spec, "containment", "none"));
  const std::int64_t fail_proc = optional_int(*spec, "fail_proc", -1, -1,
                                              1'000'000);
  if (fail_proc >= 0) {
    faults.failed_processor = static_cast<std::size_t>(fail_proc);
    faults.failure_time =
        optional_int(*spec, "fail_at", 0, 0, kTimeInfinity / 2);
  }
  return faults;
}


online::SessionConfig parse_session_config(const JsonValue& request,
                                           const RouterConfig& config) {
  online::SessionConfig session;
  session.processors = static_cast<std::size_t>(
      require_int(request, "m", 1,
                  static_cast<std::int64_t>(config.max_session_processors)));
  const JsonValue* split = request.find("split");
  if (split != nullptr) {
    if (!split->is_bool()) reject("field 'split' must be a boolean");
    session.allow_splitting = split->as_bool();
  }
  session.split_granularity =
      optional_int(request, "granularity", 1, 1, 1'000'000'000);
  session.rebalance_every = static_cast<std::size_t>(
      optional_int(request, "rebalance_every", 16, 0, 1'000'000));
  session.max_migrations_per_round = static_cast<std::size_t>(
      optional_int(request, "max_migrations", 4, 0, 1'000'000));
  session.hysteresis = optional_double(request, "hysteresis", 0.10, 0.0, 1.0);
  session.max_resident = static_cast<std::size_t>(optional_int(
      request, "max_resident",
      static_cast<std::int64_t>(config.max_session_residents), 1,
      static_cast<std::int64_t>(config.max_session_residents)));
  return session;
}


/// Locks the session named by the request's required `session` field;
/// rejects when the id is unknown (or already closed).
online::SessionRegistry::Handle lock_session(
    const JsonValue& request, const online::SessionRegistry& sessions) {
  const std::int64_t id = require_int(
      request, "session", 1, std::numeric_limits<std::int64_t>::max());
  online::SessionRegistry::Handle handle =
      sessions.lock(static_cast<online::SessionId>(id));
  if (!handle) reject("unknown session " + std::to_string(id));
  return handle;
}




void write_session_stats(JsonWriter& w, const online::SessionStats& stats) {
  w.member("processors", stats.processors);
  w.member("resident_tasks", stats.resident_tasks);
  w.member("resident_subtasks", stats.resident_subtasks);
  w.member("split_residents", stats.split_residents);
  w.member("admits", stats.admits_total);
  w.member("rejects", stats.rejects_total);
  w.member("departs", stats.departs_total);
  w.member("migrations", stats.migrations_total);
  w.member("rebalance_rounds", stats.rebalance_rounds_total);
  w.member("utilization", stats.utilization);
  w.member("normalized_utilization", stats.normalized_utilization);
  w.member("min_processor_utilization", stats.min_processor_utilization);
  w.member("max_processor_utilization", stats.max_processor_utilization);
}



void write_endpoint_stats(JsonWriter& w, const Metrics& metrics,
                          std::size_t slot) {
  const Metrics::EndpointSnapshot snap = metrics.snapshot(slot);
  w.key(slot_name(slot));
  w.begin_object();
  w.member("requests", snap.requests);
  w.member("errors", snap.errors);
  w.member("p50_us", snap.p50_micros);
  w.member("p90_us", snap.p90_micros);
  w.member("p99_us", snap.p99_micros);
  w.member("mean_us", snap.mean_micros);
  w.member("max_us", snap.max_micros);
  w.end_object();
}

/// Live overload-control state: the adaptive flag, tick count and every
/// budgeted class's budget / in-flight / shed / expired / retry hint.
void write_overload_stats(JsonWriter& w, const RuntimeStats& runtime) {
  w.key("overload");
  w.begin_object();
  w.member("adaptive", runtime.adaptive);
  w.member("controller_ticks", runtime.controller_ticks);
  w.member("requests_expired", runtime.requests_expired);
  w.key("classes");
  w.begin_object();
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    const ClassRuntimeStats& cls = runtime.classes[c];
    w.key(budget_class_name(static_cast<BudgetClass>(c)));
    w.begin_object();
    w.member("budget", static_cast<std::uint64_t>(cls.budget));
    w.member("in_flight", cls.in_flight);
    w.member("shed", cls.shed);
    w.member("expired", cls.expired);
    w.member("retry_after_ms", cls.retry_after_ms);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

/// Cross-layer stage timers and counters, appended to the stats reply
/// when the tracing layer is compiled in (common/trace.hpp).
void write_trace_stats(JsonWriter& w) {
  w.member("tracing", trace::compiled_in() && trace::enabled());
  if (!trace::compiled_in()) return;
  const trace::Snapshot snap = trace::snapshot();
  w.key("stages");
  w.begin_object();
  for (std::size_t s = 0; s < trace::kStageCount; ++s) {
    const trace::StageSnapshot& stage = snap.stages[s];
    if (stage.count == 0) continue;
    w.key(trace::stage_name(static_cast<trace::Stage>(s)));
    w.begin_object();
    w.member("count", stage.count);
    w.member("total_us", static_cast<double>(stage.total_ns) / 1000.0);
    w.member("mean_us", stage.mean_ns() / 1000.0);
    w.member("p50_us", stage.latency_ns.quantile(0.50) / 1000.0);
    w.member("p99_us", stage.latency_ns.quantile(0.99) / 1000.0);
    w.member("max_us", static_cast<double>(stage.max_ns) / 1000.0);
    w.end_object();
  }
  w.end_object();
  w.key("counters");
  w.begin_object();
  for (std::size_t c = 0; c < trace::kCounterCount; ++c) {
    w.member(trace::counter_name(static_cast<trace::Counter>(c)),
             snap.counters[c]);
  }
  w.end_object();
}

// ------------------------------------------------- text exposition ------

/// Prometheus floats: integral values print bare, others via json_number
/// (shortest round-trip decimal; never inf/nan here).
std::string prom_number(double value) {
  if (value == static_cast<double>(static_cast<std::int64_t>(value))) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  return json_number(value);
}

/// One series per metrics slot, labelled endpoint="<op>" (or
/// "malformed").
void expose_endpoints(std::ostringstream& out, const Metrics& metrics) {
  out << "# TYPE rmts_requests_total counter\n";
  for (std::size_t slot = 0; slot < kMetricsSlotCount; ++slot) {
    out << "rmts_requests_total{endpoint=\"" << slot_name(slot) << "\"} "
        << metrics.snapshot(slot).requests << '\n';
  }
  out << "# TYPE rmts_request_errors_total counter\n";
  for (std::size_t slot = 0; slot < kMetricsSlotCount; ++slot) {
    out << "rmts_request_errors_total{endpoint=\"" << slot_name(slot)
        << "\"} " << metrics.snapshot(slot).errors << '\n';
  }
  // Sparse HDR histogram: only non-empty buckets are emitted (cumulative,
  // as Prometheus `le` semantics require), plus the mandatory +Inf.
  out << "# TYPE rmts_request_latency_us histogram\n";
  for (std::size_t slot = 0; slot < kMetricsSlotCount; ++slot) {
    const Metrics::EndpointSnapshot snap = metrics.snapshot(slot);
    if (snap.requests == 0) continue;
    const std::string_view label = slot_name(slot);
    for (const Histogram::Bucket& bucket : snap.latency_us.nonzero_buckets()) {
      out << "rmts_request_latency_us_bucket{endpoint=\"" << label
          << "\",le=\"" << bucket.upper << "\"} " << bucket.cumulative << '\n';
    }
    out << "rmts_request_latency_us_bucket{endpoint=\"" << label
        << "\",le=\"+Inf\"} " << snap.latency_us.count() << '\n';
    out << "rmts_request_latency_us_sum{endpoint=\"" << label << "\"} "
        << snap.latency_us.sum() << '\n';
    out << "rmts_request_latency_us_count{endpoint=\"" << label << "\"} "
        << snap.latency_us.count() << '\n';
  }
}

void expose_runtime(std::ostringstream& out, const RuntimeStats& runtime) {
  out << "# TYPE rmts_uptime_seconds gauge\n"
      << "rmts_uptime_seconds " << prom_number(runtime.uptime_seconds) << '\n'
      << "# TYPE rmts_workers gauge\n"
      << "rmts_workers " << runtime.workers << '\n'
      << "# TYPE rmts_connections_accepted_total counter\n"
      << "rmts_connections_accepted_total " << runtime.connections_accepted
      << '\n'
      << "# TYPE rmts_connections_active gauge\n"
      << "rmts_connections_active " << runtime.connections_active << '\n'
      << "# TYPE rmts_requests_shed_total counter\n"
      << "rmts_requests_shed_total " << runtime.requests_shed << '\n'
      << "# TYPE rmts_requests_expired_total counter\n"
      << "rmts_requests_expired_total " << runtime.requests_expired << '\n'
      << "# TYPE rmts_batches_dispatched_total counter\n"
      << "rmts_batches_dispatched_total " << runtime.batches_dispatched << '\n'
      << "# TYPE rmts_requests_in_flight gauge\n"
      << "rmts_requests_in_flight " << runtime.in_flight << '\n';

  // Overload-control surface: live budgets and per-class counters, so a
  // dashboard can watch the controller breathe in production.
  out << "# TYPE rmts_overload_adaptive gauge\n"
      << "rmts_overload_adaptive " << (runtime.adaptive ? 1 : 0) << '\n'
      << "# TYPE rmts_overload_controller_ticks_total counter\n"
      << "rmts_overload_controller_ticks_total " << runtime.controller_ticks
      << '\n';
  // One series per class for each member of ClassRuntimeStats.
  const auto per_class = [&](std::string_view series, std::string_view type,
                             auto ClassRuntimeStats::*member) {
    out << "# TYPE " << series << ' ' << type << '\n';
    for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
      out << series << "{class=\""
          << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
          << runtime.classes[c].*member << '\n';
    }
  };
  per_class("rmts_class_budget", "gauge", &ClassRuntimeStats::budget);
  per_class("rmts_class_in_flight", "gauge", &ClassRuntimeStats::in_flight);
  per_class("rmts_class_shed_total", "counter", &ClassRuntimeStats::shed);
  per_class("rmts_class_expired_total", "counter",
            &ClassRuntimeStats::expired);
  per_class("rmts_class_retry_after_ms", "gauge",
            &ClassRuntimeStats::retry_after_ms);
}

/// Online-session gauges: per-session resident tasks / utilization /
/// migrations (labelled by session id) plus aggregate op totals.  The
/// aggregates come from the registry's RegistryTotals, which fold in
/// closed sessions, so the `_total` series are monotone; the per-session
/// labelled series simply disappear when their session closes.
void expose_sessions(
    std::ostringstream& out,
    const std::vector<std::pair<online::SessionId, online::SessionStats>>&
        rows,
    const online::RegistryTotals& totals) {
  out << "# TYPE rmts_sessions_open gauge\n"
      << "rmts_sessions_open " << rows.size() << '\n';
  out << "# TYPE rmts_session_resident_tasks gauge\n";
  for (const auto& [sid, stats] : rows) {
    out << "rmts_session_resident_tasks{session=\"" << sid << "\"} "
        << stats.resident_tasks << '\n';
  }
  out << "# TYPE rmts_session_utilization gauge\n";
  for (const auto& [sid, stats] : rows) {
    out << "rmts_session_utilization{session=\"" << sid << "\"} "
        << prom_number(stats.utilization) << '\n';
  }
  out << "# TYPE rmts_session_migrations_total counter\n";
  for (const auto& [sid, stats] : rows) {
    out << "rmts_session_migrations_total{session=\"" << sid << "\"} "
        << stats.migrations_total << '\n';
  }
  out << "# TYPE rmts_session_admits_total counter\n"
      << "rmts_session_admits_total " << totals.admits_total << '\n'
      << "# TYPE rmts_session_rejects_total counter\n"
      << "rmts_session_rejects_total " << totals.rejects_total << '\n'
      << "# TYPE rmts_session_departs_total counter\n"
      << "rmts_session_departs_total " << totals.departs_total << '\n';
}

void expose_trace(std::ostringstream& out) {
  if (!trace::compiled_in()) return;
  const trace::Snapshot snap = trace::snapshot();
  out << "# TYPE rmts_trace_events_total counter\n";
  for (std::size_t c = 0; c < trace::kCounterCount; ++c) {
    out << "rmts_trace_events_total{counter=\""
        << trace::counter_name(static_cast<trace::Counter>(c)) << "\"} "
        << snap.counters[c] << '\n';
  }
  const std::uint64_t posted =
      snap.counter(trace::Counter::kPoolTasksPosted);
  const std::uint64_t started =
      snap.counter(trace::Counter::kPoolTasksStarted);
  out << "# TYPE rmts_pool_queue_depth gauge\n"
      << "rmts_pool_queue_depth " << (posted > started ? posted - started : 0)
      << '\n';
  // Per-stage latency as a summary (count/sum plus key quantiles); the
  // full per-stage HDR buckets would multiply the payload ~16x for little
  // scrape value.
  out << "# TYPE rmts_stage_latency_ns summary\n";
  for (std::size_t s = 0; s < trace::kStageCount; ++s) {
    const trace::StageSnapshot& stage = snap.stages[s];
    if (stage.count == 0) continue;
    const std::string_view name =
        trace::stage_name(static_cast<trace::Stage>(s));
    for (const double q : {0.5, 0.9, 0.99}) {
      out << "rmts_stage_latency_ns{stage=\"" << name << "\",quantile=\""
          << prom_number(q) << "\"} "
          << prom_number(stage.latency_ns.quantile(q)) << '\n';
    }
    out << "rmts_stage_latency_ns_sum{stage=\"" << name << "\"} "
        << stage.total_ns << '\n';
    out << "rmts_stage_latency_ns_count{stage=\"" << name << "\"} "
        << stage.count << '\n';
  }
}

/// The whole observability surface as one text exposition.
std::string render_exposition(const OpContext& context) {
  std::ostringstream out;
  expose_endpoints(out, context.metrics);
  if (context.runtime) expose_runtime(out, context.runtime());
  expose_sessions(out, context.sessions.all_stats(), context.sessions.totals());
  expose_trace(out);
  return out.str();
}

}  // namespace

// ---------------------------------------------------------- op handlers --
//
// One per row of kOps (server/ops.hpp), in table order.

void handle_admit(const OpContext& context, JsonWriter& w,
                  const JsonValue& request) {
  const PartitionRequest p = parse_partition_request(request, context.config);
  // RM-TS reports the bound its partition() evaluated, not a second one.
  const auto* rmts = dynamic_cast<const Rmts*>(p.algorithm);
  double guaranteed = 0.0;
  const Assignment assignment =
      rmts != nullptr ? rmts->partition(p.tasks, p.processors, guaranteed)
                      : p.algorithm->partition(p.tasks, p.processors);
  w.member("algorithm", p.algorithm->name());
  write_task_set_summary(w, p.tasks, p.processors);
  if (rmts != nullptr) w.member("guaranteed_bound", guaranteed);
  write_assignment_summary(w, assignment);
}

/// Batched admission: one request carrying many task sets, amortizing
/// parse/dispatch/reply framing over the whole probe group (the client
///-side analogue of the SoA kernel's rta_batch_fits, which the admission
/// path under each item's partition() runs on).  Top-level m/alg/bound
/// are defaults each item may override; a bad item yields a per-item
/// ok:false entry without failing its siblings.
void handle_admit_batch(const OpContext& context, JsonWriter& w,
                        const JsonValue& request) {
  const RouterConfig& config = context.config;
  const JsonValue& items = require(request, "items");
  if (!items.is_array()) reject("field 'items' must be an array");
  if (items.items().empty()) reject("field 'items' must not be empty");
  if (items.items().size() > config.max_batch_items) {
    reject("too many items (limit " + std::to_string(config.max_batch_items) +
           ")");
  }
  const std::int64_t default_m =
      optional_int(request, "m", 0, 1,
                   static_cast<std::int64_t>(config.max_processors));
  const std::string_view default_alg = optional_string(request, "alg", "rmts");
  const std::string_view default_bound =
      optional_string(request, "bound", "hc");

  std::size_t accepted = 0;
  w.key("items");
  w.begin_array();
  for (const JsonValue& item : items.items()) {
    w.begin_object();
    try {
      if (!item.is_object()) reject("each item must be an object");
      const std::int64_t m =
          optional_int(item, "m", default_m, 1,
                       static_cast<std::int64_t>(config.max_processors));
      if (m == 0) reject("missing field 'm' (item or request level)");
      const TaskSet tasks = parse_tasks(item, config.max_tasks);
      const std::string_view alg = optional_string(item, "alg", default_alg);
      const std::string_view bound =
          optional_string(item, "bound", default_bound);
      const Partitioner& algorithm = make_algorithm(alg, bound_index(bound));
      const auto processors = static_cast<std::size_t>(m);
      const Assignment assignment = algorithm.partition(tasks, processors);
      w.member("ok", true);
      w.member("algorithm", algorithm.name());
      write_task_set_summary(w, tasks, processors);
      write_assignment_summary(w, assignment);
      if (assignment.success) ++accepted;
    } catch (const ProtocolError& error) {
      w.member("ok", false);
      w.member("error", error.message);
    } catch (const Error& error) {
      w.member("ok", false);
      w.member("error", std::string_view(error.what()));
    }
    w.end_object();
  }
  w.end_array();
  w.member("accepted_count", accepted);
}

void handle_analyze(const OpContext& context, JsonWriter& w,
                    const JsonValue& request) {
  const PartitionRequest p = parse_partition_request(request, context.config);
  write_task_set_summary(w, p.tasks, p.processors);
  w.member("harmonic", p.tasks.is_harmonic());
  w.member("max_task_utilization", p.tasks.max_utilization());

  // Per-bound utilization thresholds, all evaluated on the ORIGINAL set
  // (re-evaluating on partitions would be unsound -- bounds/bound.hpp).
  w.key("bounds");
  w.begin_object();
  for (const BoundPtr& bound : catalog().bounds) {
    w.member(bound->name(), bound->evaluate(p.tasks));
  }
  w.end_object();
  w.member("light_threshold", light_task_threshold(p.tasks.size()));
  w.member("rmts_cap", rmts_bound_cap(p.tasks.size()));
  w.member("light",
           p.tasks.all_lighter_than(light_task_threshold(p.tasks.size())));

  // RTA detail of the requested algorithm's partition: every subtask's
  // measured response time against its synthetic deadline.
  const Assignment assignment = p.algorithm->partition(p.tasks, p.processors);
  w.key("rta");
  w.begin_object();
  w.member("algorithm", p.algorithm->name());
  write_assignment_summary(w, assignment);
  if (assignment.success && p.policy == DispatchPolicy::kFixedPriority) {
    w.key("processors");
    w.begin_array();
    for (const ProcessorAssignment& proc : assignment.processors) {
      w.begin_object();
      w.member("utilization", proc.utilization());
      const ProcessorRta rta = analyze_processor(proc.subtasks);
      w.key("subtasks");
      w.begin_array();
      for (std::size_t s = 0; s < proc.subtasks.size(); ++s) {
        const Subtask& subtask = proc.subtasks[s];
        w.begin_object();
        w.member("task", static_cast<std::uint64_t>(subtask.task_id));
        w.member("part", static_cast<std::int64_t>(subtask.part));
        w.member("wcet", subtask.wcet);
        w.member("period", subtask.period);
        w.member("deadline", subtask.deadline);
        w.member("response",
                 s < rta.response.size() ? rta.response[s] : Time{0});
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void handle_robustness(const OpContext& context, JsonWriter& w,
                       const JsonValue& request) {
  const RouterConfig& config = context.config;
  const PartitionRequest p = parse_partition_request(request, config);
  RobustnessConfig robustness;
  robustness.horizon_cap = config.sim_horizon_cap;
  robustness.policy = p.policy;
  robustness.fault_seed = static_cast<std::uint64_t>(optional_int(
      request, "fault_seed", 1, 1, std::numeric_limits<std::int64_t>::max()));
  robustness.max_overrun_factor = optional_double(
      request, "max_factor", 4.0, 1.0, config.max_overrun_factor);
  robustness.max_release_jitter = optional_int(
      request, "max_jitter", 0, 0, std::numeric_limits<std::int64_t>::max() / 2);

  const Assignment assignment = p.algorithm->partition(p.tasks, p.processors);
  w.member("algorithm", p.algorithm->name());
  write_task_set_summary(w, p.tasks, p.processors);
  w.member("accepted", assignment.success);
  if (!assignment.success) return;

  const RobustnessReport report =
      analyze_robustness(p.tasks, assignment, robustness);
  w.member("simulated_overrun_margin", report.simulated_overrun_margin);
  w.member("simulated_jitter_margin", report.simulated_jitter_margin);
  w.member("analytic_supported", report.analytic_supported);
  if (report.analytic_supported) {
    w.member("analytic_overrun_margin", report.analytic_overrun_margin);
    w.member("analytic_jitter_margin", report.analytic_jitter_margin);
  }
}

void handle_simulate(const OpContext& context, JsonWriter& w,
                     const JsonValue& request) {
  const RouterConfig& config = context.config;
  const PartitionRequest p = parse_partition_request(request, config);
  SimConfig sim;
  sim.policy = p.policy;
  sim.faults = parse_faults(request);
  sim.stop_at_first_miss = false;
  const Time cap = optional_int(request, "horizon_cap", config.sim_horizon_cap,
                                1, config.sim_horizon_cap);
  sim.horizon = recommended_horizon(p.tasks, cap);

  const Assignment assignment = p.algorithm->partition(p.tasks, p.processors);
  w.member("algorithm", p.algorithm->name());
  write_task_set_summary(w, p.tasks, p.processors);
  w.member("accepted", assignment.success);
  if (!assignment.success) return;

  // One workspace per worker thread: repeated simulate requests on a
  // connection reuse it allocation-free.
  thread_local SimWorkspace workspace;
  const SimResult& run = simulate(p.tasks, assignment, sim, workspace);
  w.member("schedulable", run.schedulable);
  w.member("simulated_until", run.simulated_until);
  w.member("events", run.events);
  w.member("jobs_released", run.jobs_released);
  w.member("jobs_completed", run.jobs_completed);
  w.member("preemptions", run.preemptions);
  w.member("migrations", run.migrations);
  w.member("misses", run.misses.size());
  if (!run.misses.empty()) {
    constexpr std::size_t kMaxEchoedMisses = 8;
    w.key("first_misses");
    w.begin_array();
    for (std::size_t i = 0; i < run.misses.size() && i < kMaxEchoedMisses; ++i) {
      w.begin_object();
      w.member("task", static_cast<std::uint64_t>(run.misses[i].task));
      w.member("release", run.misses[i].release);
      w.member("deadline", run.misses[i].deadline);
      w.end_object();
    }
    w.end_array();
  }
  if (sim.faults.active()) {
    w.member("degraded", run.jobs_degraded);
    w.member("aborted", run.jobs_aborted);
    w.member("demoted", run.jobs_demoted);
    w.member("orphaned", run.subtasks_orphaned);
  }
}

// ------------------------------------------------- online sessions ------
//
// The session_* ops expose src/online/ over the wire: a session_open
// creates a long-lived PartitionSession in the router's registry; admit /
// depart / rebalance mutate it under its per-session mutex.  Rejections
// ("no placement passes exact RTA", unknown ticket) are normal ok:true
// replies, mirroring the batch admit's accepted:false philosophy; only
// unparseable requests and unknown session ids are errors.

void handle_session_open(const OpContext& context, JsonWriter& w,
                         const JsonValue& request) {
  const RouterConfig& config = context.config;
  const online::SessionConfig session = parse_session_config(request, config);
  const online::SessionId id = context.sessions.open(session);
  if (id == 0) {
    reject("too many open sessions (limit " +
           std::to_string(config.max_sessions) + ")");
  }
  w.member("session", id);
  w.member("processors", session.processors);
  w.member("max_resident", session.max_resident);
}

void handle_session_admit(const OpContext& context, JsonWriter& w,
                          const JsonValue& request) {
  const std::int64_t wcet =
      require_int(request, "wcet", 1, online::PartitionSession::kMaxPeriod);
  const std::int64_t period =
      require_int(request, "period", 1, online::PartitionSession::kMaxPeriod);
  const online::SessionRegistry::Handle handle =
      lock_session(request, context.sessions);
  const online::AdmitResult result = handle.session().admit(wcet, period);
  w.member("accepted", result.admitted);
  if (result.admitted) {
    w.member("ticket", result.ticket);
    w.member("parts", result.parts);
  } else {
    w.member("reason", result.reason);
  }
}

void handle_session_depart(const OpContext& context, JsonWriter& w,
                           const JsonValue& request) {
  const std::int64_t ticket = require_int(
      request, "ticket", 1, std::numeric_limits<std::int64_t>::max());
  const online::SessionRegistry::Handle handle =
      lock_session(request, context.sessions);
  const bool departed =
      handle.session().depart(static_cast<online::Ticket>(ticket));
  w.member("departed", departed);
}

void handle_session_rebalance(const OpContext& context, JsonWriter& w,
                              const JsonValue& request) {
  const online::SessionRegistry::Handle handle =
      lock_session(request, context.sessions);
  w.member("migrations", handle.session().rebalance());
}

void handle_session_stats(const OpContext& context, JsonWriter& w,
                          const JsonValue& request) {
  const online::SessionRegistry::Handle handle =
      lock_session(request, context.sessions);
  write_session_stats(w, handle.session().stats());
}

void handle_session_close(const OpContext& context, JsonWriter& w,
                          const JsonValue& request) {
  const std::int64_t id = require_int(
      request, "session", 1, std::numeric_limits<std::int64_t>::max());
  w.member("closed",
           context.sessions.close(static_cast<online::SessionId>(id)));
}

void handle_stats(const OpContext& context, JsonWriter& w,
                  const JsonValue& /*request*/) {
  if (context.runtime) {
    const RuntimeStats runtime = context.runtime();
    w.member("uptime_seconds", runtime.uptime_seconds);
    w.member("workers", runtime.workers);
    w.member("connections_accepted", runtime.connections_accepted);
    w.member("connections_active", runtime.connections_active);
    w.member("requests_shed", runtime.requests_shed);
    w.member("batches_dispatched", runtime.batches_dispatched);
    w.member("in_flight", runtime.in_flight);
    write_overload_stats(w, runtime);
  }
  // Online sessions: one aggregate block (lifetime counters fold in
  // closed sessions; resident_tasks is a live gauge) plus a per-session
  // table of each live session's full stats.
  const auto rows = context.sessions.all_stats();
  const online::RegistryTotals totals = context.sessions.totals();
  w.key("sessions");
  w.begin_object();
  w.member("open", rows.size());
  w.member("resident_tasks", totals.resident_tasks);
  w.member("admits", totals.admits_total);
  w.member("rejects", totals.rejects_total);
  w.member("departs", totals.departs_total);
  w.member("migrations", totals.migrations_total);
  w.key("per_session");
  w.begin_array();
  for (const auto& [sid, stats] : rows) {
    w.begin_object();
    w.member("session", sid);
    write_session_stats(w, stats);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.member("requests_total", context.metrics.total_requests());
  w.key("endpoints");
  w.begin_object();
  for (std::size_t slot = 0; slot < kMetricsSlotCount; ++slot) {
    write_endpoint_stats(w, context.metrics, slot);
  }
  w.end_object();
  write_trace_stats(w);
}

void handle_metrics(const OpContext& context, JsonWriter& w,
                    const JsonValue& /*request*/) {
  w.member("content_type", "text/plain; version=0.0.4");
  w.member("text", render_exposition(context));
}

Router::Router(RouterConfig config, const Metrics& metrics,
               std::function<RuntimeStats()> runtime)
    : config_(config),
      metrics_(metrics),
      runtime_(std::move(runtime)),
      sessions_(online::RegistryConfig{config.max_sessions}) {}

HandleOutcome Router::handle(std::string_view line) const {
  // One document per thread: parsing into it again reuses its buffers,
  // so a steady-state parse allocates nothing.  A line over 64 KiB gets a
  // document of its own, freed on return, so no worker keeps the buffers
  // of a hostile 1 MiB line.
  thread_local JsonValue reused;
  JsonValue one_off;
  JsonValue& request = line.size() <= 64 * 1024 ? reused : one_off;
  std::string parse_error;
  if (!json_parse(line, request, parse_error)) {
    return {error_reply("parse: " + parse_error), kMalformedSlot, true};
  }
  if (!request.is_object()) {
    return {error_reply("request must be a JSON object"), kMalformedSlot,
            true};
  }
  const JsonValue* op_field = request.find("op");
  if (op_field == nullptr || !op_field->is_string()) {
    return {error_reply("missing string field 'op'"), kMalformedSlot, true};
  }
  const std::string_view op = op_field->as_string();
  const std::size_t slot = op_id(op);
  if (slot == kMalformedSlot) {
    return {error_reply("unknown op '" + std::string(op) + "'"),
            kMalformedSlot, true};
  }
  const OpSpec& spec = kOps[slot];
  const JsonValue* id = request.find("id");

  const auto fail = [&](const std::string& message) {
    JsonWriter w;
    w.begin_object();
    w.member("ok", false);
    w.member("op", op);
    if (id != nullptr) w.member("id", *id);
    w.member("error", message);
    w.end_object();
    return HandleOutcome{w.take(), slot, true};
  };

  try {
    const trace::Span span(spec.stage);
    JsonWriter w;
    begin_reply(w, op, id);
    spec.handler(context(), w, request);
    w.end_object();
    return {w.take(), slot, false};
  } catch (const ProtocolError& error) {
    return fail(error.message);
  } catch (const Error& error) {
    // Library contract violations (invalid task parameters, malformed
    // fault models) -- expected for hostile inputs, reported verbatim.
    return fail(error.what());
  }
}

std::string Router::metrics_exposition() const {
  return render_exposition(context());
}

HandleOutcome Router::oversized_line() const {
  return {error_reply("line too long"), kMalformedSlot, true};
}

}  // namespace rmts::server
