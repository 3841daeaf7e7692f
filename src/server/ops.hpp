// The wire ops of rmts_serve, each defined once.
//
// A row of kOps is everything the service knows about one op: its wire
// name, the overload budget class it draws on (none for the control-plane
// ops), the trace stage that times its compute, and the router handler
// that writes its reply.  A row's index is the op's id and its Metrics
// slot; one more slot after the ops, kMalformedSlot, holds the lines that
// never named an op.
//
// Everything else reads this table: Router::handle dispatches through it,
// the event loop's peek_request() returns the row a line names, the
// overload controller samples a class over all of the class's rows, the
// stats/metrics endpoints label each slot with its row's name, and the
// load driver keys its per-op report by the id.  A new op is a new row.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>

#include "common/trace.hpp"
#include "server/overload.hpp"

namespace rmts::server {

class JsonValue;
class JsonWriter;
struct OpContext;  // server/router.hpp

/// Writes an op's reply members after the {"ok":true,"op":..,"id":..}
/// prologue.  A bad request throws; Router::handle turns that into an
/// ok:false reply.
using OpHandler = void (*)(const OpContext& context, JsonWriter& w,
                           const JsonValue& request);

// The handlers (router.cpp).
void handle_admit(const OpContext&, JsonWriter&, const JsonValue&);
void handle_admit_batch(const OpContext&, JsonWriter&, const JsonValue&);
void handle_analyze(const OpContext&, JsonWriter&, const JsonValue&);
void handle_robustness(const OpContext&, JsonWriter&, const JsonValue&);
void handle_simulate(const OpContext&, JsonWriter&, const JsonValue&);
void handle_session_open(const OpContext&, JsonWriter&, const JsonValue&);
void handle_session_admit(const OpContext&, JsonWriter&, const JsonValue&);
void handle_session_depart(const OpContext&, JsonWriter&, const JsonValue&);
void handle_session_rebalance(const OpContext&, JsonWriter&,
                              const JsonValue&);
void handle_session_stats(const OpContext&, JsonWriter&, const JsonValue&);
void handle_session_close(const OpContext&, JsonWriter&, const JsonValue&);
void handle_stats(const OpContext&, JsonWriter&, const JsonValue&);
void handle_metrics(const OpContext&, JsonWriter&, const JsonValue&);

struct OpSpec {
  std::string_view name;  ///< the request's "op" value
  /// The admission budget the op holds while queued or running; none for
  /// control-plane ops, which an operator needs most while the server is
  /// overloaded and which cost microseconds.
  std::optional<BudgetClass> budget;
  trace::Stage stage;  ///< times the handler
  OpHandler handler;
};

inline constexpr std::array kOps{
    OpSpec{"admit", BudgetClass::kAdmit, trace::Stage::kRouterAdmit,
           &handle_admit},
    // A batch is admission work: it shares the admit budget so a flood of
    // batches cannot starve single-probe clients of their own class.
    OpSpec{"admit_batch", BudgetClass::kAdmit, trace::Stage::kRouterAdmit,
           &handle_admit_batch},
    OpSpec{"analyze", BudgetClass::kAnalyze, trace::Stage::kRouterAnalyze,
           &handle_analyze},
    OpSpec{"robustness", BudgetClass::kRobustness,
           trace::Stage::kRouterRobustness, &handle_robustness},
    OpSpec{"simulate", BudgetClass::kSimulate, trace::Stage::kRouterSimulate,
           &handle_simulate},
    // The session ops share one budget: even session_stats takes the
    // per-session mutex, so it queues behind mutations anyway.
    OpSpec{"session_open", BudgetClass::kSession,
           trace::Stage::kRouterSession, &handle_session_open},
    OpSpec{"session_admit", BudgetClass::kSession,
           trace::Stage::kRouterSession, &handle_session_admit},
    OpSpec{"session_depart", BudgetClass::kSession,
           trace::Stage::kRouterSession, &handle_session_depart},
    OpSpec{"session_rebalance", BudgetClass::kSession,
           trace::Stage::kRouterSession, &handle_session_rebalance},
    OpSpec{"session_stats", BudgetClass::kSession,
           trace::Stage::kRouterSession, &handle_session_stats},
    OpSpec{"session_close", BudgetClass::kSession,
           trace::Stage::kRouterSession, &handle_session_close},
    OpSpec{"stats", std::nullopt, trace::Stage::kRouterStats, &handle_stats},
    OpSpec{"metrics", std::nullopt, trace::Stage::kRouterMetrics,
           &handle_metrics},
};

inline constexpr std::size_t kOpCount = kOps.size();
/// Metrics slot of every line that named no op: unparseable, no string
/// "op", an unknown op, or over the length cap.
inline constexpr std::size_t kMalformedSlot = kOpCount;
inline constexpr std::size_t kMetricsSlotCount = kOpCount + 1;

/// Id of the op called `name`; kMalformedSlot when there is none.
constexpr std::size_t op_id(std::string_view name) noexcept {
  for (std::size_t id = 0; id < kOpCount; ++id) {
    if (kOps[id].name == name) return id;
  }
  return kMalformedSlot;
}

/// The row named `name`, or nullptr.
constexpr const OpSpec* find_op(std::string_view name) noexcept {
  const std::size_t id = op_id(name);
  return id < kOpCount ? &kOps[id] : nullptr;
}

/// Metrics slot of a row from find_op(); kMalformedSlot for nullptr.
constexpr std::size_t slot_of(const OpSpec* op) noexcept {
  return op != nullptr ? static_cast<std::size_t>(op - kOps.data())
                       : kMalformedSlot;
}

/// Budget class of a row from find_op(); none for nullptr.
constexpr std::optional<BudgetClass> budget_of(const OpSpec* op) noexcept {
  return op != nullptr ? op->budget : std::nullopt;
}

/// A slot's `stats` key and `/metrics` endpoint label.
constexpr std::string_view slot_name(std::size_t slot) noexcept {
  return slot < kOpCount ? kOps[slot].name : "malformed";
}

/// The op whose body the raw `GET /metrics` scrape serves; the scrape is
/// counted in its slot.
inline constexpr std::size_t kMetricsOp = op_id("metrics");

static_assert(kMetricsOp < kOpCount);
static_assert(
    [] {
      for (std::size_t i = 0; i < kOpCount; ++i) {
        if (op_id(kOps[i].name) != i) return false;
      }
      return true;
    }(),
    "every op name must be unique");

}  // namespace rmts::server
