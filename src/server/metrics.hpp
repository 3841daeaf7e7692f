// Per-op service metrics: request/error counters and a concurrent
// log-linear HDR latency histogram (common/histogram.hpp), surfaced by
// the `stats` endpoint (interpolated quantiles) and the `metrics`
// endpoint (Prometheus-style exposition).
//
// record() is called from pool workers on every handled request; all
// counters are relaxed atomics (stats is an observability endpoint, not a
// synchronization point -- a snapshot may be mid-update by a few counts).
// The histogram's relative bucket width is 2^-5 ~ 3.1%, so reported
// percentiles are true interpolated quantiles rather than the old
// power-of-two bucket edges, and max_micros is exact (CAS max loop inside
// AtomicHistogram -- a relaxed store could lose the true max under
// contention).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "common/histogram.hpp"
#include "server/ops.hpp"

namespace rmts::server {

class Metrics {
 public:
  /// Records one handled request in `slot` (an op id, or kMalformedSlot):
  /// outcome and end-to-end latency (queue wait + compute) in
  /// microseconds.  Thread-safe, O(1).
  void record(std::size_t slot, bool error, std::uint64_t micros) noexcept;

  struct EndpointSnapshot {
    std::uint64_t requests{0};
    std::uint64_t errors{0};
    std::uint64_t max_micros{0};
    /// Interpolated HDR quantiles (error <= latency_us.precision());
    /// 0 when no request was recorded.
    double p50_micros{0.0};
    double p90_micros{0.0};
    double p99_micros{0.0};
    double mean_micros{0.0};
    /// The full merged histogram, for exposition and custom quantiles.
    Histogram latency_us{AtomicHistogram::kSubBits};
  };

  [[nodiscard]] EndpointSnapshot snapshot(std::size_t slot) const;

  /// Total requests over all slots.
  [[nodiscard]] std::uint64_t total_requests() const noexcept;

 private:
  struct PerEndpoint {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> errors{0};
    AtomicHistogram latency_us;
  };

  std::array<PerEndpoint, kMetricsSlotCount> endpoints_{};
};

}  // namespace rmts::server
