#include "server/metrics.hpp"

namespace rmts::server {

void Metrics::record(std::size_t slot, bool error,
                     std::uint64_t micros) noexcept {
  PerEndpoint& e = endpoints_[slot];
  e.requests.fetch_add(1, std::memory_order_relaxed);
  if (error) e.errors.fetch_add(1, std::memory_order_relaxed);
  e.latency_us.record(micros);
}

Metrics::EndpointSnapshot Metrics::snapshot(std::size_t slot) const {
  const PerEndpoint& e = endpoints_[slot];
  EndpointSnapshot out;
  out.requests = e.requests.load(std::memory_order_relaxed);
  out.errors = e.errors.load(std::memory_order_relaxed);
  out.latency_us = e.latency_us.snapshot();
  if (out.latency_us.count() == 0) return out;
  out.max_micros = out.latency_us.max();
  out.p50_micros = out.latency_us.quantile(0.50);
  out.p90_micros = out.latency_us.quantile(0.90);
  out.p99_micros = out.latency_us.quantile(0.99);
  out.mean_micros = out.latency_us.mean();
  return out;
}

std::uint64_t Metrics::total_requests() const noexcept {
  std::uint64_t total = 0;
  for (const PerEndpoint& e : endpoints_) {
    total += e.requests.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace rmts::server
