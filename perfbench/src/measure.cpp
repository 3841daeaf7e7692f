#include "measure.hpp"

#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/trace.hpp"
#include "workload/generators.hpp"

namespace perfbench {

void Outcome::mismatch(std::string what) {
  correct = false;
  // The first few are enough to debug; a systematic fault repeats.
  if (mismatches.size() < 8) mismatches.push_back(std::move(what));
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

OneCpu::OneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int cpu = CPU_SETSIZE - 1;
  while (cpu >= 0 && !CPU_ISSET(cpu, &allowed)) --cpu;
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
  cpu_ = cpu;
  // Timed waits of the load generator wake on time, not up to the
  // default 50 us late.
  timer_slack_ns_ = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  awake_ = std::thread([this] {
    sched_param param{};
    (void)sched_setscheduler(0, SCHED_IDLE, &param);
    while (!stop_.load(std::memory_order_relaxed)) {
    }
  });
}

OneCpu::~OneCpu() {
  if (!awake_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  awake_.join();
  (void)prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(timer_slack_ns_), 0UL, 0UL, 0UL);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  // VmHWM, not getrusage(): ru_maxrss survives exec, so a child of a
  // large launcher would report the launcher's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

Phase::Phase(Clock::time_point start, double seconds, double window_s)
    : start_(start),
      window_s_(window_s),
      windows_(std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(seconds / window_s)))) {
  // Whole windows only, so every window's rate has the same base.
  end_ = start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          window_s_ * static_cast<double>(windows_)));
}

std::size_t Phase::window_of(Clock::time_point t) const noexcept {
  if (t <= start_) return 0;
  const auto w = static_cast<std::size_t>(seconds_between(start_, t) / window_s_);
  return std::min(w, windows_ - 1);
}

PhaseSummary summarize(const WindowTally& tally, const Phase& phase) {
  PhaseSummary out;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> p99s;
  std::uint64_t untraced_ok = 0;
  std::uint64_t traced_ok = 0;
  for (std::size_t w = 0; w < phase.windows(); ++w) {
    rates.push_back(static_cast<double>(tally.ok[w]) / phase.window_seconds());
    const rmts::Histogram& samples = tally.latency_ns[w];
    (Phase::traced_window(w) ? traced_ok : untraced_ok) += tally.ok[w];
    // A percentile needs ten samples beyond it to be reported.
    if (samples.count() >= 1000) {
      p50s.push_back(samples.quantile(0.50) / 1e3);
      p90s.push_back(samples.quantile(0.90) / 1e3);
      p99s.push_back(samples.quantile(0.99) / 1e3);
    }
  }
  out.rate_per_s = median(rates);
  out.p50_us = median(p50s);
  out.p90_us = median(p90s);
  out.p99_us = median(p99s);
  const double half =
      phase.window_seconds() * static_cast<double>(phase.windows()) / 2.0;
  out.untraced_rate = static_cast<double>(untraced_ok) / half;
  out.traced_rate = static_cast<double>(traced_ok) / half;
  out.traced_ops = traced_ok;
  return out;
}

std::uint64_t TraceDelta::count(rmts::trace::Stage stage) const {
  return after_.stage(stage).count - before_.stage(stage).count;
}

double TraceDelta::total_us(rmts::trace::Stage stage) const {
  return static_cast<double>(after_.stage(stage).total_ns -
                             before_.stage(stage).total_ns) /
         1e3;
}

double TraceDelta::mean_us(rmts::trace::Stage stage) const {
  return ratio(total_us(stage), static_cast<double>(count(stage)));
}

double TraceDelta::quantile_us(rmts::trace::Stage stage, double p) const {
  const rmts::Histogram sampled = after_.stage(stage).latency_ns.delta_since(
      before_.stage(stage).latency_ns);
  return sampled.count() == 0 ? 0.0 : sampled.quantile(p) / 1e3;
}

std::uint64_t TraceDelta::counter(rmts::trace::Counter counter) const {
  return after_.counter(counter) - before_.counter(counter);
}

TaskDraw draw_session_task(rmts::Rng& rng) {
  const rmts::Time period = rng.uniform_int(1'000, 1'000'000);
  const double utilization = rng.uniform(0.03, 0.25);
  const rmts::Time wcet = std::max<rmts::Time>(
      1, static_cast<rmts::Time>(static_cast<double>(period) * utilization));
  return {wcet, period};
}

std::vector<rmts::TaskSet> task_set_pool(std::uint64_t seed, std::size_t count,
                                         std::size_t tasks,
                                         std::size_t processors, double u_lo,
                                         double u_hi) {
  const rmts::Rng root(seed);
  std::vector<rmts::TaskSet> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rmts::Rng sample = root.fork(i);
    rmts::WorkloadConfig config;
    config.tasks = tasks;
    config.processors = processors;
    config.normalized_utilization =
        u_lo == u_hi ? u_lo : sample.uniform(u_lo, u_hi);
    pool.push_back(rmts::generate(sample, config));
  }
  return pool;
}

}  // namespace perfbench
