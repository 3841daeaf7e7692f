// The benchmark's own load generators for the wire workloads.  Both run
// on ONE thread over non-blocking sockets, so the client side adds a
// single runnable thread to the server's loop thread and workers; on a
// small shared host, a thread per connection costs more CPU contention
// than the server itself and makes the figures swing from run to run.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "measure.hpp"

namespace perfbench {

/// One loopback TCP connection speaking the line protocol.
class Conn {
 public:
  /// Connects to 127.0.0.1:`port`; throws std::runtime_error on failure.
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Writes `line` plus its newline, waiting for socket space if needed.
  bool send(std::string_view line);
  /// Reads what is available and appends each complete line to `lines`.
  /// False on EOF or a socket error.
  bool receive(std::vector<std::string>& lines);
  /// Sends one line and waits for one reply; empty on failure or timeout.
  std::string request(std::string_view line);

 private:
  int fd_{-1};
  std::string in_;
};

/// Consumes one reply: connection, reply line, send and receive times.
using ClosedReply = std::function<void(std::size_t, const std::string&,
                                       Clock::time_point, Clock::time_point)>;

/// Closed loop: every connection keeps one request in flight.  `next(c)`
/// returns connection c's next line, or an empty string when c is done.
/// No request is sent at or after `end`; returns once none is in flight.
/// With `trace_slices` set, recording is switched on in its odd windows
/// and off in its even ones.  Returns the requests left unanswered
/// (connections that failed).
std::uint64_t closed_loop(std::vector<Conn>& conns, Clock::time_point end,
                          const Phase* trace_slices,
                          const std::function<std::string(std::size_t)>& next,
                          const ClosedReply& reply);

/// Consumes one open-loop reply: the reply, the pool line it answers, and
/// its due, send and receive times.
using OpenReply = std::function<void(const std::string&, std::uint32_t,
                                     Clock::time_point, Clock::time_point,
                                     Clock::time_point)>;

struct OpenLoopStats {
  std::uint64_t sent{0};
  std::uint64_t lost{0};  ///< requests never answered
  rmts::Histogram late_ns;  ///< send time minus due time
};

/// Open loop: Poisson arrivals at `rate` per second over `phase`,
/// round-robin over the pipelined connections; request k carries pool
/// line `pick()`.  Latency is measured from each request's DUE time.
/// server::run_load's open loop stamps the send time after send_line()
/// returns, so a stall of its sender delays every later request without
/// showing in their latencies (coordinated omission); here a late sender
/// shows up both in the latencies and in `late_ns`.
OpenLoopStats open_loop(std::vector<Conn>& conns, const Phase& phase,
                        double rate, rmts::Rng arrivals,
                        const std::function<std::uint32_t()>& pick,
                        const std::vector<std::string>& lines,
                        const OpenReply& reply);

}  // namespace perfbench
