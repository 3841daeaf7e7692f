#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <stdexcept>

#include "common/trace.hpp"

namespace perfbench {
namespace {

/// Replies still missing this long after the last send count as lost.
constexpr auto kDrainTimeout = std::chrono::seconds(10);

/// Waits until a connection is readable or `until` passes.
void wait_readable(std::vector<pollfd>& fds, Clock::time_point until) {
  const auto now = Clock::now();
  const auto ns =
      until > now ? std::chrono::duration_cast<std::chrono::nanoseconds>(until - now).count() : 0;
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  timeout.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  (void)::ppoll(fds.data(), fds.size(), &timeout, nullptr);
}

}  // namespace

Conn::Conn(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect() to the benchmark server failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

Conn::Conn(Conn&& other) noexcept : fd_(other.fd_), in_(std::move(other.in_)) {
  other.fd_ = -1;
}

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    in_ = std::move(other.in_);
    other.fd_ = -1;
  }
  return *this;
}

bool Conn::send(std::string_view line) {
  std::string bytes;
  bytes.reserve(line.size() + 1);
  bytes.append(line);
  bytes.push_back('\n');
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      pollfd p{fd_, POLLOUT, 0};
      (void)::poll(&p, 1, 1000);
    } else {
      return false;
    }
  }
  return true;
}

bool Conn::receive(std::vector<std::string>& lines) {
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      in_.append(buffer, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
    } else if (n == 0) {
      return false;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno != EINTR) {
      return false;
    }
  }
  std::size_t start = 0;
  for (std::size_t nl = in_.find('\n'); nl != std::string::npos;
       nl = in_.find('\n', start)) {
    lines.emplace_back(in_, start, nl - start);
    start = nl + 1;
  }
  in_.erase(0, start);
  return true;
}

std::string Conn::request(std::string_view line) {
  std::vector<std::string> lines;
  if (!send(line)) return {};
  const auto deadline = Clock::now() + kDrainTimeout;
  std::vector<pollfd> fds{{fd_, POLLIN, 0}};
  while (lines.empty() && Clock::now() < deadline) {
    wait_readable(fds, deadline);
    if (!receive(lines)) return {};
  }
  return lines.empty() ? std::string() : std::move(lines.front());
}

std::uint64_t closed_loop(std::vector<Conn>& conns, Clock::time_point end,
                          const Phase* trace_slices,
                          const std::function<std::string(std::size_t)>& next,
                          const ClosedReply& reply) {
  std::vector<pollfd> fds;
  std::vector<Clock::time_point> sent(conns.size());
  std::vector<bool> busy(conns.size(), false);
  std::uint64_t lost = 0;
  std::size_t in_flight = 0;
  const auto issue = [&](std::size_t c) {
    if (Clock::now() >= end) return;
    const std::string line = next(c);
    if (line.empty()) return;
    sent[c] = Clock::now();
    if (!conns[c].send(line)) {
      ++lost;
      return;
    }
    busy[c] = true;
    ++in_flight;
  };
  for (std::size_t c = 0; c < conns.size(); ++c) issue(c);

  std::size_t window = SIZE_MAX;
  std::vector<std::string> lines;
  auto drain_deadline = end + kDrainTimeout;
  while (in_flight > 0 && Clock::now() < drain_deadline) {
    Clock::time_point wake = drain_deadline;
    if (trace_slices != nullptr) {
      const std::size_t w = trace_slices->window_of(Clock::now());
      if (w != window) {
        rmts::trace::set_enabled(Phase::traced_window(w));
        window = w;
      }
      wake = std::min(wake, trace_slices->start() +
                                std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        trace_slices->window_seconds() *
                                        static_cast<double>(w + 1))));
    }
    fds.clear();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      fds.push_back({busy[c] ? conns[c].fd() : -1, POLLIN, 0});
    }
    wait_readable(fds, wake);
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents == 0 || !busy[c]) continue;
      lines.clear();
      const bool alive = conns[c].receive(lines);
      if (!lines.empty()) {
        const auto now = Clock::now();
        busy[c] = false;
        --in_flight;
        reply(c, lines.front(), sent[c], now);
        issue(c);
      } else if (!alive) {
        busy[c] = false;
        --in_flight;
        ++lost;
      }
    }
  }
  if (trace_slices != nullptr) rmts::trace::set_enabled(false);
  return lost + in_flight;
}

OpenLoopStats open_loop(std::vector<Conn>& conns, const Phase& phase,
                        double rate, rmts::Rng arrivals,
                        const std::function<std::uint32_t()>& pick,
                        const std::vector<std::string>& lines,
                        const OpenReply& reply) {
  struct Pending {
    Clock::time_point due;
    Clock::time_point sent;
    std::uint32_t line;
  };
  OpenLoopStats stats;
  std::vector<std::deque<Pending>> pending(conns.size());
  std::vector<bool> alive(conns.size(), true);
  std::vector<pollfd> fds;
  std::vector<std::string> replies;
  const auto gap = [&] {
    // Exponential inter-arrival gaps: a Poisson process at `rate`.
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - arrivals.uniform()) / rate));
  };
  Clock::time_point due = phase.start() + gap();
  std::size_t k = 0;
  std::size_t outstanding = 0;
  const auto drain_deadline = phase.end() + kDrainTimeout;
  for (;;) {
    const auto now = Clock::now();
    if (due < phase.end() && now >= due) {
      const std::size_t c = k++ % conns.size();
      const std::uint32_t line = pick();
      ++stats.sent;
      stats.late_ns.record(ns_between(due, now));
      if (alive[c] && conns[c].send(lines[line])) {
        pending[c].push_back({due, now, line});
        ++outstanding;
      } else {
        ++stats.lost;
      }
      due += gap();
      continue;
    }
    if (due >= phase.end() && (outstanding == 0 || now >= drain_deadline)) break;
    fds.clear();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      fds.push_back({alive[c] ? conns[c].fd() : -1, POLLIN, 0});
    }
    wait_readable(fds, due < phase.end() ? due : drain_deadline);
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents == 0 || !alive[c]) continue;
      replies.clear();
      alive[c] = conns[c].receive(replies);
      const auto received = Clock::now();
      for (const std::string& r : replies) {
        if (pending[c].empty()) break;  // a reply nobody asked for
        const Pending p = pending[c].front();
        pending[c].pop_front();
        --outstanding;
        reply(r, p.line, p.due, p.sent, received);
      }
      if (!alive[c]) {
        stats.lost += pending[c].size();
        outstanding -= pending[c].size();
        pending[c].clear();
      }
    }
  }
  stats.lost += outstanding;
  return stats;
}

}  // namespace perfbench
