#include "bounds/harmonic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

namespace rmts {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr std::size_t kWordBits = 64;

/// Strict divisibility order of a period multiset as bitset rows, and a
/// maximum matching on it (Fulkerson's bipartite construction: left and
/// right copies of the poset elements, one edge per strict pair).
struct ChainMatching {
  std::size_t words{0};                  ///< 64-bit words per row
  std::vector<std::uint64_t> rows;       ///< bit v of row u: u precedes v
  std::vector<std::uint64_t> visited;    ///< right vertices one search saw
  std::vector<std::size_t> match_left;   ///< successor of u, kNone if none
  std::vector<std::size_t> match_right;  ///< predecessor of v, kNone if none
  std::size_t matched{0};
};

/// Fills m.rows with the strict order: a precedes b iff p_a divides p_b
/// and either p_a < p_b or (equal periods, mutually harmonic) a < b --
/// the index tiebreak keeps the order irreflexive while duplicates stay
/// comparable.  Each unordered pair costs one remainder, the larger
/// period's by the smaller, so on non-decreasing periods (an RM-sorted
/// TaskSet) every edge points forward from the lower index.
template <typename PeriodAt>
void build_order(std::size_t n, PeriodAt period, ChainMatching& m) {
  m.words = (n + kWordBits - 1) / kWordBits;
  m.rows.assign(n * m.words, 0);
  const auto set = [&m](std::size_t from, std::size_t to) {
    m.rows[from * m.words + to / kWordBits] |= std::uint64_t{1}
                                               << (to % kWordBits);
  };
  for (std::size_t a = 0; a < n; ++a) {
    const Time pa = period(a);
    for (std::size_t b = a + 1; b < n; ++b) {
      const Time pb = period(b);
      if (pa <= pb) {
        if (pb % pa == 0) set(a, b);
      } else if (pa % pb == 0) {
        set(b, a);
      }
    }
  }
}

/// Kuhn's augmenting path from left vertex u over the bitset rows: the
/// next unvisited neighbour is the lowest set bit of row & ~visited, so
/// neighbours are tried in increasing index order, as a scan over the
/// periods would.
bool try_augment(std::size_t u, ChainMatching& m) {
  const std::uint64_t* const row = &m.rows[u * m.words];
  for (std::size_t w = 0; w < m.words; ++w) {
    std::uint64_t open;
    while ((open = row[w] & ~m.visited[w]) != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(open));
      const std::size_t v = w * kWordBits + bit;
      m.visited[w] |= std::uint64_t{1} << bit;
      if (m.match_right[v] == kNone || try_augment(m.match_right[v], m)) {
        m.match_left[u] = v;
        m.match_right[v] = u;
        return true;
      }
    }
  }
  return false;
}

/// Builds the order over `n` periods and runs the matching.  Sets of up
/// to kRetainedTasks periods reuse one thread-local workspace
/// (allocation-free once warm: the HC bound runs on every RM-TS
/// admission); a larger set uses the caller's `one_off`, freed when the
/// caller returns, so no thread keeps the quadratic rows of an oversized
/// input.  The result is valid until the next call on this thread.
constexpr std::size_t kRetainedTasks = 1024;
thread_local ChainMatching t_reused;

template <typename PeriodAt>
const ChainMatching& max_matching(std::size_t n, PeriodAt period,
                                  ChainMatching& one_off) {
  ChainMatching& m = n <= kRetainedTasks ? t_reused : one_off;
  build_order(n, period, m);
  m.visited.resize(m.words);
  m.match_left.assign(n, kNone);
  m.match_right.assign(n, kNone);
  m.matched = 0;
  for (std::size_t u = 0; u < n; ++u) {
    std::fill(m.visited.begin(), m.visited.end(), std::uint64_t{0});
    if (try_augment(u, m)) ++m.matched;
  }
  return m;
}

}  // namespace

std::size_t min_harmonic_chains(std::span<const Time> periods) {
  // Minimum chain cover of a poset = N - maximum matching (Dilworth via
  // Fulkerson's bipartite construction; valid because divisibility is
  // transitive, so path cover == chain cover).  0 for an empty input.
  ChainMatching one_off;
  const ChainMatching& m = max_matching(
      periods.size(), [&](std::size_t i) { return periods[i]; }, one_off);
  return periods.size() - m.matched;
}

std::vector<std::vector<std::size_t>> min_harmonic_chain_partition(
    std::span<const Time> periods) {
  const std::size_t n = periods.size();
  ChainMatching one_off;
  const ChainMatching& m =
      max_matching(n, [&](std::size_t i) { return periods[i]; }, one_off);
  std::vector<std::vector<std::size_t>> chains;
  for (std::size_t u = 0; u < n; ++u) {
    if (m.match_right[u] != kNone) continue;  // not a chain head
    std::vector<std::size_t> chain;
    for (std::size_t v = u; v != kNone; v = m.match_left[v]) {
      chain.push_back(v);
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

std::size_t greedy_harmonic_chains(std::span<const Time> periods) {
  std::vector<std::size_t> order(periods.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return periods[a] < periods[b];
  });
  std::vector<Time> chain_tail;  // largest period of each open chain
  for (const std::size_t idx : order) {
    const Time p = periods[idx];
    auto fits = std::find_if(chain_tail.begin(), chain_tail.end(),
                             [&](Time tail) { return p % tail == 0; });
    if (fits != chain_tail.end()) {
      *fits = p;
    } else {
      chain_tail.push_back(p);
    }
  }
  return chain_tail.size();
}

double harmonic_chain_bound_value(std::size_t chains) noexcept {
  if (chains == 0) return 1.0;
  const double k = static_cast<double>(chains);
  return k * (std::pow(2.0, 1.0 / k) - 1.0);
}

double HarmonicChainBound::evaluate(const TaskSet& tasks) const {
  // Periods straight from the RM-sorted set: no copy, forward edges only.
  ChainMatching one_off;
  const ChainMatching& m = max_matching(
      tasks.size(), [&](std::size_t i) { return tasks[i].period; }, one_off);
  return harmonic_chain_bound_value(tasks.size() - m.matched);
}

}  // namespace rmts
