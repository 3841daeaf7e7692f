// The tape parser's allocation contract (server/json.hpp): parsing into a
// reused JsonValue allocates nothing once its buffers have grown to the
// line size.  This binary replaces the global operator new to count heap
// allocations, which is why it is not part of server_test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "workload/generators.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rmts::server {
namespace {

/// The benchmark's admit line shape: N=16 tasks, M=4, U_M=0.6.
std::string admit_line(std::uint64_t seed) {
  Rng rng(seed);
  WorkloadConfig config;
  config.tasks = 16;
  config.processors = 4;
  config.normalized_utilization = 0.6;
  return make_admit_request(4, generate(rng, config));
}

/// Reads every field the router reads, so the count covers access too.
std::int64_t walk(const JsonValue& request) {
  std::int64_t sum = request.find("m")->as_int();
  sum += static_cast<std::int64_t>(request.find("op")->as_string().size());
  for (const JsonValue& task : request.find("tasks")->items()) {
    sum += task.items()[0].as_int() + task.items()[1].as_int();
  }
  return sum;
}

TEST(JsonAlloc, CounterSeesHeapAllocations) {
  const std::size_t before = g_allocations.load();
  volatile std::size_t size = 4096;
  std::vector<char> buffer(size);
  buffer[0] = 1;
  EXPECT_GT(g_allocations.load(), before);
}

TEST(JsonAlloc, ReparsingAdmitLinesIntoAReusedValueAllocatesNothing) {
  std::vector<std::string> lines;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) lines.push_back(admit_line(seed));
  JsonValue request;
  std::string error;
  // Warm-up: the document's copy and tape grow to the longest line.
  for (const std::string& line : lines) {
    ASSERT_TRUE(json_parse(line, request, error)) << error;
  }

  std::int64_t sink = 0;
  const std::size_t before = g_allocations.load();
  for (int pass = 0; pass < 4; ++pass) {
    for (const std::string& line : lines) {
      if (!json_parse(line, request, error)) ADD_FAILURE() << error;
      sink += walk(request);
    }
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_GT(sink, 0);
}

}  // namespace
}  // namespace rmts::server
