#include "tests/heap_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_news{false};
std::atomic<int64_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cgnp {
namespace testing {

void StartCountingNews() {
  g_news = 0;
  g_count_news = true;
}

void StopCountingNews() { g_count_news = false; }

int64_t CountedNews() { return g_news.load(); }

}  // namespace testing
}  // namespace cgnp
