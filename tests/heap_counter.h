// A heap probe for tests that assert a code path allocates nothing: a
// counting global operator new, counted only between StartCountingNews()
// and StopCountingNews(). Link tests/heap_counter.cc into the test binary
// (CMakeLists.txt does for the binaries that use it); it replaces the
// global operator new and operator delete there. It lives in its own
// translation unit so the compiler never sees a replaced operator new
// inlined next to its matching free.
#ifndef CGNP_TESTS_HEAP_COUNTER_H_
#define CGNP_TESTS_HEAP_COUNTER_H_

#include <cstdint>

namespace cgnp {
namespace testing {

// Resets the count to zero and starts counting.
void StartCountingNews();
// Stops counting; the count stays readable.
void StopCountingNews();
// Global operator new calls between the last Start and Stop.
int64_t CountedNews();

}  // namespace testing
}  // namespace cgnp

#endif  // CGNP_TESTS_HEAP_COUNTER_H_
