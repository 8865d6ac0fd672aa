// A member cache for immutable objects: a value built on first use, at
// most once, safely from many threads at the same time.
//
// The built value is held by shared_ptr, so copying the owner shares it
// instead of rebuilding it; a copy taken before the build starts unbuilt
// and builds its own on first use. Assigning the owner replaces the cached
// value with the source's (built or not), so a cache never describes a
// different object than the one holding it. Copying and assigning are
// mutations of the owner and follow the usual rule: not concurrently with
// other use of the same object. Get() from many threads is always safe.
#ifndef CGNP_COMMON_LAZY_H_
#define CGNP_COMMON_LAZY_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

namespace cgnp {

template <typename T>
class LazyShared {
 public:
  LazyShared() = default;
  LazyShared(const LazyShared& other) noexcept { Adopt(other.Peek()); }
  LazyShared& operator=(const LazyShared& other) noexcept {
    if (this != &other) Adopt(other.Peek());
    return *this;
  }

  // The value, made by `build()` on the first call. Concurrent first
  // callers wait for the one build; later calls are one acquire load.
  template <typename Build>
  const T& Get(Build&& build) const {
    if (const T* p = ptr_.load(std::memory_order_acquire)) return *p;
    std::lock_guard<std::mutex> lock(mu_);
    if (value_ == nullptr) {
      value_ = std::make_shared<const T>(build());
      ptr_.store(value_.get(), std::memory_order_release);
    }
    return *value_;
  }

  // The value if it has been built, else null.
  std::shared_ptr<const T> Peek() const {
    // value_ is set before the release store of ptr_ and never changes
    // while readers may run (Adopt is a mutation of the owner), so a
    // non-null acquire load makes reading it race-free.
    if (ptr_.load(std::memory_order_acquire) == nullptr) return nullptr;
    return value_;
  }

 private:
  void Adopt(std::shared_ptr<const T> value) noexcept {
    value_ = std::move(value);
    ptr_.store(value_.get(), std::memory_order_release);
  }

  mutable std::mutex mu_;
  mutable std::shared_ptr<const T> value_;
  mutable std::atomic<const T*> ptr_{nullptr};
};

}  // namespace cgnp

#endif  // CGNP_COMMON_LAZY_H_
