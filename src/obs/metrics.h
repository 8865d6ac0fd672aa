// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with Prometheus-compatible naming, built for the serving hot path.
//
// Design constraints (see docs/OBSERVABILITY.md):
//   * the record path takes NO locks: every metric is sharded into
//     kMetricShards cache-line-padded atomics indexed by a thread-local
//     shard id, so concurrent writers almost never touch the same line
//     and updates are never lost (exact merge on scrape, not sampled);
//   * registration (GetCounter / GetGauge / GetHistogram) locks a mutex
//     and is meant to run once per call site -- instrumented subsystems
//     cache the returned reference/pointer, which stays valid for the
//     registry's lifetime (metrics are never deleted);
//   * everything compiles out: building with -DCGNP_OBS=OFF (CMake)
//     defines CGNP_OBS_DISABLED and turns the record path into empty
//     inline bodies; at runtime SetEnabled(false) reduces it to one
//     relaxed atomic load and a branch.
//
// Naming follows the Prometheus conventions: snake_case, a `cgnp_`
// namespace prefix, `_total` suffix on counters, the unit spelled in the
// name (`_ms`). Labels are (key, value) pairs; (name, sorted labels)
// identifies a metric.
#ifndef CGNP_OBS_METRICS_H_
#define CGNP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#if defined(CGNP_OBS_DISABLED)
#define CGNP_OBS_ENABLED 0
#else
#define CGNP_OBS_ENABLED 1
#endif

namespace cgnp {
namespace obs {

// Process-wide runtime kill switch. Off, the record paths (Counter::
// Increment, Gauge::Set/Add, Histogram::Record, trace spans, logging)
// become a relaxed load + branch. Scrapes still work (they read whatever
// was recorded while enabled). Defaults to on.
void SetEnabled(bool on);
bool Enabled();

inline constexpr int kMetricShards = 16;  // power of two; see ShardIndex

namespace internal {

// Stable per-thread shard assignment; round-robin at first use so
// long-lived worker pools spread evenly over the shards.
unsigned ShardIndexSlow();
inline unsigned ShardIndex() {
  thread_local const unsigned idx = ShardIndexSlow();
  return idx;
}

// fetch_add for atomic<double> via CAS (portable across libstdc++
// versions that lack __cpp_lib_atomic_float).
inline void AtomicAddDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

struct alignas(64) CounterShard {
  std::atomic<uint64_t> v{0};
};

}  // namespace internal

// Monotone event count. Increment is wait-free (one relaxed fetch_add on
// this thread's shard); Value() sums the shards, which is exact with
// respect to every increment that happened-before the read.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
#if CGNP_OBS_ENABLED
    if (!Enabled()) return;
    shards_[internal::ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  internal::CounterShard shards_[kMetricShards];
};

// Point-in-time value (queue depth, last loss). Set/Add are lock-free;
// last-writer-wins on Set is the intended semantics.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) {
#if CGNP_OBS_ENABLED
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }

  void Add(double v) {
#if CGNP_OBS_ENABLED
    if (!Enabled()) return;
    internal::AtomicAddDouble(&value_, v);
#else
    (void)v;
#endif
  }

  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// Default latency buckets (milliseconds): 0.001 * 2^(i/8) for i = 0..192,
// 1 us .. 16.8 s. Neighbouring bounds differ by 2^(1/8), so every bucket
// above 1 us is at most 9.1% wide -- the relative error bound of
// ApproxQuantile for values in that range. Chosen once for the whole
// library so dashboards can aggregate across metrics.
const std::vector<double>& DefaultLatencyBucketsMs();

struct HistogramSnapshot {
  std::vector<double> bounds;          // bucket upper bounds (le), no +Inf
  std::vector<uint64_t> bucket_counts; // size bounds+1; last = overflow
  double sum = 0;
  uint64_t count = 0;

  // Linear interpolation inside the bucket holding the rank-ceil(q*count)
  // sample; 0 when empty. The estimate stays inside that sample's bucket,
  // so its relative error is at most the bucket's width (<= 9.1% on the
  // default layout).
  double ApproxQuantile(double q) const;
};

// Fixed-bucket histogram. Record is lock-free: a binary search over the
// bounds, then one relaxed fetch_add on this thread's shard.
class Histogram {
 public:
  // `bounds` are upper bucket bounds in ascending order; an implicit
  // overflow (+Inf) bucket is always appended.
  explicit Histogram(std::vector<double> bounds = DefaultLatencyBucketsMs());
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double v) {
#if CGNP_OBS_ENABLED
    if (!Enabled()) return;
    RecordAlways(v);
#else
    (void)v;
#endif
  }

  // Records whatever obs::Enabled() says and whether or not the record
  // path is compiled in: for histograms that back an API contract (the
  // QueryServer stats window) rather than telemetry. A value exactly on a
  // bound lands in that bound's bucket; NaN and values above the top
  // bound land in the overflow bucket.
  void RecordAlways(double v);

  HistogramSnapshot Snapshot() const;
  uint64_t Count() const;
  double Sum() const;
  void Reset();
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;  // bounds+1 slots
    std::atomic<double> sum{0};
  };

  std::vector<double> bounds_;
  Shard shards_[kMetricShards];
};

// (key, value) label pairs; canonicalised (sorted by key) at lookup.
using Labels = std::vector<std::pair<std::string, std::string>>;

// One scraped metric, decoupled from the live objects so exporters work
// on a stable copy.
struct MetricPoint {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  Labels labels;          // sorted by key
  double value = 0;       // counter / gauge
  HistogramSnapshot histogram;  // kind == kHistogram only
};

using MetricsSnapshot = std::vector<MetricPoint>;

// Named metric store. The process-wide instance is Default(); tests and
// tools may build private registries for isolation. Lookup is mutex-
// guarded; the returned references live as long as the registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Default();

  // Idempotent: repeated calls with the same (name, labels) return the
  // same object. Re-using a name with a different metric kind is a
  // programming error (CGNP_CHECK). Names must match the Prometheus
  // charset [a-zA-Z_:][a-zA-Z0-9_:]*.
  Counter& GetCounter(const std::string& name, const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const Labels& labels = {});
  Histogram& GetHistogram(const std::string& name, const Labels& labels = {},
                          const std::vector<double>& bounds =
                              DefaultLatencyBucketsMs());

  // Copies every metric's current value, sorted by (name, labels) so the
  // exporters emit families contiguously and output diffs cleanly.
  MetricsSnapshot Snapshot() const;

  // Zeroes every registered metric (the objects stay valid). For tests
  // and before/after diffs in benches.
  void ResetAll();

 private:
  struct Entry {
    MetricPoint::Kind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& FindOrCreate(MetricPoint::Kind kind, const std::string& name,
                      const Labels& labels,
                      const std::vector<double>* bounds);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // key: name + serialised labels
};

}  // namespace obs
}  // namespace cgnp

#endif  // CGNP_OBS_METRICS_H_
