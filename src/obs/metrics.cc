#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cgnp {
namespace obs {

namespace {

std::atomic<bool> g_enabled{true};

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

// Canonical lookup key: name + sorted labels. '\x1f' cannot appear in a
// valid metric name or label, so the key is collision-free.
std::string EntryKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1f';
    key += v;
  }
  return key;
}

Labels SortedLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

namespace internal {

unsigned ShardIndexSlow() {
  static std::atomic<unsigned> next{0};
  static_assert((kMetricShards & (kMetricShards - 1)) == 0,
                "kMetricShards must be a power of two");
  return next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
}

}  // namespace internal

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double>* buckets = [] {
    auto* b = new std::vector<double>();
    for (int i = 0; i <= 192; ++i) b->push_back(0.001 * std::exp2(i / 8.0));
    return b;
  }();
  return *buckets;
}

double HistogramSnapshot::ApproxQuantile(double q) const {
  if (count == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double rank = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    const uint64_t in_bucket = bucket_counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      // The overflow bucket has no upper bound; report its lower edge.
      if (i >= bounds.size()) return lo;
      const double hi = bounds[i];
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::min(std::max(frac, 0.0), 1.0);
    }
    seen += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  CGNP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << " histogram bucket bounds must be ascending";
  for (auto& shard : shards_) {
    // make_unique value-initialises: all bucket slots start at zero.
    shard.counts =
        std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  }
}

void Histogram::RecordAlways(double v) {
  // First bound >= v; every comparison with NaN is false, so route it to
  // the overflow slot explicitly.
  const size_t bucket =
      std::isnan(v)
          ? bounds_.size()
          : static_cast<size_t>(
                std::lower_bound(bounds_.begin(), bounds_.end(), v) -
                bounds_.begin());
  Shard& shard = shards_[internal::ShardIndex()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  internal::AtomicAddDouble(&shard.sum, v);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.bucket_counts.assign(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      snap.bucket_counts[i] += shard.counts[i].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (uint64_t c : snap.bucket_counts) snap.count += c;
  return snap;
}

uint64_t Histogram::Count() const { return Snapshot().count; }
double Histogram::Sum() const { return Snapshot().sum; }

void Histogram::Reset() {
  for (auto& shard : shards_) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      shard.counts[i].store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::FindOrCreate(
    MetricPoint::Kind kind, const std::string& name, const Labels& labels,
    const std::vector<double>* bounds) {
  CGNP_CHECK(ValidMetricName(name)) << " bad metric name: " << name;
  const Labels sorted = SortedLabels(labels);
  const std::string key = EntryKey(name, sorted);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    CGNP_CHECK(it->second.kind == kind)
        << " metric " << name << " re-registered with a different kind";
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.name = name;
  entry.labels = sorted;
  switch (kind) {
    case MetricPoint::Kind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricPoint::Kind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricPoint::Kind::kHistogram:
      entry.histogram = std::make_unique<Histogram>(
          bounds != nullptr ? *bounds : DefaultLatencyBucketsMs());
      break;
  }
  return entries_.emplace(key, std::move(entry)).first->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  return *FindOrCreate(MetricPoint::Kind::kCounter, name, labels, nullptr)
              .counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  return *FindOrCreate(MetricPoint::Kind::kGauge, name, labels, nullptr).gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         const std::vector<double>& bounds) {
  return *FindOrCreate(MetricPoint::Kind::kHistogram, name, labels, &bounds)
              .histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.reserve(entries_.size());
  // entries_ is keyed by name + sorted labels, so iteration order already
  // groups metric families contiguously.
  for (const auto& [key, entry] : entries_) {
    (void)key;
    MetricPoint point;
    point.kind = entry.kind;
    point.name = entry.name;
    point.labels = entry.labels;
    switch (entry.kind) {
      case MetricPoint::Kind::kCounter:
        point.value = static_cast<double>(entry.counter->Value());
        break;
      case MetricPoint::Kind::kGauge:
        point.value = entry.gauge->Value();
        break;
      case MetricPoint::Kind::kHistogram:
        point.histogram = entry.histogram->Snapshot();
        break;
    }
    snap.push_back(std::move(point));
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    (void)key;
    switch (entry.kind) {
      case MetricPoint::Kind::kCounter:
        entry.counter->Reset();
        break;
      case MetricPoint::Kind::kGauge:
        entry.gauge->Reset();
        break;
      case MetricPoint::Kind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

}  // namespace obs
}  // namespace cgnp
