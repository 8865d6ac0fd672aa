#include "stats.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>

namespace servebench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double idx = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double HighestSupportedPercentile(size_t n) {
  // Percentiles in units of 1/10000; samples beyond percentile q of n are
  // floor(n * (10000 - q) / 10000).
  static const uint64_t kLadder[] = {9999, 9990, 9900, 9000, 5000};
  for (uint64_t q : kLadder) {
    if (static_cast<uint64_t>(n) * (10000 - q) / 10000 >= 10) {
      return static_cast<double>(q) / 10000.0;
    }
  }
  return 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"qps", "1/s"},         {"p50_ms", "ms"},   {"p90_ms", "ms"},
      {"success_rate", "ratio"}, {"f1", "ratio"}, {"setup_s", "s"},
      {"rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      // Task build (core, graph, data).
      {"core.task_build_ms", "ms"},
      {"graph.bfs_sample_ms", "ms"},
      {"graph.induced_subgraph_ms", "ms"},
      {"data.attach_features_ms", "ms"},
      {"core.task_nodes", "count"},
      // Cache (serve).
      {"serve.cache_lookup_ms", "ms"},
      {"serve.cache_hit_rate", "ratio"},
      // Encode (core, nn, tensor).
      {"core.encode_ms", "ms"},
      {"core.encode_gflop_s", "GFLOP/s"},
      // Decode (core).
      {"core.decode_ms", "ms"},
      // Serve self time (serve, obs).
      {"serve.self_ms", "ms"},
      {"serve.p99_ms", "ms"},
      {"obs.overhead_frac", "ratio"},
      // Classical (cs, graph/algorithms).
      {"cs.kcore.search_ms", "ms"},
      {"cs.ktruss.search_ms", "ms"},
      {"cs.ctc.search_ms", "ms"},
      {"graph.edge_list_ms", "ms"},
      {"graph.truss_numbers_ms", "ms"},
      {"graph.max_core_ms", "ms"},
      {"graph.ktruss_containing_ms", "ms"},
      {"cs.answer_size", "count"},
      // Dynamic (cs/dynamic, graph/delta).
      {"dynamic.edit_p50_ms", "ms"},
      {"dynamic.apply_ms", "ms"},
      {"dynamic.compact_ms", "ms"},
      {"serve.cache_retained_rate", "ratio"},
      {"dynamic.delta_depth", "count"},
      // Setup (data, meta, serve).
      {"data.generate_s", "s"},
      {"meta.fit_s", "s"},
      {"serve.create_s", "s"},
      // The traced run itself.
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

}  // namespace servebench
