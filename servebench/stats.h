// Summary statistics and the metric catalogue of the serving benchmark.
#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace servebench {

// Linear-interpolated percentile of `samples`, p in [0, 1] (the
// definition QueryServer::Stats uses). 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// The reporting rule for tails: the highest of p50, p90, p99, p99.9 and
// p99.99 that has at least ten of `n` samples beyond it, as a fraction
// (0.99 for p99). 0 when not even the median qualifies (n < 20).
double HighestSupportedPercentile(size_t n);

// Peak resident set size of this process, in MiB (VmHWM).
double PeakRssMb();

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric an untraced run reports (BENCHMARK.json "end_to_end").
const std::vector<MetricSpec>& EndToEndMetrics();
// Every metric a traced run reports (BENCHMARK.json "per_layer").
const std::vector<MetricSpec>& PerLayerMetrics();

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
