// Unit tests of the serving benchmark itself:
//
//   servebench_test path/to/BENCHMARK.json
//
// Exits 0 when every check passes, 1 otherwise (each failure is printed).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/json.h"
#include "stats.h"
#include "workload.h"

namespace servebench {
namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool SameGraph(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
    if (a.CommunityOf(v) != b.CommunityOf(v)) return false;
  }
  return true;
}

std::vector<Op> Take(Workload w, const Graph& g, const HotSet& hot,
                     uint64_t seed, int client, int n) {
  RequestStream stream(w, &g, &hot, seed, client);
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) ops.push_back(stream.Next());
  return ops;
}

bool SameOps(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].query != b[i].query ||
        a[i].variant != b[i].variant || a[i].backend != b[i].backend ||
        a[i].edit.insert != b[i].edit.insert || a[i].edit.u != b[i].edit.u ||
        a[i].edit.v != b[i].edit.v) {
      return false;
    }
  }
  return true;
}

void TestGeneratorIsDeterministicPerSeed() {
  const Graph a = MakeGraph(11);
  const Graph b = MakeGraph(11);
  const Graph c = MakeGraph(12);
  Check(SameGraph(a, b), "same seed gives the same graph");
  Check(!SameGraph(a, c), "another seed gives another graph");
  const HotSet ha = MakeHotSet(a, 11);
  const HotSet hb = MakeHotSet(b, 11);
  Check(ha.nodes == hb.nodes && ha.cdf == hb.cdf,
        "same seed gives the same hot set");
  for (Workload w : {Workload::kLearnedHot, Workload::kLearnedCold,
                     Workload::kClassicalMix, Workload::kDynamicMixed}) {
    for (int client = 0; client < kClients; ++client) {
      Check(SameOps(Take(w, a, ha, 11, client, 400),
                    Take(w, b, hb, 11, client, 400)),
            std::string("same seed gives the same stream: ") +
                WorkloadName(w));
    }
    Check(!SameOps(Take(w, a, ha, 11, 0, 400), Take(w, a, ha, 11, 1, 400)),
          std::string("clients get different streams: ") + WorkloadName(w));
  }
  const auto s1 = ColdSupport(a, 11, 5, 2);
  const auto s2 = ColdSupport(b, 11, 5, 2);
  Check(s1.size() == 1 && s2.size() == 1 && s1[0].pos == s2[0].pos &&
            s1[0].neg == s2[0].neg,
        "cold support is a function of (seed, query, variant)");
}

void TestWorkingSetsAgainstCacheCapacity() {
  const Graph g = MakeGraph(3);
  const HotSet hot = MakeHotSet(g, 3);
  Check(static_cast<int64_t>(hot.nodes.size()) == kHotSetSize,
        "hot set has kHotSetSize distinct nodes");
  Check(std::set<NodeId>(hot.nodes.begin(), hot.nodes.end()).size() ==
            hot.nodes.size(),
        "hot set nodes are distinct");
  // The streams stay inside the declared working sets.
  std::set<NodeId> hot_nodes(hot.nodes.begin(), hot.nodes.end());
  bool inside = true;
  for (const Op& op : Take(Workload::kLearnedHot, g, hot, 3, 0, 2000)) {
    inside = inside && hot_nodes.count(op.query) == 1 && op.variant < 0;
  }
  Check(inside, "learned_hot queries come from the hot set, zero-shot");
  std::set<std::pair<NodeId, int>> cold;
  for (const Op& op : Take(Workload::kLearnedCold, g, hot, 3, 0, 4000)) {
    cold.insert({op.query, op.variant});
  }
  Check(static_cast<int64_t>(cold.size()) > 10 * kCacheCapacity,
        "learned_cold sends far more distinct requests than the cache holds");
}

void TestEditsAreValid() {
  // Replaying both clients' edit cycles in any interleaving keeps every
  // insert of an absent edge and every delete of a present one.
  const Graph g = MakeGraph(5);
  const HotSet hot = MakeHotSet(g, 5);
  std::set<std::pair<NodeId, NodeId>> added;
  bool valid = true;
  int edits = 0;
  std::vector<Op> streams[kClients];
  for (int c = 0; c < kClients; ++c) {
    streams[c] = Take(Workload::kDynamicMixed, g, hot, 5, c, 1000);
  }
  for (size_t i = 0; i < streams[0].size(); ++i) {
    for (int c = kClients - 1; c >= 0; --c) {
      const Op& op = streams[c][i];
      if (op.kind != Op::Kind::kEdit) continue;
      ++edits;
      const auto key = std::minmax(op.edit.u, op.edit.v);
      const auto nb = g.Neighbors(op.edit.u);
      const bool in_base = std::binary_search(nb.begin(), nb.end(), op.edit.v);
      if (op.edit.insert) {
        valid = valid && !in_base && added.insert(key).second;
      } else {
        valid = valid && added.erase(key) == 1;
      }
    }
  }
  Check(edits == kClients * 1000 / kEditEvery, "one op in kEditEvery edits");
  Check(valid, "every generated edit is valid");
}

void TestPercentileRule() {
  Check(HighestSupportedPercentile(0) == 0.0, "no samples: nothing");
  Check(HighestSupportedPercentile(19) == 0.0, "19 samples: nothing");
  Check(HighestSupportedPercentile(20) == 0.5, "20 samples: p50");
  Check(HighestSupportedPercentile(99) == 0.5, "99 samples: p50");
  Check(HighestSupportedPercentile(100) == 0.9, "100 samples: p90");
  Check(HighestSupportedPercentile(999) == 0.9, "999 samples: p90");
  Check(HighestSupportedPercentile(1000) == 0.99, "1000 samples: p99");
  Check(HighestSupportedPercentile(9999) == 0.99, "9999 samples: p99");
  Check(HighestSupportedPercentile(10000) == 0.999, "10000 samples: p99.9");
  Check(HighestSupportedPercentile(100000) == 0.9999,
        "100000 samples: p99.99");
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);
  Check(Median(v) == 6.0, "median of 1..11");
  Check(Percentile(v, 0.9) == 10.0, "p90 of 1..11");
  Check(Percentile({1.0, 2.0}, 0.5) == 1.5, "interpolated median");
  Check(Percentile({}, 0.5) == 0.0, "empty sample");
}

void TestMetricNamesMatchBenchmarkJson(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = cgnp::bench::Json::Parse(text.str());
  Check(doc.ok(), "BENCHMARK.json parses: " + path);
  if (!doc.ok()) return;
  const std::regex name_re("[A-Za-z0-9_.-]+");
  auto check_section = [&](const char* section,
                           const std::vector<MetricSpec>& specs) {
    const auto* list = doc->Find(section);
    Check(list != nullptr && list->is_array(),
          std::string("BENCHMARK.json has ") + section);
    if (list == nullptr || !list->is_array()) return;
    std::set<std::string> declared;
    for (const auto& m : list->Items()) {
      declared.insert(m.GetString("name", ""));
    }
    for (const auto& spec : specs) {
      Check(std::regex_match(spec.name, name_re),
            std::string("metric name is well formed: ") + spec.name);
      bool found = false;
      for (const auto& m : list->Items()) {
        if (m.GetString("name", "") == spec.name) {
          found = true;
          Check(m.GetString("unit", "") == spec.unit,
                std::string("unit agrees with BENCHMARK.json: ") + spec.name);
        }
      }
      Check(found, std::string("metric is declared in BENCHMARK.json ") +
                       section + ": " + spec.name);
    }
    Check(declared.size() == specs.size(),
          std::string("BENCHMARK.json declares no extra metrics in ") +
              section);
  };
  check_section("end_to_end", EndToEndMetrics());
  check_section("per_layer", PerLayerMetrics());
  const auto* workloads = doc->Find("workloads");
  std::set<std::string> names;
  if (workloads != nullptr && workloads->is_array()) {
    for (const auto& w : workloads->Items()) {
      names.insert(w.GetString("name", ""));
      Check(ParseWorkload(w.GetString("name", "")).ok(),
            "declared workload exists: " + w.GetString("name", ""));
    }
  }
  Check(names.size() == 4, "BENCHMARK.json declares the four workloads");
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: servebench_test path/to/BENCHMARK.json\n");
    return 2;
  }
  servebench::TestGeneratorIsDeterministicPerSeed();
  servebench::TestWorkingSetsAgainstCacheCapacity();
  servebench::TestEditsAreValid();
  servebench::TestPercentileRule();
  servebench::TestMetricNamesMatchBenchmarkJson(argv[1]);
  if (servebench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", servebench::failures);
    return 1;
  }
  std::printf("servebench_test: all checks passed\n");
  return 0;
}
