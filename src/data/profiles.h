// Named dataset profiles that mimic the salient statistics of the paper's
// six evaluation datasets (Table I) at CPU-tractable scale. See
// docs/ARCHITECTURE.md "Substitutions" for the rationale; absolute sizes
// are scaled down while density, community count/size ratios and attribute
// presence are kept.
#ifndef CGNP_DATA_PROFILES_H_
#define CGNP_DATA_PROFILES_H_

#include <string>
#include <vector>

#include "data/synthetic.h"
#include "graph/graph.h"
#include "tensor/rng.h"

namespace cgnp {

struct DatasetProfile {
  std::string name;
  // One config per data graph; single-graph datasets have one entry,
  // Facebook-style ego-network collections have several.
  std::vector<SyntheticConfig> graph_configs;
};

// Citation networks with attributes (small, sparse, few communities).
DatasetProfile CoraProfile();
DatasetProfile CiteseerProfile();
// Large citation network, no attributes, 40 communities.
DatasetProfile ArxivProfile();
// Dense forum graph, no attributes, 50 communities.
DatasetProfile RedditProfile();
// Co-authorship network, no attributes, many small communities.
DatasetProfile DblpProfile();
// Ten ego networks with attributes and varied sizes.
DatasetProfile FacebookProfile();

// All six profiles, in the paper's Table I order.
std::vector<DatasetProfile> AllProfiles();

// Generates the data graphs of a profile.
std::vector<Graph> MakeDataset(const DatasetProfile& profile, Rng* rng);

}  // namespace cgnp

#endif  // CGNP_DATA_PROFILES_H_
