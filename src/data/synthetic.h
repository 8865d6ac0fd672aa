// Synthetic graphs with planted ground-truth communities.
//
// The generator produces planted-partition graphs with three properties the
// paper's methods exploit (see docs/ARCHITECTURE.md "Substitutions"):
// intra-community density >> inter-community density, attribute homophily
// (community members draw attributes from a shared pool), and optional
// degree heterogeneity. Ground-truth community ids are
// attached to the graph and drive the task samplers.
#ifndef CGNP_DATA_SYNTHETIC_H_
#define CGNP_DATA_SYNTHETIC_H_

#include <cstdint>

#include "graph/graph.h"
#include "tensor/rng.h"

namespace cgnp {

struct SyntheticConfig {
  int64_t num_nodes = 2000;
  int64_t num_communities = 10;
  // Expected within-community degree of a node.
  double intra_degree = 10.0;
  // Expected cross-community degree of a node.
  double inter_degree = 2.0;
  // 0 = equal community sizes; larger values skew sizes Zipf-style
  // (exponent = community_size_skew).
  double community_size_skew = 0.0;
  // Degree heterogeneity: each node's edge budget is scaled by a Pareto
  // multiplier when true (hub-and-spoke structure, DBLP/Reddit flavour).
  bool power_law_degrees = false;

  // Attribute model. attribute_dim = 0 disables discrete attributes (the
  // paper's Arxiv / DBLP / Reddit case, where only structural features are
  // available).
  int64_t attribute_dim = 0;
  int64_t attrs_per_node = 4;
  // Probability that an attribute is drawn from the node's community pool
  // rather than uniformly (homophily strength).
  double attr_affinity = 0.8;
  // Number of attribute ids in each community's pool.
  int64_t attrs_per_community_pool = 8;
};

// Generates a graph with planted communities; every node is labelled.
Graph GenerateSyntheticGraph(const SyntheticConfig& config, Rng* rng);

}  // namespace cgnp

#endif  // CGNP_DATA_SYNTHETIC_H_
