#include "cs/dynamic.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cs/kcore_community.h"
#include "cs/ktruss_community.h"
#include "cs/searcher.h"
#include "data/synthetic.h"
#include "graph/algorithms.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tensor/rng.h"
#include "tests/classical_oracles.h"
#include "tests/heap_counter.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

std::shared_ptr<const Graph> Share(Graph g) {
  return std::make_shared<const Graph>(std::move(g));
}

// The index's community answers against the reference bodies of
// tests/classical_oracles.h, fed the snapshot's rows and the index's
// current core and truss numbers: members and order, for every node as
// query and a spread of k.
void ExpectIndexMatchesOracle(const DynamicCommunityIndex& index,
                              const Graph& snapshot,
                              const std::string& context) {
  const int64_t n = snapshot.num_nodes();
  SortedAdjacency adj(static_cast<size_t>(n));
  std::vector<std::vector<int32_t>> truss(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : snapshot.Neighbors(v)) {
      adj[v].push_back(u);
      truss[v].push_back(static_cast<int32_t>(index.CurrentTrussOf(v, u)));
    }
  }
  const std::vector<int64_t> core = index.CurrentCoreNumbers();
  for (const int64_t k : {-1, 0, 1, 2, 3, 4}) {
    for (NodeId q = 0; q < n; ++q) {
      const auto inc_core = index.KCoreCommunity(q, k);
      ASSERT_TRUE(inc_core.ok()) << context << ": " << inc_core.status();
      ASSERT_EQ(*inc_core, oracle::IndexKCoreCommunity(adj, core, q, k))
          << context << " kcore query " << q << " k=" << k;
      const auto inc_truss = index.KTrussCommunity(q, k);
      ASSERT_TRUE(inc_truss.ok()) << context << ": " << inc_truss.status();
      ASSERT_EQ(*inc_truss, oracle::IndexKTrussCommunity(adj, truss, q, k))
          << context << " ktruss query " << q << " k=" << k;
    }
  }
}

// Cross-checks every maintained quantity against the batch algorithms run
// on an equivalent from-scratch snapshot: core numbers per node, truss
// numbers per edge, and the community answers (members AND order) for
// every node as query at the default k; then against the oracle.
void ExpectIndexMatchesSnapshot(const DynamicCommunityIndex& index,
                                const Graph& snapshot,
                                const std::string& context) {
  const std::vector<int64_t> core = CoreNumbers(snapshot);
  ASSERT_EQ(index.CurrentCoreNumbers(), core) << context;

  const EdgeList el = BuildEdgeList(snapshot);
  const std::vector<int64_t> truss = TrussNumbers(snapshot, el);
  for (size_t i = 0; i < el.edges.size(); ++i) {
    const auto [u, v] = el.edges[i];
    ASSERT_EQ(index.CurrentTrussOf(u, v), truss[i])
        << context << " edge " << u << "-" << v;
  }

  for (NodeId q = 0; q < snapshot.num_nodes(); ++q) {
    const auto inc_core = index.KCoreCommunity(q);
    ASSERT_TRUE(inc_core.ok()) << context << ": " << inc_core.status();
    ASSERT_EQ(*inc_core, KCoreCommunity(snapshot, q))
        << context << " kcore query " << q;
    const auto inc_truss = index.KTrussCommunity(q);
    ASSERT_TRUE(inc_truss.ok()) << context << ": " << inc_truss.status();
    ASSERT_EQ(*inc_truss, KTrussCommunity(snapshot, q))
        << context << " ktruss query " << q;
  }
  ExpectIndexMatchesOracle(index, snapshot, context);
}

// Every node whose row differs between two consecutive compactions must be
// in the dirty set the later one reported; a missing node would let a
// cached context of the old version be re-keyed as still exact.
void ExpectChangesAreDirty(const Graph& before, const Graph& after,
                           const std::vector<NodeId>& dirty,
                           const std::string& context) {
  ASSERT_TRUE(std::is_sorted(dirty.begin(), dirty.end())) << context;
  for (NodeId v = 0; v < after.num_nodes(); ++v) {
    const auto a = before.Neighbors(v);
    const auto b = after.Neighbors(v);
    if (std::equal(a.begin(), a.end(), b.begin(), b.end())) continue;
    EXPECT_TRUE(std::binary_search(dirty.begin(), dirty.end(), v))
        << context << ": node " << v << " changed but is not dirty";
  }
}

Graph RandomGraph(Rng* rng, int64_t n, int64_t extra_edges) {
  GraphBuilder b(n);
  // A sprinkle of triangles plus random edges, so truss numbers spread.
  for (int64_t e = 0; e < extra_edges; ++e) {
    const NodeId u = rng->NextInt(n);
    const NodeId v = rng->NextInt(n);
    if (u != v) b.AddEdge(u, v);
  }
  return b.Build();
}

TEST(DynamicCommunityIndex, CreateRejectsNull) {
  const auto index = DynamicCommunityIndex::Create(nullptr);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
}

TEST(DynamicCommunityIndex, ForwardsTheMutationContract) {
  const auto index =
      DynamicCommunityIndex::Create(Share(testing::PathGraph(3)));
  ASSERT_TRUE(index.ok()) << index.status();
  DynamicCommunityIndex& idx = **index;
  EXPECT_EQ(idx.InsertEdge(0, 9).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(idx.InsertEdge(1, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(idx.DeleteEdge(0, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(idx.version(), 0u);
  // Idempotent insert: accepted, but neither version nor indices move.
  ASSERT_TRUE(idx.InsertEdge(0, 1).ok());
  EXPECT_EQ(idx.version(), 0u);
  // Query-side errors, same codes as the batch adapters.
  EXPECT_EQ(idx.KCoreCommunity(-1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(idx.KTrussCommunity(3).status().code(), StatusCode::kOutOfRange);
}

TEST(DynamicCommunityIndex, EmptyGraphQueriesAreInvalid) {
  const auto index = DynamicCommunityIndex::Create(Share(Graph()));
  ASSERT_TRUE(index.ok()) << index.status();
  const auto r = (*index)->KCoreCommunity(0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DynamicCommunityIndex, MatchesBatchOnAFixedStory) {
  // Hand-written episode covering the interesting transitions: triangle
  // creation (truss 2 -> 3), densification to K4 (truss 4, core 3), and
  // the reverse via deletions.
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(4, 5);
  const auto idx_or = DynamicCommunityIndex::Create(Share(b.Build()));
  ASSERT_TRUE(idx_or.ok()) << idx_or.status();
  DynamicCommunityIndex& idx = **idx_or;

  const std::vector<GraphEdit> story = {
      {true, 0, 2},   // closes triangle 0-1-2
      {true, 0, 3},   // pendant
      {true, 1, 3},   // second triangle
      {true, 2, 3},   // K4 on {0,1,2,3}
      {true, 3, 4},   // bridge toward 4-5
      {false, 0, 1},  // break the K4
      {false, 0, 2},
      {false, 4, 5},  // isolate 5
  };
  std::set<std::pair<NodeId, NodeId>> model = {{0, 1}, {1, 2}, {4, 5}};
  for (size_t i = 0; i < story.size(); ++i) {
    ASSERT_TRUE(idx.Apply(story[i]).ok()) << "edit " << i;
    const auto key = std::make_pair(std::min(story[i].u, story[i].v),
                                    std::max(story[i].u, story[i].v));
    if (story[i].insert) {
      model.insert(key);
    } else {
      model.erase(key);
    }
    GraphBuilder rb(6);
    for (const auto& [a, c] : model) rb.AddEdge(a, c);
    ExpectIndexMatchesSnapshot(idx, rb.Build(),
                               "story edit " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DynamicCommunityIndex, MatchesBatchAfterEveryRandomUpdate) {
  // The acceptance test: a long random interleaving of inserts and
  // deletes; after EVERY update the maintained core and truss numbers and
  // all community answers must equal the batch algorithms on an
  // equivalent from-scratch snapshot.
  Rng rng(97);
  const int64_t n = 24;
  const Graph base = RandomGraph(&rng, n, 40);
  const auto idx_or = DynamicCommunityIndex::Create(Share(base));
  ASSERT_TRUE(idx_or.ok()) << idx_or.status();
  DynamicCommunityIndex& idx = **idx_or;

  // Reference edge set, canonical u < v.
  std::set<std::pair<NodeId, NodeId>> model;
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : base.Neighbors(v)) {
      if (u > v) model.emplace(v, u);
    }
  }

  int applied = 0;
  for (int step = 0; step < 1000; ++step) {
    const NodeId u = rng.NextInt(n);
    const NodeId v = rng.NextInt(n);
    if (u == v) continue;
    const auto key = std::make_pair(std::min(u, v), std::max(u, v));
    const bool insert = rng.Bernoulli(0.55);  // slight growth bias
    if (insert) {
      ASSERT_TRUE(idx.InsertEdge(u, v).ok());
      if (!model.insert(key).second) continue;  // idempotent no-op
    } else {
      const Status s = idx.DeleteEdge(u, v);
      if (model.erase(key) > 0) {
        ASSERT_TRUE(s.ok()) << s;
      } else {
        ASSERT_EQ(s.code(), StatusCode::kNotFound);
        continue;
      }
    }
    ++applied;

    // From-scratch snapshot of the reference model.
    GraphBuilder b(n);
    for (const auto& [a, c] : model) b.AddEdge(a, c);
    const Graph snapshot = b.Build();
    ExpectIndexMatchesSnapshot(idx, snapshot,
                               "step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The interleaving must have exercised both directions substantially.
  EXPECT_GT(applied, 400);
  EXPECT_EQ(idx.delta_depth(), applied);
}

// Edge set of the graph under edit, mirrored outside the index: the
// batch oracle runs on a from-scratch build of it.
class EdgeModel {
 public:
  explicit EdgeModel(const Graph& g) : n_(g.num_nodes()) {
    for (NodeId v = 0; v < n_; ++v) {
      for (const NodeId u : g.Neighbors(v)) {
        if (u > v) Insert(v, u);
      }
    }
  }
  bool Has(NodeId u, NodeId v) const {
    return set_.count(Key(u, v)) > 0;
  }
  void Insert(NodeId u, NodeId v) {
    set_.insert(Key(u, v));
    edges_.push_back(Key(u, v));
  }
  // Removes edge i (any order) and returns it.
  std::pair<NodeId, NodeId> RemoveAt(size_t i) {
    const auto e = edges_[i];
    edges_[i] = edges_.back();
    edges_.pop_back();
    set_.erase(e);
    return e;
  }
  void Remove(NodeId u, NodeId v) {
    RemoveAt(static_cast<size_t>(
        std::find(edges_.begin(), edges_.end(), Key(u, v)) - edges_.begin()));
  }
  size_t size() const { return edges_.size(); }
  Graph Build() const {
    GraphBuilder b(n_);
    for (const auto& [u, v] : set_) b.AddEdge(u, v);
    return b.Build();
  }

 private:
  static std::pair<NodeId, NodeId> Key(NodeId u, NodeId v) {
    return {std::min(u, v), std::max(u, v)};
  }
  int64_t n_;
  std::set<std::pair<NodeId, NodeId>> set_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

// After one edit: core numbers equal batch CoreNumbers and the k-order
// invariants hold; every `truss_every` edits all truss numbers equal batch
// TrussNumbers too.
void ExpectCoresMatchBatch(const DynamicCommunityIndex& idx,
                           const EdgeModel& model, int64_t edit,
                           int64_t truss_every, const std::string& phase) {
  const Graph g = model.Build();
  const std::string context = phase + " edit " + std::to_string(edit);
  ASSERT_EQ(idx.CurrentCoreNumbers(), CoreNumbers(g)) << context;
  const Status order = idx.CheckCoreOrder();
  ASSERT_TRUE(order.ok()) << context << ": " << order;
  if (edit % truss_every != 0) return;
  const EdgeList el = BuildEdgeList(g);
  const std::vector<int64_t> truss = TrussNumbers(g, el);
  for (size_t i = 0; i < el.edges.size(); ++i) {
    const auto [u, v] = el.edges[i];
    ASSERT_EQ(idx.CurrentTrussOf(u, v), truss[i])
        << context << " edge " << u << "-" << v;
  }
}

// Number of nodes per core number.
std::vector<int64_t> CoreClassSizes(const std::vector<int64_t>& core) {
  std::vector<int64_t> count(
      static_cast<size_t>(*std::max_element(core.begin(), core.end()) + 1));
  for (const int64_t c : core) ++count[static_cast<size_t>(c)];
  return count;
}

// The differential for the order-based core repair: `edits` seeded mixed
// edits (half deletions of a random present edge, half insertions of an
// absent pair, mostly inside one community), then a clique planted on
// `clique` nodes of the base's dominant core class and torn down again,
// so core numbers rise and fall by several levels. Both indices are
// compared with batch throughout: truss numbers every `truss_every` mixed
// edits and after every clique edit, where they move by several levels.
void RunDifferential(const Graph& base, uint64_t seed, int64_t edits,
                     int64_t clique, int64_t truss_every) {
  const auto idx_or =
      DynamicCommunityIndex::Create(std::make_shared<const Graph>(base));
  ASSERT_TRUE(idx_or.ok()) << idx_or.status();
  DynamicCommunityIndex& idx = **idx_or;
  ASSERT_TRUE(idx.CheckCoreOrder().ok()) << idx.CheckCoreOrder();
  EdgeModel model(base);
  const int64_t n = base.num_nodes();
  // Community members of each node, for inserts that stay inside one.
  std::vector<std::vector<NodeId>> community(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    if (community[v].empty()) {
      const std::vector<NodeId> members =
          base.CommunityMembers(base.CommunityOf(v));
      for (const NodeId m : members) community[m] = members;
    }
  }
  Rng rng(seed);
  int64_t edit = 0;
  while (edit < edits) {
    if (rng.Bernoulli(0.5) && model.size() > 0) {
      const auto [u, v] = model.RemoveAt(
          static_cast<size_t>(rng.NextInt(static_cast<int64_t>(model.size()))));
      ASSERT_TRUE(idx.DeleteEdge(u, v).ok());
    } else {
      const NodeId u = rng.NextInt(n);
      NodeId v = rng.NextInt(n);
      if (rng.Bernoulli(0.8)) {
        const std::vector<NodeId>& members = community[u];
        v = members[static_cast<size_t>(
            rng.NextInt(static_cast<int64_t>(members.size())))];
      }
      if (u == v || model.Has(u, v)) continue;
      model.Insert(u, v);
      ASSERT_TRUE(idx.InsertEdge(u, v).ok());
    }
    ExpectCoresMatchBatch(idx, model, ++edit, truss_every, "mixed");
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Clique phase on nodes of the most common core number.
  const std::vector<int64_t> core = idx.CurrentCoreNumbers();
  const std::vector<int64_t> count = CoreClassSizes(core);
  const int64_t dominant =
      std::max_element(count.begin(), count.end()) - count.begin();
  std::vector<NodeId> members;
  for (NodeId v = 0; v < n; ++v) {
    if (core[v] == dominant) members.push_back(v);
  }
  rng.Shuffle(&members);
  members.resize(static_cast<size_t>(clique));
  std::vector<std::pair<NodeId, NodeId>> planted;
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = i + 1; j < members.size(); ++j) {
      if (!model.Has(members[i], members[j])) {
        planted.emplace_back(members[i], members[j]);
      }
    }
  }
  for (const auto& [u, v] : planted) {
    model.Insert(u, v);
    ASSERT_TRUE(idx.InsertEdge(u, v).ok());
    ExpectCoresMatchBatch(idx, model, ++edit, /*truss_every=*/1,
                          "clique insert");
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const NodeId v : members) {
    EXPECT_GE(idx.CurrentCoreNumbers()[v], clique - 1) << "clique node " << v;
  }
  rng.Shuffle(&planted);
  for (const auto& [u, v] : planted) {
    model.Remove(u, v);
    ASSERT_TRUE(idx.DeleteEdge(u, v).ok());
    ExpectCoresMatchBatch(idx, model, ++edit, /*truss_every=*/1,
                          "clique delete");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(idx.delta_depth(), edit);
}

TEST(OrderBasedCoreRepair, PlantedPartitionWithOneDominantCoreClass) {
  // Servebench-shaped: planted communities whose nodes mostly share one
  // core number, so the K-class spans most of the graph.
  SyntheticConfig cfg;
  cfg.num_nodes = 1000;
  cfg.num_communities = 8;
  cfg.intra_degree = 10;
  cfg.inter_degree = 1.5;
  Rng rng(41);
  const Graph base = GenerateSyntheticGraph(cfg, &rng);
  const std::vector<int64_t> count = CoreClassSizes(CoreNumbers(base));
  ASSERT_GT(*std::max_element(count.begin(), count.end()), 800)
      << "expected one dominant core class";
  RunDifferential(base, /*seed=*/7, /*edits=*/10000, /*clique=*/16,
                  /*truss_every=*/100);
}

TEST(OrderBasedCoreRepair, SkewedDegreeGraph) {
  // Pareto-scaled degrees: hubs next to leaves, many core levels.
  SyntheticConfig cfg;
  cfg.num_nodes = 600;
  cfg.num_communities = 5;
  cfg.intra_degree = 8;
  cfg.inter_degree = 2;
  cfg.power_law_degrees = true;
  Rng rng(43);
  const Graph base = GenerateSyntheticGraph(cfg, &rng);
  RunDifferential(base, /*seed=*/11, /*edits=*/10000, /*clique=*/14,
                  /*truss_every=*/100);
}

TEST(DynamicCommunityIndex, CompactRebasesWithoutChangingAnswers) {
  Rng rng(1234);
  const auto base = Share(RandomGraph(&rng, 16, 30));
  const auto idx_or = DynamicCommunityIndex::Create(base);
  ASSERT_TRUE(idx_or.ok());
  DynamicCommunityIndex& idx = **idx_or;
  for (int step = 0; step < 40; ++step) {
    const NodeId u = rng.NextInt(16);
    const NodeId v = rng.NextInt(16);
    if (u != v) (void)idx.InsertEdge(u, v);
  }
  for (int step = 0; step < 10; ++step) {
    const NodeId u = rng.NextInt(16);
    const NodeId v = rng.NextInt(16);
    if (u != v) (void)idx.DeleteEdge(u, v);
  }
  const uint64_t version = idx.version();
  const std::vector<int64_t> core_before = idx.CurrentCoreNumbers();
  const auto community_before = idx.KCoreCommunity(3);
  ASSERT_TRUE(community_before.ok());

  const GraphDelta::Rebased first = idx.Compact();
  const std::shared_ptr<const Graph> snapshot = first.base;
  // Version lineage continues; the delta is empty again.
  EXPECT_EQ(first.version, version);
  EXPECT_EQ(idx.version(), version);
  EXPECT_EQ(idx.delta_depth(), 0);
  ASSERT_FALSE(first.dirty.empty());
  ExpectChangesAreDirty(*base, *snapshot, first.dirty, "first compact");
  // Maintained values carry over and still match batch on the snapshot.
  EXPECT_EQ(idx.CurrentCoreNumbers(), core_before);
  ExpectIndexMatchesSnapshot(idx, *snapshot, "post-compact");
  const auto community_after = idx.KCoreCommunity(3);
  ASSERT_TRUE(community_after.ok());
  EXPECT_EQ(*community_after, *community_before);
  ASSERT_TRUE(idx.CheckCoreOrder().ok()) << idx.CheckCoreOrder();

  // The delta was rebased in place: a second burst edits the same rows on
  // top of the new base, and a second compaction still matches batch.
  for (int step = 0; step < 30; ++step) {
    const NodeId u = rng.NextInt(16);
    const NodeId v = rng.NextInt(16);
    if (u == v) continue;
    (void)(rng.Bernoulli(0.5) ? idx.InsertEdge(u, v) : idx.DeleteEdge(u, v));
  }
  ASSERT_GT(idx.delta_depth(), 0);
  const uint64_t version2 = idx.version();
  const GraphDelta::Rebased second = idx.Compact();
  const std::shared_ptr<const Graph> snapshot2 = second.base;
  EXPECT_EQ(second.version, version2);
  EXPECT_EQ(idx.version(), version2);
  ExpectChangesAreDirty(*snapshot, *snapshot2, second.dirty,
                        "second compact");
  EXPECT_EQ(idx.delta_depth(), 0);
  EXPECT_EQ(idx.num_edges(), snapshot2->num_edges());
  ExpectIndexMatchesSnapshot(idx, *snapshot2, "post-second-compact");
  ASSERT_TRUE(idx.CheckCoreOrder().ok()) << idx.CheckCoreOrder();
}

// TSan target: compactions racing with writers. Each compaction reports
// its snapshot, version and dirty set from one writer lock, so the chain of
// snapshots only ever changes at reported dirty nodes, the versions never
// go back, and the last snapshot holds every edit.
TEST(DynamicCommunityIndex, ConcurrentCompactionsReportEveryFoldedEdit) {
  Rng rng(77);
  const auto base = Share(RandomGraph(&rng, 24, 40));
  const auto idx_or = DynamicCommunityIndex::Create(base);
  ASSERT_TRUE(idx_or.ok());
  DynamicCommunityIndex& idx = **idx_or;

  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&idx, t] {
      Rng wrng(300 + t);
      for (int i = 0; i < 300; ++i) {
        const NodeId u = wrng.NextInt(24);
        const NodeId v = wrng.NextInt(24);
        if (u == v) continue;
        (void)(wrng.Bernoulli(0.5) ? idx.InsertEdge(u, v)
                                   : idx.DeleteEdge(u, v));
      }
    });
  }
  std::vector<GraphDelta::Rebased> folds;
  for (int i = 0; i < 40; ++i) folds.push_back(idx.Compact());
  for (auto& th : writers) th.join();
  folds.push_back(idx.Compact());

  std::shared_ptr<const Graph> prev = base;
  uint64_t prev_version = 0;
  for (size_t i = 0; i < folds.size(); ++i) {
    const std::string context = "fold " + std::to_string(i);
    EXPECT_GE(folds[i].version, prev_version) << context;
    ExpectChangesAreDirty(*prev, *folds[i].base, folds[i].dirty, context);
    prev = folds[i].base;
    prev_version = folds[i].version;
  }
  EXPECT_EQ(prev_version, idx.version());
  EXPECT_EQ(idx.delta_depth(), 0);
  ExpectIndexMatchesSnapshot(idx, *prev, "after concurrent compactions");
}

TEST(DynamicCommunityIndex, WarmEditsAllocateNothing) {
  SyntheticConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_communities = 3;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1;
  Rng rng(5);
  const Graph base = GenerateSyntheticGraph(cfg, &rng);
  // The edge on the most triangles: deleting and re-inserting it moves
  // truss numbers through the candidate search and the downward repair.
  NodeId u = 0;
  NodeId v = 0;
  size_t best = 0;
  for (NodeId a = 0; a < base.num_nodes(); ++a) {
    for (const NodeId b : base.Neighbors(a)) {
      std::vector<NodeId> common;
      std::set_intersection(base.Neighbors(a).begin(), base.Neighbors(a).end(),
                            base.Neighbors(b).begin(), base.Neighbors(b).end(),
                            std::back_inserter(common));
      if (common.size() > best) {
        best = common.size();
        u = a;
        v = b;
      }
    }
  }
  const auto idx_or = DynamicCommunityIndex::Create(Share(base));
  ASSERT_TRUE(idx_or.ok()) << idx_or.status();
  DynamicCommunityIndex& idx = **idx_or;
  ASSERT_GE(idx.CurrentTrussOf(u, v), 4) << "expected a triangle-rich edge";
  const auto round = [&] {
    const Status del = idx.Apply(GraphEdit{/*insert=*/false, u, v});
    const Status ins = idx.Apply(GraphEdit{/*insert=*/true, u, v});
    return del.ok() && ins.ok();
  };
  ASSERT_TRUE(round());  // warm-up: rows and scratch reach their sizes
  testing::StartCountingNews();
  bool ok = true;
  for (int i = 0; i < 100; ++i) ok = round() && ok;
  testing::StopCountingNews();
  ASSERT_TRUE(ok);
  EXPECT_EQ(testing::CountedNews(), 0)
      << "heap allocations over 100 warm rounds";
  ExpectIndexMatchesSnapshot(idx, base, "after warm rounds");
}

uint64_t RepairTimings(const char* index) {
  return obs::MetricsRegistry::Default()
      .GetHistogram("cgnp_dynamic_repair_ms", {{"index", index}})
      .Snapshot()
      .count;
}

TEST(DynamicCommunityIndex, RecordsRepairTimePerAppliedEdit) {
  const auto idx_or =
      DynamicCommunityIndex::Create(Share(testing::PathGraph(4)));
  ASSERT_TRUE(idx_or.ok()) << idx_or.status();
  DynamicCommunityIndex& idx = **idx_or;
  const uint64_t core_before = RepairTimings("core");
  const uint64_t truss_before = RepairTimings("truss");
  ASSERT_TRUE(idx.InsertEdge(0, 2).ok());
  ASSERT_TRUE(idx.InsertEdge(0, 2).ok());  // idempotent: no repair
  ASSERT_TRUE(idx.DeleteEdge(1, 2).ok());
  EXPECT_FALSE(idx.DeleteEdge(1, 2).ok());  // rejected: no repair
  // Only counted when the obs record path is compiled in.
  const uint64_t expected = CGNP_OBS_ENABLED ? 2 : 0;
  EXPECT_EQ(RepairTimings("core") - core_before, expected);
  EXPECT_EQ(RepairTimings("truss") - truss_before, expected);
}

TEST(SearcherRegistry, IncrementalBackendsAnswerFromTheIndex) {
  ASSERT_TRUE(IsSearcherRegistered("kcore_inc"));
  ASSERT_TRUE(IsSearcherRegistered("ktruss_inc"));
  // Without an index the factories refuse.
  const auto no_index = MakeSearcher("kcore_inc");
  ASSERT_FALSE(no_index.ok());
  EXPECT_EQ(no_index.status().code(), StatusCode::kInvalidArgument);

  Rng rng(5);
  const Graph base = RandomGraph(&rng, 20, 36);
  const auto idx_or = DynamicCommunityIndex::Create(Share(base));
  ASSERT_TRUE(idx_or.ok());
  SearcherConfig cfg;
  cfg.dynamic_index = *idx_or;
  const auto kcore_inc = MakeSearcher("kcore_inc", cfg);
  ASSERT_TRUE(kcore_inc.ok()) << kcore_inc.status();
  const auto ktruss_inc = MakeSearcher("ktruss_inc", cfg);
  ASSERT_TRUE(ktruss_inc.ok()) << ktruss_inc.status();

  // Mutate through the index; the searchers see the new version even
  // though the Graph handed to Search is the stale base snapshot.
  ASSERT_TRUE((*idx_or)->InsertEdge(0, 1).ok());
  const Graph current = [&] {
    GraphBuilder b(base.num_nodes());
    for (NodeId v = 0; v < base.num_nodes(); ++v) {
      for (const NodeId u : base.Neighbors(v)) {
        if (u > v) b.AddEdge(v, u);
      }
    }
    b.AddEdge(0, 1);
    return b.Build();
  }();
  for (NodeId q : {NodeId{0}, NodeId{7}, NodeId{13}}) {
    const auto rc = (*kcore_inc)->Search(base, q, {}, {});
    ASSERT_TRUE(rc.ok()) << rc.status();
    EXPECT_EQ(rc->members, KCoreCommunity(current, q)) << "query " << q;
    EXPECT_EQ(rc->backend, "kcore_inc");
    const auto rt = (*ktruss_inc)->Search(base, q, {}, {});
    ASSERT_TRUE(rt.ok()) << rt.status();
    EXPECT_EQ(rt->members, KTrussCommunity(current, q)) << "query " << q;
  }
  // Error contract matches the batch adapters.
  const auto bad = (*kcore_inc)->Search(base, -3, {}, {});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  // A support example with an out-of-range id.
  QueryExample bad_support;
  bad_support.query = 0;
  bad_support.pos = {base.num_nodes()};
  const auto kcore = MakeSearcher("kcore");
  ASSERT_TRUE(kcore.ok()) << kcore.status();
  for (const auto* searcher :
       {kcore->get(), kcore_inc->get(), ktruss_inc->get()}) {
    const auto r = searcher->Search(base, 0, {bad_support}, {});
    ASSERT_FALSE(r.ok()) << searcher->name();
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << searcher->name();
  }
}

}  // namespace
}  // namespace cgnp
