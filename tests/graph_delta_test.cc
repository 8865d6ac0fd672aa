#include "graph/delta.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "gtest/gtest.h"
#include "tensor/rng.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

std::shared_ptr<const Graph> Share(Graph g) {
  return std::make_shared<const Graph>(std::move(g));
}

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;  // canonical u < v

// The structural acceptance contract of the delta: compacting it must
// produce the same CSR, byte for byte, as building the expected edge set
// from scratch -- GraphBuilder's canonicalisation is the single source of
// truth for snapshot layout. `model` is that edge set, kept independently
// of the delta by the caller.
void ExpectCompactMatchesRebuild(const GraphDelta& delta,
                                 const EdgeSet& model) {
  const Graph compacted = delta.Compact();
  GraphBuilder b(delta.num_nodes());
  for (const auto& [u, v] : model) b.AddEdge(u, v);
  const Graph rebuilt = b.Build();
  ASSERT_EQ(compacted.num_nodes(), rebuilt.num_nodes());
  const auto rp_c = compacted.row_ptr();
  const auto rp_r = rebuilt.row_ptr();
  ASSERT_TRUE(std::equal(rp_c.begin(), rp_c.end(), rp_r.begin(), rp_r.end()));
  const auto ci_c = compacted.col_idx();
  const auto ci_r = rebuilt.col_idx();
  ASSERT_TRUE(std::equal(ci_c.begin(), ci_c.end(), ci_r.begin(), ci_r.end()));
}

TEST(GraphDelta, StartsAtVersionZeroWithNoEdits) {
  const auto base = Share(testing::PathGraph(4));
  GraphDelta delta(base);
  EXPECT_EQ(delta.version(), 0u);
  EXPECT_EQ(delta.depth(), 0);
  EXPECT_EQ(delta.num_nodes(), 4);
  EXPECT_EQ(delta.num_edges(), 3);
  EXPECT_TRUE(delta.DirtyNodes().empty());
  EXPECT_TRUE(delta.HasEdge(0, 1));
  EXPECT_FALSE(delta.HasEdge(0, 2));
}

TEST(GraphDelta, InsertAndDeleteUpdateTheView) {
  const auto base = Share(testing::PathGraph(4));  // 0-1-2-3
  GraphDelta delta(base);
  ASSERT_TRUE(delta.InsertEdge(0, 3).ok());
  ASSERT_TRUE(delta.DeleteEdge(1, 2).ok());
  EXPECT_EQ(delta.version(), 2u);
  EXPECT_EQ(delta.depth(), 2);
  EXPECT_EQ(delta.num_edges(), 3);
  EXPECT_TRUE(delta.HasEdge(0, 3));
  EXPECT_TRUE(delta.HasEdge(3, 0));
  EXPECT_FALSE(delta.HasEdge(1, 2));
  EXPECT_EQ(delta.Degree(0), 2);
  EXPECT_EQ(delta.Degree(1), 1);
  EXPECT_EQ(delta.NeighborsOf(0), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(delta.NeighborsOf(2), (std::vector<NodeId>{3}));
  const std::vector<NodeId> dirty = delta.DirtyNodes();
  EXPECT_EQ(dirty, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(delta.IsDirty(0));
}

TEST(GraphDelta, MutationErrorsFollowTheContract) {
  const auto base = Share(testing::PathGraph(3));
  GraphDelta delta(base);

  // Out-of-range endpoints: OutOfRange, no state change.
  EXPECT_EQ(delta.InsertEdge(-1, 0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(delta.InsertEdge(0, 3).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(delta.DeleteEdge(7, 0).code(), StatusCode::kOutOfRange);
  // Self loops: InvalidArgument.
  EXPECT_EQ(delta.InsertEdge(1, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(delta.DeleteEdge(1, 1).code(), StatusCode::kInvalidArgument);
  // Deleting an absent edge: NotFound.
  EXPECT_EQ(delta.DeleteEdge(0, 2).code(), StatusCode::kNotFound);
  // None of the rejected calls advanced the version or dirtied anything.
  EXPECT_EQ(delta.version(), 0u);
  EXPECT_EQ(delta.depth(), 0);
  EXPECT_TRUE(delta.DirtyNodes().empty());
}

TEST(GraphDelta, IdempotentInsertIsANoOpWithoutVersionBump) {
  const auto base = Share(testing::PathGraph(3));
  GraphDelta delta(base);
  ASSERT_TRUE(delta.InsertEdge(0, 1).ok());  // already in the base
  EXPECT_EQ(delta.version(), 0u);
  EXPECT_EQ(delta.num_edges(), 2);
  ASSERT_TRUE(delta.InsertEdge(0, 2).ok());
  EXPECT_EQ(delta.version(), 1u);
  ASSERT_TRUE(delta.InsertEdge(2, 0).ok());  // same edge, other orientation
  EXPECT_EQ(delta.version(), 1u);
  EXPECT_EQ(delta.num_edges(), 3);
}

TEST(GraphDelta, ReinsertingADeletedBaseEdgeRestoresIt) {
  const auto base = Share(testing::PathGraph(3));
  GraphDelta delta(base);
  ASSERT_TRUE(delta.DeleteEdge(0, 1).ok());
  EXPECT_FALSE(delta.HasEdge(0, 1));
  EXPECT_EQ(delta.num_edges(), 1);
  EXPECT_EQ(delta.version(), 1u);
  ASSERT_TRUE(delta.InsertEdge(1, 0).ok());
  EXPECT_TRUE(delta.HasEdge(0, 1));
  EXPECT_EQ(delta.num_edges(), 2);
  // Two real edits happened even though the edge set is back to the base.
  EXPECT_EQ(delta.version(), 2u);
  ExpectCompactMatchesRebuild(delta, {{0, 1}, {1, 2}});
}

TEST(GraphDelta, DeletingAFreshInsertDropsIt) {
  const auto base = Share(testing::PathGraph(3));
  GraphDelta delta(base);
  ASSERT_TRUE(delta.InsertEdge(0, 2).ok());
  EXPECT_TRUE(delta.HasEdge(2, 0));
  EXPECT_EQ(delta.num_edges(), 3);
  ASSERT_TRUE(delta.DeleteEdge(0, 2).ok());
  EXPECT_FALSE(delta.HasEdge(0, 2));
  EXPECT_EQ(delta.num_edges(), 2);
  EXPECT_EQ(delta.version(), 2u);
  ExpectCompactMatchesRebuild(delta, {{0, 1}, {1, 2}});
}

TEST(GraphDelta, RebaseKeepsTheRowsAndTheVersionLineage) {
  const auto base = Share(testing::PathGraph(4));  // 0-1-2-3
  GraphDelta delta(base);
  ASSERT_TRUE(delta.InsertEdge(0, 3).ok());
  ASSERT_TRUE(delta.DeleteEdge(1, 2).ok());
  const GraphDelta::Rebased rebased = delta.Rebase();
  // The new base is the compaction, reported with the version it holds and
  // the nodes its edits dirtied; the version carries on, the depth and the
  // dirty set start again.
  EXPECT_EQ(&delta.base(), rebased.base.get());
  EXPECT_TRUE(rebased.base->HasEdge(0, 3));
  EXPECT_FALSE(rebased.base->HasEdge(1, 2));
  EXPECT_EQ(rebased.version, 2u);
  EXPECT_EQ(rebased.dirty, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(delta.version(), 2u);
  EXPECT_EQ(delta.depth(), 0);
  EXPECT_TRUE(delta.DirtyNodes().empty());
  EXPECT_EQ(delta.NeighborsOf(0), (std::vector<NodeId>{1, 3}));
  // Editing goes on from the rebased state.
  ASSERT_TRUE(delta.InsertEdge(1, 2).ok());
  EXPECT_EQ(delta.version(), 3u);
  EXPECT_EQ(delta.depth(), 1);
  EXPECT_EQ(delta.DirtyNodes(), (std::vector<NodeId>{1, 2}));
  ExpectCompactMatchesRebuild(delta, {{0, 1}, {0, 3}, {1, 2}, {2, 3}});
}

TEST(GraphDelta, CompactCarriesFeaturesAttributesAndCommunities) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.SetFeatures(2, {0.f, 1.f, 2.f, 3.f, 4.f, 5.f});
  b.SetAttributes({{3, 1}, {2}, {}});
  b.SetCommunities({0, 0, 1});
  const auto base = Share(b.Build());
  GraphDelta delta(base);
  ASSERT_TRUE(delta.InsertEdge(0, 2).ok());
  const Graph g = delta.Compact();
  ASSERT_TRUE(g.has_features());
  EXPECT_EQ(g.feature_dim(), 2);
  EXPECT_EQ(g.features()[5], 5.f);
  ASSERT_TRUE(g.has_attributes());
  EXPECT_EQ(g.Attributes(0), (std::vector<int32_t>{1, 3}));  // sorted
  ASSERT_TRUE(g.has_communities());
  EXPECT_EQ(g.CommunityOf(2), 1);
  EXPECT_TRUE(g.HasEdge(0, 2));
}

TEST(GraphDelta, PropertyRandomInterleavingCompactsToFromScratchBuild) {
  // Random edit sequences against a random base; after every burst the
  // delta must track a std::set reference model exactly -- edge by edge,
  // degree and row per node, dirty set = endpoints of applied edits --
  // and its compaction must equal the from-scratch build of the model.
  Rng rng(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t n = 2 + rng.NextInt(12);
    GraphBuilder b(n);
    EdgeSet model;
    for (int64_t e = 0; e < 2 * n; ++e) {
      const NodeId u = rng.NextInt(n);
      const NodeId v = rng.NextInt(n);
      if (u == v) continue;
      b.AddEdge(u, v);
      model.emplace(std::min(u, v), std::max(u, v));
    }
    const auto base = Share(b.Build());
    GraphDelta delta(base);
    uint64_t version = 0;
    std::set<NodeId> touched;
    for (int step = 0; step < 120; ++step) {
      const NodeId u = rng.NextInt(n);
      const NodeId v = rng.NextInt(n);
      if (u == v) continue;
      const auto key = std::make_pair(std::min(u, v), std::max(u, v));
      bool applied = false;
      if (rng.Bernoulli(0.5)) {
        const Status s = delta.InsertEdge(u, v);
        ASSERT_TRUE(s.ok()) << s;
        applied = model.insert(key).second;  // real insert bumps
      } else {
        const Status s = delta.DeleteEdge(u, v);
        if (model.erase(key) > 0) {
          ASSERT_TRUE(s.ok()) << s;
          applied = true;
        } else {
          ASSERT_EQ(s.code(), StatusCode::kNotFound) << s;
        }
      }
      if (applied) {
        ++version;
        touched.insert({u, v});
      }
      ASSERT_EQ(delta.version(), version);
      ASSERT_EQ(delta.num_edges(), static_cast<int64_t>(model.size()));
    }
    // The delta == reference model, edge by edge and row by row.
    std::vector<std::vector<NodeId>> rows(static_cast<size_t>(n));
    for (const auto& [u, v] : model) {
      rows[u].push_back(v);
      rows[v].push_back(u);
    }
    for (NodeId u = 0; u < n; ++u) {
      std::sort(rows[u].begin(), rows[u].end());
      ASSERT_EQ(delta.NeighborsOf(u), rows[u])
          << "trial " << trial << " node " << u;
      ASSERT_EQ(delta.Degree(u), static_cast<int64_t>(rows[u].size()))
          << "trial " << trial << " node " << u;
      for (NodeId v = u + 1; v < n; ++v) {
        ASSERT_EQ(delta.HasEdge(u, v), model.count({u, v}) > 0)
            << "trial " << trial << " edge " << u << "-" << v;
      }
    }
    ASSERT_EQ(delta.DirtyNodes(),
              std::vector<NodeId>(touched.begin(), touched.end()))
        << "trial " << trial;
    ExpectCompactMatchesRebuild(delta, model);
  }
}

TEST(ParseEditList, ParsesSignsCommentsAndBlankLines) {
  const auto edits = ParseEditList(
      "# comment\n"
      "+0 1\n"
      "\n"
      "  - 2  3 \r\n"
      "+4\t5\n");
  ASSERT_TRUE(edits.ok()) << edits.status();
  ASSERT_EQ(edits->size(), 3u);
  EXPECT_TRUE((*edits)[0].insert);
  EXPECT_EQ((*edits)[0].u, 0);
  EXPECT_EQ((*edits)[0].v, 1);
  EXPECT_FALSE((*edits)[1].insert);
  EXPECT_EQ((*edits)[1].u, 2);
  EXPECT_EQ((*edits)[1].v, 3);
  EXPECT_TRUE((*edits)[2].insert);
  EXPECT_EQ((*edits)[2].v, 5);
}

TEST(ParseEditList, RejectsMalformedLinesWithLineNumbers) {
  for (const char* bad : {"0 1\n", "+0\n", "+0 1 2\n", "+x y\n", "+-1 2\n",
                          "* 0 1\n", "+0 1 trailing\n"}) {
    const auto edits = ParseEditList(bad);
    ASSERT_FALSE(edits.ok()) << "accepted: " << bad;
    EXPECT_EQ(edits.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(edits.status().message().find("line 1"), std::string::npos)
        << edits.status();
  }
  // The line number points at the offending line, not the count of edits.
  const auto edits = ParseEditList("+0 1\n# fine\nbogus\n");
  ASSERT_FALSE(edits.ok());
  EXPECT_NE(edits.status().message().find("line 3"), std::string::npos)
      << edits.status();
}

TEST(ApplyEditList, ErrorsNameTheFailingEdit) {
  const auto base = Share(testing::PathGraph(3));
  GraphDelta delta(base);
  const auto edits = ParseEditList("+0 2\n-0 1\n-0 1\n");
  ASSERT_TRUE(edits.ok()) << edits.status();
  const Status s = ApplyEditList(&delta, *edits);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("edit #2"), std::string::npos) << s;
  // The edits before the failure stayed applied (apply is not atomic;
  // the CLI surfaces the error and discards the delta instead).
  EXPECT_TRUE(delta.HasEdge(0, 2));
  EXPECT_FALSE(delta.HasEdge(0, 1));
}

TEST(CheckNodeId, GatesExternalIds) {
  const Graph g = testing::PathGraph(2);
  EXPECT_TRUE(CheckNodeId(g, 0).ok());
  EXPECT_TRUE(CheckNodeId(g, 1).ok());
  EXPECT_EQ(CheckNodeId(g, -1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(CheckNodeId(g, 2).code(), StatusCode::kOutOfRange);
  const Status s = CheckNodeId(g, 9, "query");
  EXPECT_NE(s.message().find("query node id 9"), std::string::npos) << s;
  // Empty graph: every id is out of range.
  const Graph empty;
  EXPECT_EQ(CheckNodeId(empty, 0).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace cgnp
