#include "cs/searcher.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "core/cgnp_searcher.h"
#include "core/engine.h"
#include "cs/acq.h"
#include "cs/atc.h"
#include "cs/ctc.h"
#include "cs/kclique_community.h"
#include "cs/kcore_community.h"
#include "cs/kecc_community.h"
#include "cs/ktruss_community.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "obs/trace.h"

namespace cgnp {
namespace {

Graph PlantedGraph(uint64_t seed = 1) {
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_communities = 5;
  cfg.intra_degree = 10;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  cfg.attr_affinity = 0.9;
  return GenerateSyntheticGraph(cfg, &rng);
}

TEST(SearcherRegistryTest, BuiltinsAreRegistered) {
  const auto names = RegisteredSearcherNames();
  const std::set<std::string> name_set(names.begin(), names.end());
  for (const char* expected : {"kcore", "ktruss", "kclique", "kecc", "acq",
                               "atc", "ctc", "cgnp"}) {
    EXPECT_TRUE(name_set.count(expected))
        << "built-in backend missing from the registry: " << expected;
    EXPECT_TRUE(IsSearcherRegistered(expected));
  }
}

TEST(SearcherRegistryTest, UnknownNameReturnsNotFound) {
  const auto searcher = MakeSearcher("no-such-backend");
  ASSERT_FALSE(searcher.ok());
  EXPECT_EQ(searcher.status().code(), StatusCode::kNotFound);
  // The error names the alternatives, so a typo is self-diagnosing.
  EXPECT_NE(searcher.status().message().find("ktruss"), std::string::npos)
      << searcher.status();
}

TEST(SearcherRegistryTest, DuplicateRegistrationRejected) {
  const Status again = RegisterSearcherFactory(
      "kcore", [](const SearcherConfig&)
                   -> StatusOr<std::unique_ptr<CommunitySearcher>> {
        return InvalidArgumentError("never called");
      });
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
}

TEST(SearcherRegistryTest, CustomBackendRegistersAndResolves) {
  class EchoSearcher : public CommunitySearcher {
   public:
    const std::string& name() const override {
      static const std::string kName = "echo-test";
      return kName;
    }
    StatusOr<QueryResult> Search(const Graph&, NodeId query,
                                 const std::vector<QueryExample>&,
                                 const QueryOptions&) const override {
      // A backend opens its own depth-0 span; QueryServer adds none.
      CGNP_TRACE_SPAN("search");
      QueryResult r;
      r.backend = name();
      r.members = {query};
      return r;
    }
  };
  ASSERT_TRUE(RegisterSearcherFactory(
                  "echo-test",
                  [](const SearcherConfig&)
                      -> StatusOr<std::unique_ptr<CommunitySearcher>> {
                    return std::unique_ptr<CommunitySearcher>(
                        new EchoSearcher());
                  })
                  .ok());
  auto made = MakeSearcher("echo-test");
  ASSERT_TRUE(made.ok()) << made.status();
  Graph g = PlantedGraph();
  const auto result = (*made)->Search(g, 7, {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->members, std::vector<NodeId>({7}));
}

// The acceptance contract: every classical adapter returns exactly the
// node set the direct src/cs/ call returns.
TEST(ClassicalAdapterTest, AdaptersMatchDirectCalls) {
  Graph g = PlantedGraph();
  const std::vector<NodeId> queries = {3, 17, 101};

  const auto direct_of = [&g](const std::string& name, NodeId q) {
    if (name == "kcore") return KCoreCommunity(g, q);
    if (name == "ktruss") return KTrussCommunity(g, q);
    if (name == "kclique") return KCliqueCommunity(g, q);
    if (name == "kecc") return KEccCommunity(g, q);
    if (name == "acq") return AttributedCommunityQuery(g, q);
    if (name == "atc") return AttributedTrussCommunity(g, q);
    return ClosestTrussCommunity(g, q);
  };

  for (const char* name : {"kcore", "ktruss", "kclique", "kecc", "acq",
                           "atc", "ctc"}) {
    auto searcher = MakeSearcher(name);
    ASSERT_TRUE(searcher.ok()) << searcher.status();
    EXPECT_EQ((*searcher)->name(), name);
    for (const NodeId q : queries) {
      const auto result = (*searcher)->Search(g, q, {}, {});
      ASSERT_TRUE(result.ok()) << name << " on query " << q << ": "
                               << result.status();
      EXPECT_EQ(result->members, direct_of(name, q))
          << name << " adapter diverged from the direct call on query " << q;
      EXPECT_EQ(result->backend, name);
      EXPECT_TRUE(result->probs.empty()) << "classical membership is crisp";
      EXPECT_GE(result->elapsed_ms, 0.0);
    }
  }
}

TEST(ClassicalAdapterTest, ConfigKnobsReachTheAlgorithm) {
  Graph g = PlantedGraph();
  SearcherConfig cfg;
  cfg.k = 2;
  auto k2 = MakeSearcher("kcore", cfg);
  ASSERT_TRUE(k2.ok());
  const auto result = (*k2)->Search(g, 17, {}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->members, KCoreCommunity(g, 17, 2));
}

TEST(ClassicalAdapterTest, KCliqueRejectsInfeasibleK) {
  // k = 1 would trip the clique enumerator's k >= 2 internal invariant;
  // config is public input, so construction must error instead.
  SearcherConfig cfg;
  cfg.k = 1;
  const auto searcher = MakeSearcher("kclique", cfg);
  ASSERT_FALSE(searcher.ok());
  EXPECT_EQ(searcher.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClassicalAdapterTest, ErrorPathsReturnStatus) {
  Graph g = PlantedGraph();
  auto searcher = MakeSearcher("kcore");
  ASSERT_TRUE(searcher.ok());

  // Out-of-range query id.
  const auto bad_query = (*searcher)->Search(g, g.num_nodes() + 1, {}, {});
  ASSERT_FALSE(bad_query.ok());
  EXPECT_EQ(bad_query.status().code(), StatusCode::kOutOfRange);

  // Out-of-range support id.
  QueryExample obs;
  obs.query = 0;
  obs.neg.push_back(-4);
  const auto bad_support = (*searcher)->Search(g, 3, {obs}, {});
  ASSERT_FALSE(bad_support.ok());
  EXPECT_EQ(bad_support.status().code(), StatusCode::kOutOfRange);

  // Empty graph.
  const Graph empty;
  const auto no_graph = (*searcher)->Search(empty, 0, {}, {});
  ASSERT_FALSE(no_graph.ok());
  EXPECT_EQ(no_graph.status().code(), StatusCode::kInvalidArgument);
}

TEST(CgnpSearcherTest, WrapsTrainedEngineAndMatchesQuery) {
  Graph g = PlantedGraph();
  CommunitySearchEngine::Options opt;
  opt.model.encoder = GnnKind::kGcn;
  opt.model.hidden_dim = 16;
  opt.model.num_layers = 2;
  opt.model.epochs = 3;
  opt.model.lr = 5e-3f;
  opt.tasks.subgraph_size = 60;
  opt.tasks.query_set_size = 6;
  opt.num_train_tasks = 4;
  auto engine = std::make_shared<CommunitySearchEngine>(opt);
  ASSERT_TRUE(engine->Fit(g).ok());

  auto searcher = MakeCgnpSearcher(engine);
  ASSERT_TRUE(searcher.ok()) << searcher.status();
  EXPECT_EQ((*searcher)->name(), "cgnp");
  const auto via_searcher = (*searcher)->Search(g, 17, {}, {});
  ASSERT_TRUE(via_searcher.ok()) << via_searcher.status();
  EXPECT_EQ(via_searcher->backend, "cgnp");
  EXPECT_EQ(via_searcher->members, engine->Query(g, 17).value().members);
  EXPECT_EQ(via_searcher->members.size(), via_searcher->probs.size());
}

TEST(CgnpSearcherTest, UntrainedEngineRejected) {
  auto engine = std::make_shared<CommunitySearchEngine>(
      CommunitySearchEngine::Options{});
  const auto searcher = MakeCgnpSearcher(engine);
  ASSERT_FALSE(searcher.ok());
  EXPECT_EQ(searcher.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CgnpSearcherTest, RegistryFactoryNeedsCheckpoint) {
  const auto searcher = MakeSearcher("cgnp");  // no checkpoint configured
  ASSERT_FALSE(searcher.ok());
  EXPECT_EQ(searcher.status().code(), StatusCode::kInvalidArgument);
}

TEST(CgnpSearcherTest, RegistryFactoryLoadsCheckpoint) {
  Graph g = PlantedGraph();
  CommunitySearchEngine::Options opt;
  opt.model.encoder = GnnKind::kGcn;
  opt.model.hidden_dim = 16;
  opt.model.num_layers = 2;
  opt.model.epochs = 2;
  opt.tasks.subgraph_size = 60;
  opt.tasks.query_set_size = 6;
  opt.num_train_tasks = 4;
  CommunitySearchEngine engine(opt);
  ASSERT_TRUE(engine.Fit(g).ok());
  const std::string path = ::testing::TempDir() + "searcher_engine.ckpt";
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  SearcherConfig cfg;
  cfg.checkpoint = path;
  auto searcher = MakeSearcher("cgnp", cfg);
  std::remove(path.c_str());
  ASSERT_TRUE(searcher.ok()) << searcher.status();
  const auto result = (*searcher)->Search(g, 17, {}, {});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->members, engine.Query(g, 17).value().members)
      << "checkpoint-restored backend diverged from the source engine";
}

}  // namespace
}  // namespace cgnp
