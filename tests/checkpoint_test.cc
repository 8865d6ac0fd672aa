#include "core/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/engine.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "tensor/io.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

Graph PlantedGraph(uint64_t seed = 1) {
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_nodes = 500;
  cfg.num_communities = 5;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  cfg.attr_affinity = 0.9;
  return GenerateSyntheticGraph(cfg, &rng);
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(TensorIo, PrimitivesRoundTrip) {
  std::stringstream ss;
  io::WriteU32(ss, 0xDEADBEEFu);
  io::WriteU64(ss, 0x0123456789ABCDEFull);
  io::WriteI64(ss, -42);
  io::WriteF32(ss, 3.5f);
  io::WriteString(ss, "cgnp");
  EXPECT_EQ(io::ReadU32(ss), 0xDEADBEEFu);
  EXPECT_EQ(io::ReadU64(ss), 0x0123456789ABCDEFull);
  EXPECT_EQ(io::ReadI64(ss), -42);
  EXPECT_EQ(io::ReadF32(ss), 3.5f);
  EXPECT_EQ(io::ReadString(ss), "cgnp");
}

TEST(TensorIo, TensorRoundTrip) {
  Rng rng(3);
  Tensor t = Tensor::Randn({4, 3}, &rng);
  std::stringstream ss;
  io::WriteTensor(ss, t);
  Tensor back = io::ReadTensor(ss);
  ASSERT_EQ(back.shape(), t.shape());
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(back.data()[i], t.data()[i]);  // bitwise
  }
}

TEST(TensorIo, ReadTensorIntoValidatesShape) {
  Rng rng(4);
  Tensor t = Tensor::Randn({2, 5}, &rng);
  std::stringstream ss;
  io::WriteTensor(ss, t);
  Tensor same = Tensor::Zeros({2, 5});
  io::ReadTensorInto(ss, &same);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(same.data()[i], t.data()[i]);
  }
}

TEST(Checkpoint, ConfigRoundTrip) {
  CgnpConfig cfg;
  cfg.encoder = GnnKind::kSage;
  cfg.commutative = CommutativeOp::kAttention;
  cfg.decoder = DecoderKind::kMlp;
  cfg.hidden_dim = 48;
  cfg.num_layers = 2;
  cfg.decoder_layers = 3;
  cfg.dropout = 0.1f;
  cfg.lr = 1e-3f;
  cfg.epochs = 17;
  cfg.seed = 99;
  std::stringstream ss;
  WriteCgnpConfig(ss, cfg);
  const CgnpConfig back = ReadCgnpConfig(ss).value();
  EXPECT_EQ(back.encoder, cfg.encoder);
  EXPECT_EQ(back.commutative, cfg.commutative);
  EXPECT_EQ(back.decoder, cfg.decoder);
  EXPECT_EQ(back.hidden_dim, cfg.hidden_dim);
  EXPECT_EQ(back.num_layers, cfg.num_layers);
  EXPECT_EQ(back.decoder_layers, cfg.decoder_layers);
  EXPECT_EQ(back.dropout, cfg.dropout);
  EXPECT_EQ(back.lr, cfg.lr);
  EXPECT_EQ(back.epochs, cfg.epochs);
  EXPECT_EQ(back.seed, cfg.seed);
}

TEST(Checkpoint, TaskConfigRoundTrip) {
  TaskConfig cfg;
  cfg.subgraph_size = 123;
  cfg.shots = 4;
  cfg.query_set_size = 9;
  cfg.pos_samples = 3;
  cfg.neg_samples = 7;
  cfg.clamp_samples = true;
  std::stringstream ss;
  WriteTaskConfig(ss, cfg);
  const TaskConfig back = ReadTaskConfig(ss).value();
  EXPECT_EQ(back.subgraph_size, cfg.subgraph_size);
  EXPECT_EQ(back.shots, cfg.shots);
  EXPECT_EQ(back.query_set_size, cfg.query_set_size);
  EXPECT_EQ(back.pos_samples, cfg.pos_samples);
  EXPECT_EQ(back.neg_samples, cfg.neg_samples);
  EXPECT_EQ(back.clamp_samples, cfg.clamp_samples);
}

TEST(Checkpoint, ModelRoundTripBitwiseIdenticalPredictions) {
  Graph g = PlantedGraph();
  const int64_t attr_dim = AttributeDim(g);

  TaskConfig task_cfg;
  task_cfg.subgraph_size = 80;
  task_cfg.shots = 2;
  task_cfg.query_set_size = 6;
  Rng task_rng(5);
  CsTask task;
  ASSERT_TRUE(SampleTask(g, task_cfg, {}, attr_dim, &task_rng, &task));

  CgnpConfig cfg;
  cfg.encoder = GnnKind::kGcn;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  Rng model_rng(cfg.seed);
  CgnpModel model(cfg, task.graph.feature_dim(), &model_rng);
  // A couple of training steps so the saved parameters are not the init.
  CgnpMetaTrain(&model, {task}, /*epochs=*/2, /*lr=*/1e-3f, /*seed=*/3);

  const auto before = CgnpMetaTest(model, task);
  const std::string path = TempPath("model.ckpt");
  ASSERT_TRUE(CgnpModelSave(model, path).ok());
  const auto loaded = CgnpModelLoad(path).value();
  std::remove(path.c_str());

  EXPECT_EQ(loaded->config().encoder, cfg.encoder);
  EXPECT_EQ(loaded->feature_dim(), task.graph.feature_dim());
  EXPECT_FALSE(loaded->training()) << "checkpoints load in eval mode";

  // Parameters round-trip bitwise...
  const auto p0 = model.FlatParameters();
  const auto p1 = loaded->FlatParameters();
  ASSERT_EQ(p0.size(), p1.size());
  for (size_t i = 0; i < p0.size(); ++i) EXPECT_EQ(p0[i], p1[i]);

  // ...and so do the predictions.
  const auto after = CgnpMetaTest(*loaded, task);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(before[i].size(), after[i].size());
    for (size_t j = 0; j < before[i].size(); ++j) {
      EXPECT_EQ(before[i][j], after[i][j])
          << "prediction drifted at query " << i << " node " << j;
    }
  }
}

TEST(Checkpoint, EngineRoundTripSearchIdentical) {
  Graph g = PlantedGraph();
  CommunitySearchEngine::Options opt;
  opt.model.encoder = GnnKind::kGcn;
  opt.model.hidden_dim = 16;
  opt.model.num_layers = 2;
  opt.model.epochs = 4;
  opt.model.lr = 5e-3f;
  opt.tasks.subgraph_size = 80;
  opt.tasks.shots = 2;
  opt.tasks.query_set_size = 6;
  opt.num_train_tasks = 6;
  CommunitySearchEngine engine(opt);
  ASSERT_TRUE(engine.Fit(g).ok());

  const std::string path = TempPath("engine.ckpt");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  // A "fresh process": a brand-new engine restored purely from the file.
  CommunitySearchEngine restored =
      CommunitySearchEngine::LoadCheckpoint(path).value();
  std::remove(path.c_str());
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.options().tasks.subgraph_size, opt.tasks.subgraph_size);

  for (NodeId q : {NodeId(3), NodeId(17), NodeId(101)}) {
    EXPECT_EQ(engine.Query(g, q).value().members,
              restored.Query(g, q).value().members)
        << "restored engine diverged on query " << q;
  }
}

// --- Error paths: bad checkpoint files must return Status, never abort ----

TEST(CheckpointError, MissingFileReturnsNotFound) {
  const auto model = CgnpModelLoad("/nonexistent/cgnp_model.ckpt");
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound);

  const auto engine =
      CommunitySearchEngine::LoadCheckpoint("/nonexistent/engine.ckpt");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointError, ForeignMagicReturnsDataLoss) {
  const std::string path = TempPath("foreign.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a cgnp checkpoint, long enough to read a header";
  }
  const auto engine = CommunitySearchEngine::LoadCheckpoint(path);
  std::remove(path.c_str());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointError, VersionMismatchReturnsDataLoss) {
  CommunitySearchEngine::Options opt;
  CommunitySearchEngine engine(opt);
  const std::string path = TempPath("future_version.ckpt");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  // Bump the stored version field (bytes 4..7) to an unsupported value.
  testing::WriteFile(path, testing::WithPatch<uint32_t>(
                               testing::ReadFileOrDie(path), 4, 9999));
  const auto restored = CommunitySearchEngine::LoadCheckpoint(path);
  std::remove(path.c_str());
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(restored.status().message().find("version"), std::string::npos)
      << restored.status();
}

TEST(CheckpointError, TruncatedTrainedEngineReturnsDataLossAtEveryCut) {
  Graph g = PlantedGraph();
  CommunitySearchEngine::Options opt;
  opt.model.encoder = GnnKind::kGcn;
  opt.model.hidden_dim = 16;
  opt.model.num_layers = 2;
  opt.model.epochs = 2;
  opt.tasks.subgraph_size = 80;
  opt.tasks.query_set_size = 6;
  opt.num_train_tasks = 4;
  CommunitySearchEngine engine(opt);
  ASSERT_TRUE(engine.Fit(g).ok());
  const std::string path = TempPath("full_engine.ckpt");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  const std::string bytes = testing::ReadFileOrDie(path);
  std::remove(path.c_str());
  ASSERT_GT(bytes.size(), 128u);
  // Cut the file in the framing header, the engine options, and deep in
  // the model parameters; every truncation must be a clean DataLoss.
  const std::string cut_path = TempPath("truncated_engine.ckpt");
  for (const size_t keep :
       {size_t{6}, size_t{40}, bytes.size() / 2, bytes.size() - 3}) {
    testing::WriteFile(cut_path, testing::WithTruncation(bytes, keep));
    const auto restored = CommunitySearchEngine::LoadCheckpoint(cut_path);
    ASSERT_FALSE(restored.ok()) << "truncation at " << keep << " loaded";
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss)
        << "truncation at " << keep << ": " << restored.status();
  }
  std::remove(cut_path.c_str());
}

TEST(CheckpointError, CorruptConfigFieldReturnsDataLoss) {
  std::stringstream ss;
  io::WriteU32(ss, 0xFFFFFFFFu);  // encoder kind out of range
  for (int i = 0; i < 16; ++i) io::WriteU64(ss, 0);
  const auto cfg = ReadCgnpConfig(ss);
  ASSERT_FALSE(cfg.ok());
  EXPECT_EQ(cfg.status().code(), StatusCode::kDataLoss);
}

TEST(Checkpoint, UntrainedEngineRoundTrip) {
  CommunitySearchEngine::Options opt;
  opt.tasks.subgraph_size = 64;
  CommunitySearchEngine engine(opt);
  const std::string path = TempPath("engine_untrained.ckpt");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  CommunitySearchEngine restored =
      CommunitySearchEngine::LoadCheckpoint(path).value();
  std::remove(path.c_str());
  EXPECT_FALSE(restored.trained());
  EXPECT_EQ(restored.options().tasks.subgraph_size, 64);
}

}  // namespace
}  // namespace cgnp
