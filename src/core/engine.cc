#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/check.h"
#include "core/checkpoint.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "tensor/io.h"

namespace cgnp {

namespace {

// Returns the allocator's free pages to the OS where it can (glibc).
void ReleaseFreeHeapPages() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

constexpr uint32_t kEngineMagic = 0x4347454Eu;  // "CGEN"
constexpr uint32_t kEngineVersion = 1;

}  // namespace

CommunitySearchEngine::CommunitySearchEngine(Options options)
    : options_(std::move(options)),
      // Same family the classical adapters record into (cs/searcher.cc),
      // so backends compare on one dashboard.
      search_ms_(&obs::MetricsRegistry::Default().GetHistogram(
          "cgnp_backend_search_ms", {{"backend", "cgnp"}})) {}

Status CommunitySearchEngine::Fit(const Graph& g) {
  if (g.num_nodes() == 0) {
    return InvalidArgumentError("cannot fit on an empty graph");
  }
  if (!g.has_communities()) {
    return InvalidArgumentError(
        "Fit needs ground-truth communities on the graph");
  }
  Rng rng(options_.seed);
  attribute_dim_ = AttributeDim(g);
  std::vector<CsTask> train;
  for (int64_t i = 0; i < options_.num_train_tasks; ++i) {
    CsTask t;
    if (SampleTask(g, options_.tasks, {}, attribute_dim_, &rng, &t)) {
      train.push_back(std::move(t));
    }
  }
  if (train.empty()) {
    return InvalidArgumentError(
        "could not sample any training task: the task configuration "
        "(subgraph_size / pos_samples / neg_samples) is infeasible for "
        "this graph's communities");
  }
  std::vector<CsTask> valid;
  for (int64_t i = 0; i < options_.num_valid_tasks; ++i) {
    CsTask t;
    if (SampleTask(g, options_.tasks, {}, attribute_dim_, &rng, &t)) {
      valid.push_back(std::move(t));
    }
  }
  feature_dim_ = train.front().graph.feature_dim();
  Rng model_rng(options_.model.seed);
  model_ = std::make_unique<CgnpModel>(options_.model, feature_dim_, &model_rng);
  const auto fit_start = std::chrono::steady_clock::now();
  // Per-epoch observability: epoch counter + last-loss gauge in the
  // default registry, and a rate-limited structured progress line.
  auto& reg = obs::MetricsRegistry::Default();
  obs::Counter& epochs_total = reg.GetCounter("cgnp_fit_epochs_total");
  obs::Gauge& mean_loss = reg.GetGauge("cgnp_fit_mean_loss");
  auto epoch_start = std::chrono::steady_clock::now();
  CgnpMetaTrainLoop(
      model_.get(), train, valid, options_.model.epochs, options_.model.lr,
      options_.model.seed, options_.early_stop_patience,
      [&](const CgnpEpochStats& s) {
        const auto now = std::chrono::steady_clock::now();
        const double epoch_ms =
            std::chrono::duration<double, std::milli>(now - epoch_start)
                .count();
        epoch_start = now;
        epochs_total.Increment();
        mean_loss.Set(s.mean_loss);
        CGNP_LOG_EVERY(kDebug, "fit_epoch", /*per_second=*/20.0)
            .Num("epoch", static_cast<double>(s.epoch))
            .Num("mean_loss", s.mean_loss)
            .Num("epoch_ms", epoch_ms);
      });
  const double fit_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - fit_start)
                            .count();
  CGNP_LOG(kInfo, "fit_done")
      .Num("train_tasks", static_cast<double>(train.size()))
      .Num("valid_tasks", static_cast<double>(valid.size()))
      .Num("epochs", static_cast<double>(options_.model.epochs))
      .Num("elapsed_ms", fit_ms);
  // Training freed its tasks and autograd buffers, but the allocator keeps
  // their pages resident -- ~3 MB on a 5,000-node graph, held for the life
  // of a process that goes on to serve. Hand them back.
  train = {};
  valid = {};
  ReleaseFreeHeapPages();
  return Status::Ok();
}

Status CommunitySearchEngine::SaveCheckpoint(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    return NotFoundError("cannot write engine checkpoint: " + path);
  }
  io::WriteU32(out, kEngineMagic);
  io::WriteU32(out, kEngineVersion);
  WriteCgnpConfig(out, options_.model);
  WriteTaskConfig(out, options_.tasks);
  io::WriteI64(out, options_.num_train_tasks);
  io::WriteI64(out, options_.num_valid_tasks);
  io::WriteI64(out, options_.early_stop_patience);
  io::WriteU64(out, options_.seed);
  io::WriteI64(out, feature_dim_);
  io::WriteI64(out, attribute_dim_);
  io::WriteU32(out, trained() ? 1 : 0);
  if (trained()) CgnpModelWrite(out, *model_);
  out.flush();
  if (!out.good()) {
    return DataLossError("short write to engine checkpoint: " + path);
  }
  return Status::Ok();
}

StatusOr<CommunitySearchEngine> CommunitySearchEngine::LoadCheckpoint(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return NotFoundError("cannot read engine checkpoint: " + path);
  }
  const uint32_t magic = io::ReadU32(in);
  const uint32_t version = io::ReadU32(in);
  if (!in.good() || magic != kEngineMagic) {
    return DataLossError("not an engine checkpoint: " + path);
  }
  if (version != kEngineVersion) {
    return DataLossError("unsupported engine checkpoint version " +
                         std::to_string(version) + ": " + path);
  }
  Options options;
  CGNP_ASSIGN_OR_RETURN(options.model, ReadCgnpConfig(in));
  CGNP_ASSIGN_OR_RETURN(options.tasks, ReadTaskConfig(in));
  options.num_train_tasks = io::ReadI64(in);
  options.num_valid_tasks = io::ReadI64(in);
  options.early_stop_patience = io::ReadI64(in);
  options.seed = io::ReadU64(in);
  CommunitySearchEngine engine(std::move(options));
  engine.feature_dim_ = io::ReadI64(in);
  engine.attribute_dim_ = io::ReadI64(in);
  const uint32_t has_model = io::ReadU32(in);
  if (!in.good()) {
    return DataLossError("truncated engine checkpoint: " + path);
  }
  if (has_model != 0) {
    CGNP_ASSIGN_OR_RETURN(engine.model_, CgnpModelRead(in));
    if (engine.model_->feature_dim() != engine.feature_dim_) {
      return DataLossError("engine checkpoint model/feature_dim mismatch: " +
                           path);
    }
  }
  if (!in.good()) {
    return DataLossError("truncated engine checkpoint: " + path);
  }
  return engine;
}

// --- EngineBuilder ----------------------------------------------------------

Status ValidateEngineOptions(const CommunitySearchEngine::Options& o) {
  const CgnpConfig& m = o.model;
  if (m.hidden_dim <= 0) {
    return InvalidArgumentError("model.hidden_dim must be positive, got " +
                                std::to_string(m.hidden_dim));
  }
  if (m.num_layers <= 0) {
    return InvalidArgumentError("model.num_layers must be positive, got " +
                                std::to_string(m.num_layers));
  }
  if (m.decoder_layers <= 0) {
    return InvalidArgumentError("model.decoder_layers must be positive, got " +
                                std::to_string(m.decoder_layers));
  }
  if (!(m.dropout >= 0.0f && m.dropout < 1.0f)) {
    return InvalidArgumentError("model.dropout must be in [0, 1), got " +
                                std::to_string(m.dropout));
  }
  if (!(m.lr > 0.0f) || !std::isfinite(m.lr)) {
    return InvalidArgumentError("model.lr must be positive and finite, got " +
                                std::to_string(m.lr));
  }
  if (m.epochs <= 0) {
    return InvalidArgumentError("model.epochs must be positive, got " +
                                std::to_string(m.epochs));
  }
  const TaskConfig& t = o.tasks;
  if (t.subgraph_size <= 0) {
    return InvalidArgumentError("tasks.subgraph_size must be positive, got " +
                                std::to_string(t.subgraph_size));
  }
  if (t.shots <= 0) {
    return InvalidArgumentError("tasks.shots must be positive, got " +
                                std::to_string(t.shots));
  }
  if (t.query_set_size <= 0) {
    return InvalidArgumentError("tasks.query_set_size must be positive, got " +
                                std::to_string(t.query_set_size));
  }
  if (t.pos_samples <= 0) {
    return InvalidArgumentError("tasks.pos_samples must be positive, got " +
                                std::to_string(t.pos_samples));
  }
  if (t.neg_samples < 0) {
    return InvalidArgumentError("tasks.neg_samples must be >= 0, got " +
                                std::to_string(t.neg_samples));
  }
  if (o.num_train_tasks <= 0) {
    return InvalidArgumentError("num_train_tasks must be positive, got " +
                                std::to_string(o.num_train_tasks));
  }
  if (o.num_valid_tasks < 0) {
    return InvalidArgumentError("num_valid_tasks must be >= 0, got " +
                                std::to_string(o.num_valid_tasks));
  }
  if (o.num_valid_tasks > 0 && o.early_stop_patience <= 0) {
    return InvalidArgumentError("early_stop_patience must be positive, got " +
                                std::to_string(o.early_stop_patience));
  }
  return Status::Ok();
}

EngineBuilder& EngineBuilder::WithModel(const CgnpConfig& cfg) {
  options_.model = cfg;
  any_setter_called_ = true;
  return *this;
}

EngineBuilder& EngineBuilder::WithTasks(const TaskConfig& cfg) {
  options_.tasks = cfg;
  any_setter_called_ = true;
  return *this;
}

EngineBuilder& EngineBuilder::WithTrainTasks(int64_t num_train_tasks) {
  options_.num_train_tasks = num_train_tasks;
  any_setter_called_ = true;
  return *this;
}

EngineBuilder& EngineBuilder::WithValidation(int64_t num_valid_tasks,
                                             int64_t early_stop_patience) {
  options_.num_valid_tasks = num_valid_tasks;
  options_.early_stop_patience = early_stop_patience;
  any_setter_called_ = true;
  return *this;
}

EngineBuilder& EngineBuilder::WithSeed(uint64_t seed) {
  options_.seed = seed;
  any_setter_called_ = true;
  return *this;
}

EngineBuilder& EngineBuilder::FromCheckpoint(std::string path) {
  checkpoint_path_ = std::move(path);
  return *this;
}

StatusOr<CommunitySearchEngine> EngineBuilder::Build() const {
  if (!checkpoint_path_.empty()) {
    if (any_setter_called_) {
      return InvalidArgumentError(
          "FromCheckpoint restores the full stored configuration; do not "
          "combine it with WithModel/WithTasks/WithTrainTasks/"
          "WithValidation/WithSeed");
    }
    return CommunitySearchEngine::LoadCheckpoint(checkpoint_path_);
  }
  CGNP_RETURN_IF_ERROR(ValidateEngineOptions(options_));
  return CommunitySearchEngine(options_);
}

}  // namespace cgnp
