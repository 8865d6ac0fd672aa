// The serving benchmark program. One run measures one workload for a fixed
// time with closed-loop clients and prints a JSON result as its last
// stdout line:
//
//   servebench --workload learned_hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untimed warm-up followed
// by one timed window. --trace 1 runs the same stream three times (plain,
// with the obs layer switched off, and replayed stage by stage with each
// public call timed from here) and reports the per-layer metrics. See
// README.md in this directory for the workloads, metrics and noise model.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/json.h"
#include "common/parallel.h"
#include "core/engine.h"
#include "cs/ctc.h"
#include "cs/dynamic.h"
#include "cs/kcore_community.h"
#include "cs/ktruss_community.h"
#include "cs/searcher.h"
#include "data/tasks.h"
#include "graph/algorithms.h"
#include "graph/sampling.h"
#include "obs/metrics.h"
#include "serve/context_cache.h"
#include "serve/dynamic_server.h"
#include "serve/query_server.h"
#include "stats.h"
#include "tensor/simd.h"
#include "tensor/workspace.h"
#include "workload.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using cgnp::Status;
using cgnp::StatusOr;
using cgnp::bench::Json;
using cgnp::serve::DynamicGraphServer;
using cgnp::serve::QueryServer;
using cgnp::serve::SearchRequest;
using cgnp::serve::SearchResponse;
using Clock = std::chrono::steady_clock;

// An untraced run sets up in two batches, one before the timed window and
// one after the gate, and reports the median of all their set-ups, so that
// setup_s reflects the host across the run rather than at one moment. A
// batch repeats until it has kSetupBatchMin set-ups and kSetupBatchSeconds
// of set-up time (hundreds of the few-millisecond classical set-ups).
constexpr int kSetupBatchMin = 4;
constexpr double kSetupBatchSeconds = 0.5;
// Untimed operations per client before timing starts (after the hot set,
// if any, has been served once to fill the cache).
constexpr int64_t kWarmupOpsLearned = 64;
constexpr int64_t kWarmupOpsClassical = kClassicalBackends;
// Served answers per client kept for the correctness gate.
constexpr size_t kGateSamplesLearned = 24;
constexpr size_t kGateSamplesClassical = 4;
// dynamic_mixed gate: hot queries re-derived after the final compaction.
constexpr size_t kGateDynamicQueries = 16;
// Probes of layers a workload's own stream does not reach (traced runs).
constexpr int64_t kProbeClassicalOps = 2 * kClassicalBackends;
constexpr int64_t kProbeLearnedOps = 128;
constexpr uint64_t kGraphId = 1;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  Workload workload = Workload::kLearnedHot;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return cgnp::InvalidArgumentError("missing value for " + flag);
    }
    const std::string value = argv[i + 1];
    const auto bad = [&] {
      return cgnp::InvalidArgumentError("bad value for " + flag + ": " +
                                        value);
    };
    char* end = nullptr;
    if (flag == "--workload") {
      CGNP_ASSIGN_OR_RETURN(args.workload, ParseWorkload(value));
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return bad();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) return bad();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return bad();
      args.trace = value == "1";
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return cgnp::InvalidArgumentError("unknown flag " + flag);
    }
  }
  if (!have_workload) return cgnp::InvalidArgumentError("--workload missing");
  return args;
}

// ---------------------------------------------------------------------------
// Deployment: the graph and the servers a workload runs against.

struct SetupTimes {
  double generate_s = 0;
  double fit_s = 0;
  double create_s = 0;
  double total_s() const { return generate_s + fit_s + create_s; }
};

struct Deployment {
  Workload workload = Workload::kLearnedHot;
  uint64_t seed = 0;
  std::shared_ptr<const Graph> graph;
  std::vector<int64_t> community_sizes;
  HotSet hot;
  std::shared_ptr<const cgnp::CommunitySearchEngine> engine;
  std::unique_ptr<QueryServer> learned;
  std::array<std::unique_ptr<QueryServer>, kClassicalBackends> classical;
  std::unique_ptr<DynamicGraphServer> dynamic;
  SetupTimes times;
};

cgnp::serve::ServeOptions LearnedServeOptions() {
  cgnp::serve::ServeOptions opt;
  opt.backend = "cgnp";
  opt.num_threads = 1;  // clients call Serve on their own threads
  opt.cache_capacity = kCacheCapacity;
  return opt;
}

StatusOr<std::shared_ptr<const cgnp::CommunitySearchEngine>> FitEngine(
    const Graph& g, uint64_t seed) {
  const auto opt = EngineOptions(seed);
  CGNP_ASSIGN_OR_RETURN(cgnp::CommunitySearchEngine engine,
                        cgnp::EngineBuilder()
                            .WithModel(opt.model)
                            .WithTasks(opt.tasks)
                            .WithTrainTasks(opt.num_train_tasks)
                            .WithSeed(opt.seed)
                            .Build());
  CGNP_RETURN_IF_ERROR(engine.Fit(g));
  return std::make_shared<const cgnp::CommunitySearchEngine>(
      std::move(engine));
}

StatusOr<std::unique_ptr<DynamicGraphServer>> CreateDynamic(
    const Deployment& d, int64_t compact_every) {
  DynamicGraphServer::Options opt;
  opt.serve = LearnedServeOptions();
  opt.graph_id = kGraphId;
  opt.compact_every = compact_every;
  return DynamicGraphServer::Create(d.engine.get(), d.graph, opt);
}

// Everything a workload's set-up pays: graph generation, engine Fit and
// server creation (including the dynamic index build).
StatusOr<std::unique_ptr<Deployment>> Deploy(Workload w, uint64_t seed) {
  auto d = std::make_unique<Deployment>();
  d->workload = w;
  d->seed = seed;
  auto t0 = Clock::now();
  d->graph = std::make_shared<const Graph>(MakeGraph(seed));
  auto t1 = Clock::now();
  d->times.generate_s = Ms(t0, t1) / 1e3;
  if (UsesEngine(w)) {
    CGNP_ASSIGN_OR_RETURN(d->engine, FitEngine(*d->graph, seed));
    t0 = t1;
    t1 = Clock::now();
    d->times.fit_s = Ms(t0, t1) / 1e3;
  }
  t0 = t1;
  switch (w) {
    case Workload::kLearnedHot:
    case Workload::kLearnedCold: {
      CGNP_ASSIGN_OR_RETURN(
          d->learned,
          QueryServer::Create(d->engine.get(), LearnedServeOptions()));
      break;
    }
    case Workload::kClassicalMix:
      for (int b = 0; b < kClassicalBackends; ++b) {
        cgnp::serve::ServeOptions opt;
        opt.backend = ClassicalBackendName(b);
        opt.num_threads = 1;
        CGNP_ASSIGN_OR_RETURN(d->classical[b],
                              QueryServer::Create(nullptr, opt));
      }
      break;
    case Workload::kDynamicMixed:
      CGNP_ASSIGN_OR_RETURN(
          d->dynamic,
          CreateDynamic(*d, DynamicGraphServer::Options{}.compact_every));
      break;
  }
  d->times.create_s = Ms(t0, Clock::now()) / 1e3;
  // Benchmark bookkeeping, outside the timed set-up.
  d->community_sizes = CommunitySizes(*d->graph);
  d->hot = MakeHotSet(*d->graph, seed);
  return d;
}

SearchRequest MakeRequest(const Deployment& d, const Op& op) {
  SearchRequest req;
  req.graph = d.graph.get();
  req.graph_id = kGraphId;
  req.query = op.query;
  if (op.variant >= 0) {
    req.support = ColdSupport(*d.graph, d.seed, op.query, op.variant);
  }
  return req;
}

// ---------------------------------------------------------------------------
// Per-client logs.

// Per-layer samples of the traced replay: timings and counts are lists
// (reported as medians or means), ratios are numerator/denominator sums.
struct LayerLog {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> sums;

  void Add(const std::string& name, double v) { samples[name].push_back(v); }
  void Sum(const std::string& name, double v) { sums[name] += v; }
  void Merge(const LayerLog& o) {
    for (const auto& [k, v] : o.samples) {
      auto& dst = samples[k];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : o.sums) sums[k] += v;
  }
};

// A served answer kept for the correctness gate.
struct GateSample {
  Op op;
  std::vector<NodeId> members;
  std::vector<float> probs;
};

struct ClientLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t queries = 0;
  std::vector<double> query_ms;
  std::vector<double> edit_ms;
  double f1_sum = 0;
  uint64_t f1_count = 0;
  std::vector<GateSample> gate;
  LayerLog layers;
  Clock::time_point end;

  void Merge(const ClientLog& o) {
    attempted += o.attempted;
    failed += o.failed;
    queries += o.queries;
    query_ms.insert(query_ms.end(), o.query_ms.begin(), o.query_ms.end());
    edit_ms.insert(edit_ms.end(), o.edit_ms.begin(), o.edit_ms.end());
    f1_sum += o.f1_sum;
    f1_count += o.f1_count;
    gate.insert(gate.end(), o.gate.begin(), o.gate.end());
    layers.Merge(o.layers);
  }
};

bool SameKey(const Op& a, const Op& b) {
  return a.query == b.query && a.variant == b.variant &&
         a.backend == b.backend;
}

void MaybeKeepForGate(Workload w, const Op& op, const SearchResponse& resp,
                      ClientLog* log) {
  if (w == Workload::kDynamicMixed) return;  // gated after compaction
  const size_t cap = w == Workload::kClassicalMix ? kGateSamplesClassical
                                                  : kGateSamplesLearned;
  if (log->gate.size() >= cap) return;
  for (const auto& s : log->gate) {
    if (SameKey(s.op, op)) return;
  }
  log->gate.push_back({op, resp.members, resp.probs});
}

// ---------------------------------------------------------------------------
// Traced replay: the stages QueryServer runs for one request, re-run here
// call by call in the same order, each public call timed from outside.

// Encode work of one TaskContext call, computed (not counted) from the
// task's node and edge counts and the model dims, for the GAT encoder the
// benchmark trains: per layer the feature GEMM, the two attention
// projections, per-edge scoring and softmax, message weighting and the
// segment sum, bias and ReLU; then the commutative average of the views.
double EncodeFlops(const cgnp::LocalQueryTask& task,
                   const cgnp::CgnpConfig& cfg) {
  const double n = static_cast<double>(task.graph.num_nodes());
  const double m = 2.0 * static_cast<double>(task.graph.num_edges()) + n;
  const double h = static_cast<double>(cfg.hidden_dim);
  double d_in = static_cast<double>(task.graph.feature_dim() + 1);
  double per_view = 0;
  for (int64_t l = 0; l < cfg.num_layers; ++l) {
    per_view += 2 * n * d_in * h + 4 * n * h + 4 * m + 2 * m * h + n * h;
    if (l + 1 < cfg.num_layers) per_view += n * h;
    d_in = h;
  }
  const double views = static_cast<double>(task.support.size());
  return views * per_view + views * n * h;
}

struct Tracer {
  Tracer() {
    for (int b = 0; b < kClassicalBackends; ++b) {
      // Built-in registry names: never NotFound.
      searchers[b] = std::move(cgnp::MakeSearcher(ClassicalBackendName(b)))
                         .value();
    }
  }
  // Registry adapters of the classical backends, called directly.
  std::array<std::unique_ptr<cgnp::CommunitySearcher>, kClassicalBackends>
      searchers;
  // Traced dynamic serving compacts explicitly at the server's default
  // cadence so Compact is timed on its own; queries hold this shared and
  // compaction exclusive, so a replay always sees the snapshot its Serve
  // call used.
  std::shared_mutex compact_mu;
  std::atomic<int64_t> edits_applied{0};
  int64_t compact_every = DynamicGraphServer::Options{}.compact_every;
};

// Replays one cgnp request already answered by `server` (as `resp`, in
// `serve_ms`) against `g` at `version`.
void ReplayLearned(const cgnp::CommunitySearchEngine& engine,
                   QueryServer& server, const Graph& g, uint64_t version,
                   const SearchRequest& req, const SearchResponse& resp,
                   double serve_ms, ClientLog* log) {
  const cgnp::serve::ServeOptions& so = server.options();
  const cgnp::CgnpModel& model = *engine.model();
  LayerLog& L = log->layers;
  cgnp::NoGradGuard no_grad;
  cgnp::WorkspaceScope workspace;  // as QueryServer opens per request
  {
    // The three sub-stages of BuildQueryTask, on the same inputs.
    cgnp::Rng rng(so.seed ^ static_cast<uint64_t>(req.query + 1));
    auto t0 = Clock::now();
    const std::vector<NodeId> nodes =
        cgnp::BfsSample(g, req.query, so.tasks.subgraph_size, &rng);
    auto t1 = Clock::now();
    std::vector<NodeId> new_of_old;
    const Graph sub = cgnp::InducedSubgraph(g, nodes, &new_of_old);
    auto t2 = Clock::now();
    const Graph featured = cgnp::AttachTaskFeatures(sub, so.attribute_dim);
    auto t3 = Clock::now();
    L.Add("graph.bfs_sample_ms", Ms(t0, t1));
    L.Add("graph.induced_subgraph_ms", Ms(t1, t2));
    L.Add("data.attach_features_ms", Ms(t2, t3));
  }
  auto t0 = Clock::now();
  StatusOr<cgnp::LocalQueryTask> task =
      cgnp::BuildQueryTask(g, req.query, req.support, so.tasks,
                           so.attribute_dim, so.seed);
  auto t1 = Clock::now();
  if (!task.ok()) {
    ++log->failed;
    return;
  }
  const double build_ms = Ms(t0, t1);
  L.Add("core.task_build_ms", build_ms);
  L.Add("core.task_nodes", static_cast<double>(task->nodes.size()));

  cgnp::Tensor context;
  t0 = Clock::now();
  const cgnp::serve::ContextCache::Key key{
      req.graph_id, cgnp::serve::TaskFingerprint(*task), version};
  const bool cached = server.cache().Get(key, &context);
  t1 = Clock::now();
  const double lookup_ms = Ms(t0, t1);
  L.Add("serve.cache_lookup_ms", lookup_ms);
  L.Sum("serve.cache_lookups", 1);
  L.Sum("serve.cache_hits", resp.cache_hit ? 1 : 0);

  double encode_ms = 0;
  if (!resp.cache_hit || !cached) {
    t0 = Clock::now();
    context = model.TaskContext(task->graph, task->support, nullptr);
    t1 = Clock::now();
    // Only a miss of the served request pays encode; a context evicted
    // between Serve and this lookup is re-encoded but not counted.
    if (!resp.cache_hit) {
      encode_ms = Ms(t0, t1);
      L.Add("core.encode_ms", encode_ms);
      L.Sum("core.encode_flops", EncodeFlops(*task, model.config()));
      L.Sum("core.encode_s", encode_ms / 1e3);
    }
  }
  std::vector<float> probs;
  t0 = Clock::now();
  const std::vector<NodeId> members =
      cgnp::MembersFromContext(model, *task, context, req.threshold, &probs);
  t1 = Clock::now();
  const double decode_ms = Ms(t0, t1);
  L.Add("core.decode_ms", decode_ms);
  L.Add("serve.self_ms",
        serve_ms - (build_ms + lookup_ms + encode_ms + decode_ms));
  if (members != resp.members || probs != resp.probs) {
    std::fprintf(stderr, "replay of query %lld disagrees with Serve\n",
                 static_cast<long long>(req.query));
    ++log->failed;
  }
}

void ReplayClassical(Tracer* tracer, int backend, const Graph& g,
                     NodeId q, const SearchResponse& resp, double serve_ms,
                     ClientLog* log) {
  LayerLog& L = log->layers;
  const std::string name = ClassicalBackendName(backend);
  auto t0 = Clock::now();
  StatusOr<cgnp::QueryResult> result =
      tracer->searchers[backend]->Search(g, q, {}, {});
  auto t1 = Clock::now();
  if (!result.ok() || result->members != resp.members) {
    std::fprintf(stderr, "replay of %s query %lld disagrees with Serve\n",
                 name.c_str(), static_cast<long long>(q));
    ++log->failed;
    return;
  }
  const double search_ms = Ms(t0, t1);
  L.Add("cs." + name + ".search_ms", search_ms);
  L.Add("cs.answer_size", static_cast<double>(result->members.size()));
  L.Add("serve.self_ms", serve_ms - search_ms);
  // The graph/algorithms calls the backend makes, on the same query.
  if (backend == 0) {
    t0 = Clock::now();
    cgnp::MaxCoreOf(g, q);
    t1 = Clock::now();
    L.Add("graph.max_core_ms", Ms(t0, t1));
    return;
  }
  t0 = Clock::now();
  const cgnp::EdgeList el = cgnp::BuildEdgeList(g);
  t1 = Clock::now();
  const std::vector<int64_t> truss = cgnp::TrussNumbers(g, el);
  auto t2 = Clock::now();
  const int64_t k = cgnp::MaxTrussOf(g, q, el, truss);
  auto t3 = Clock::now();
  const std::vector<NodeId> sub = cgnp::ConnectedKTrussContaining(g, q, k);
  auto t4 = Clock::now();
  L.Add("graph.edge_list_ms", Ms(t0, t1));
  L.Add("graph.truss_numbers_ms", Ms(t1, t2));
  L.Add("graph.ktruss_containing_ms", Ms(t3, t4));
}

// ---------------------------------------------------------------------------
// Executing one operation.

enum class Mode { kServe, kReplay };

void Execute(Deployment& d, Tracer* tracer, Mode mode, const Op& op,
             ClientLog* log) {
  ++log->attempted;
  if (op.kind == Op::Kind::kEdit) {
    const auto t0 = Clock::now();
    const Status s = d.dynamic->ApplyUpdate(op.edit);
    const auto t1 = Clock::now();
    log->edit_ms.push_back(Ms(t0, t1));
    if (!s.ok()) {
      std::fprintf(stderr, "edit rejected: %s\n", s.ToString().c_str());
      ++log->failed;
      return;
    }
    if (mode == Mode::kReplay) {
      log->layers.Add("dynamic.apply_ms", Ms(t0, t1));
      if (++tracer->edits_applied % tracer->compact_every == 0) {
        std::unique_lock lock(tracer->compact_mu);
        const auto c0 = Clock::now();
        const auto r = d.dynamic->Compact();
        const auto c1 = Clock::now();
        log->layers.Add("dynamic.compact_ms", Ms(c0, c1));
        log->layers.Sum("serve.cache_retained",
                        static_cast<double>(r.retained));
        log->layers.Sum("serve.cache_evicted",
                        static_cast<double>(r.evicted));
      }
    }
    return;
  }

  SearchRequest req = MakeRequest(d, op);
  SearchResponse resp;
  double serve_ms = 0;
  if (d.dynamic != nullptr) {
    std::shared_lock<std::shared_mutex> lock;
    std::shared_ptr<const Graph> snapshot;
    uint64_t version = 0;
    if (mode == Mode::kReplay) {
      lock = std::shared_lock(tracer->compact_mu);
      snapshot = d.dynamic->snapshot();
      const auto ds = d.dynamic->dynamic_stats();
      version = ds.snapshot_version;
      log->layers.Add("dynamic.delta_depth",
                      static_cast<double>(ds.delta_depth));
    }
    const auto t0 = Clock::now();
    resp = d.dynamic->Serve(req);
    serve_ms = Ms(t0, Clock::now());
    if (mode == Mode::kReplay && resp.status.ok()) {
      req.graph = snapshot.get();
      ReplayLearned(*d.engine, d.dynamic->server(), *snapshot, version, req,
                    resp, serve_ms, log);
    }
  } else {
    QueryServer& server =
        op.backend >= 0 ? *d.classical[op.backend] : *d.learned;
    const auto t0 = Clock::now();
    resp = server.Serve(req);
    serve_ms = Ms(t0, Clock::now());
    if (mode == Mode::kReplay && resp.status.ok()) {
      if (op.backend >= 0) {
        ReplayClassical(tracer, op.backend, *d.graph, op.query, resp,
                        serve_ms, log);
      } else {
        ReplayLearned(*d.engine, server, *d.graph, 0, req, resp, serve_ms,
                      log);
      }
    }
  }
  ++log->queries;
  log->query_ms.push_back(serve_ms);
  if (!resp.status.ok()) {
    std::fprintf(stderr, "query %lld failed: %s\n",
                 static_cast<long long>(op.query),
                 resp.status.ToString().c_str());
    ++log->failed;
    return;
  }
  log->f1_sum += AnswerF1(*d.graph, d.community_sizes, op.query, resp.members);
  ++log->f1_count;
  MaybeKeepForGate(d.workload, op, resp, log);
}

// Serves every hot-set node once, so the context cache holds the whole
// hot set before timing. Returns the number of requests sent.
int64_t FillCache(Deployment& d) {
  if (d.workload != Workload::kLearnedHot &&
      d.workload != Workload::kDynamicMixed) {
    return 0;
  }
  for (NodeId q : d.hot.nodes) {
    Op op;
    op.query = q;
    const SearchRequest req = MakeRequest(d, op);
    if (d.dynamic != nullptr) {
      d.dynamic->Serve(req);
    } else {
      d.learned->Serve(req);
    }
  }
  return static_cast<int64_t>(d.hot.nodes.size());
}

// ---------------------------------------------------------------------------
// Phases: the client threads live across all phases of a run (workspace
// arenas are per thread), parked at a barrier between phases.

struct Phase {
  Mode mode = Mode::kServe;
  int64_t ops = 0;       // > 0: untimed, this many operations per client
  double seconds = 0;    // otherwise: timed for this long
  std::function<void()> prepare;  // runs while every client is parked
  // Filled in by the run.
  Clock::time_point start;
  std::array<ClientLog, kClients> logs;
  double window_s() const {
    Clock::time_point end = start;
    for (const auto& l : logs) end = std::max(end, l.end);
    return Ms(start, end) / 1e3;
  }
  ClientLog merged() const {
    ClientLog m;
    for (const auto& l : logs) m.Merge(l);
    return m;
  }
};

// The CPUs client threads are pinned to, one each, from the process's
// allowed set; empty (no pinning) when it has fewer CPUs than clients.
// Unpinned, the scheduler may start both clients on one core and take
// seconds to spread them, halving throughput for that long.
std::vector<int> ClientCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  // From the top: low-numbered CPUs tend to take more interrupts.
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.size() < kClients; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < kClients) cpus.clear();
  return cpus;
}

void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// Runs `phases` in order on kClients threads; client c draws from
// (*streams)[c]. A phase's prepare may replace the streams (with a fresh
// server, the edit cycle must restart).
void RunPhases(Deployment& d, Tracer* tracer, std::vector<Phase>* phases,
               std::array<std::unique_ptr<RequestStream>, kClients>* streams) {
  size_t next = 0;
  auto on_completion = [&]() noexcept {
    if (next < phases->size()) {
      Phase& p = (*phases)[next];
      if (p.prepare) p.prepare();
      p.start = Clock::now();
    }
    ++next;
  };
  std::barrier sync(kClients, on_completion);
  const std::vector<int> cpus = ClientCpus();
  auto client = [&](int c) {
    if (!cpus.empty()) PinToCpu(cpus[c]);
    for (size_t i = 0; i < phases->size(); ++i) {
      sync.arrive_and_wait();
      Phase& p = (*phases)[i];
      ClientLog* log = &p.logs[c];
      RequestStream& stream = *(*streams)[c];
      if (p.ops > 0) {
        for (int64_t k = 0; k < p.ops; ++k) {
          Execute(d, tracer, p.mode, stream.Next(), log);
        }
      } else {
        const auto deadline =
            p.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(p.seconds));
        while (Clock::now() < deadline) {
          Execute(d, tracer, p.mode, stream.Next(), log);
        }
      }
      log->end = Clock::now();
    }
    sync.arrive_and_wait();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
}

void MakeStreams(const Deployment& d,
                 std::array<std::unique_ptr<RequestStream>, kClients>* out) {
  for (int c = 0; c < kClients; ++c) {
    (*out)[c] = std::make_unique<RequestStream>(d.workload, d.graph.get(),
                                                &d.hot, d.seed, c);
  }
}

int64_t WarmupOps(Workload w) {
  return w == Workload::kClassicalMix ? kWarmupOpsClassical
                                      : kWarmupOpsLearned;
}

// ---------------------------------------------------------------------------
// Correctness gate: re-derive answers through the reference paths.

// Returns the number of mismatches.
uint64_t RunGate(Deployment& d, const ClientLog& served) {
  uint64_t bad = 0;
  const Graph& g = *d.graph;
  if (d.workload == Workload::kDynamicMixed) {
    d.dynamic->Compact();
    const auto snapshot = d.dynamic->snapshot();
    if (d.dynamic->index()->CurrentCoreNumbers() !=
        cgnp::CoreNumbers(*snapshot)) {
      std::fprintf(stderr, "gate: incremental core numbers differ from "
                           "batch CoreNumbers on the final snapshot\n");
      ++bad;
    }
    for (size_t i = 0; i < kGateDynamicQueries && i < d.hot.nodes.size();
         ++i) {
      Op op;
      op.query = d.hot.nodes[i];
      const SearchResponse resp = d.dynamic->Serve(MakeRequest(d, op));
      auto ref = d.engine->Query(*snapshot, op.query);
      if (!resp.status.ok() || !ref.ok() || ref->members != resp.members ||
          ref->probs != resp.probs) {
        std::fprintf(stderr, "gate: dynamic query %lld differs from "
                             "CommunitySearchEngine::Query\n",
                     static_cast<long long>(op.query));
        ++bad;
      }
    }
    return bad;
  }
  for (const GateSample& s : served.gate) {
    bool same = false;
    if (s.op.backend < 0) {
      const SearchRequest req = MakeRequest(d, s.op);
      auto ref = d.engine->Query(g, s.op.query, req.support);
      same = ref.ok() && ref->members == s.members && ref->probs == s.probs;
    } else {
      std::vector<NodeId> ref;
      switch (s.op.backend) {
        case 0:
          ref = cgnp::KCoreCommunity(g, s.op.query);
          break;
        case 1:
          ref = cgnp::KTrussCommunity(g, s.op.query);
          break;
        default:
          ref = cgnp::ClosestTrussCommunity(g, s.op.query);
          break;
      }
      same = ref == s.members;
    }
    if (!same) {
      std::fprintf(stderr, "gate: answer to query %lld (backend %d) differs "
                           "from the reference path\n",
                   static_cast<long long>(s.op.query), s.op.backend);
      ++bad;
    }
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Reporting.

Json Metric(double value, const char* unit) {
  Json m = Json::MakeObject();
  m.Set("value", Json::MakeNumber(value));
  m.Set("unit", Json::MakeString(unit));
  return m;
}

Json Provenance(const Args& args, int64_t warmup_requests,
                size_t timed_samples) {
  Json p = Json::MakeObject();
  p.Set("workload", Json::MakeString(WorkloadName(args.workload)));
  p.Set("seed", Json::MakeNumber(static_cast<double>(args.seed)));
  p.Set("seconds", Json::MakeNumber(args.seconds));
  p.Set("trace", Json::MakeBool(args.trace));
  p.Set("clients", Json::MakeNumber(kClients));
  p.Set("kernel_threads", Json::MakeNumber(1));
  p.Set("clients_pinned", Json::MakeBool(!ClientCpus().empty()));
  p.Set("nproc", Json::MakeNumber(std::thread::hardware_concurrency()));
  p.Set("simd_level", Json::MakeString(cgnp::simd::SimdLevelName(
                          cgnp::simd::ActiveSimdLevel())));
  p.Set("build_type", Json::MakeString(SERVEBENCH_BUILD_TYPE));
  p.Set("git_sha", Json::MakeString(args.git_sha));
  p.Set("warmup_requests",
        Json::MakeNumber(static_cast<double>(warmup_requests)));
  p.Set("timed_query_samples",
        Json::MakeNumber(static_cast<double>(timed_samples)));
  p.Set("tail_percentile_supported",
        Json::MakeNumber(HighestSupportedPercentile(timed_samples)));
  return p;
}

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Json metrics = Json::MakeObject();
};

int Emit(const Args& args, const Result& r, int64_t warmup_requests,
         size_t timed_samples) {
  Json prov = Json::MakeObject();
  prov.Set("provenance", Provenance(args, warmup_requests, timed_samples));
  std::printf("%s\n", prov.Dump().c_str());
  Json out = Json::MakeObject();
  out.Set("correct", Json::MakeBool(r.correct));
  out.Set("attempted", Json::MakeNumber(static_cast<double>(r.attempted)));
  out.Set("failed", Json::MakeNumber(static_cast<double>(r.failed)));
  out.Set("metrics", r.metrics);
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

const char* UnitOf(const std::vector<MetricSpec>& specs,
                   const std::string& name) {
  for (const auto& s : specs) {
    if (name == s.name) return s.unit;
  }
  return "?";
}

// One batch of set-ups (see kSetupBatchMin): appends each set-up's time
// to `times` and leaves the last deployment in `*d`.
Status DeployBatch(Workload w, uint64_t seed, std::vector<double>* times,
                   std::unique_ptr<Deployment>* d) {
  double spent = 0;
  for (int i = 0; i < kSetupBatchMin || spent < kSetupBatchSeconds; ++i) {
    d->reset();  // one deployment resident at a time
    CGNP_ASSIGN_OR_RETURN(*d, Deploy(w, seed));
    times->push_back((*d)->times.total_s());
    spent += times->back();
  }
  return Status::Ok();
}

// --trace 0: a batch of set-ups, warm-up, one timed window, the gate, a
// second batch of set-ups.
int RunUntraced(const Args& args) {
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  if (Status st = DeployBatch(args.workload, args.seed, &setups, &d);
      !st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 2;
  }
  std::array<std::unique_ptr<RequestStream>, kClients> streams;
  MakeStreams(*d, &streams);
  int64_t warmup_requests = 0;
  std::vector<Phase> phases(2);
  phases[0].ops = WarmupOps(args.workload);
  phases[0].prepare = [&] { warmup_requests += FillCache(*d); };
  phases[1].seconds = args.seconds;
  RunPhases(*d, nullptr, &phases, &streams);
  warmup_requests += static_cast<int64_t>(phases[0].merged().attempted);
  if (phases[0].merged().failed > 0) {
    std::fprintf(stderr, "warm-up operations failed\n");
    return 2;
  }

  const ClientLog timed = phases[1].merged();
  const double rss_mb = PeakRssMb();  // before the gate's own work
  const uint64_t mismatches = RunGate(*d, timed);
  if (Status st = DeployBatch(args.workload, args.seed, &setups, &d);
      !st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 2;
  }
  Result r;
  r.attempted = timed.attempted;
  r.failed = timed.failed + mismatches;
  r.correct = r.failed == 0 && timed.queries > 0;
  const auto& specs = EndToEndMetrics();
  auto set = [&](const char* name, double v) {
    r.metrics.Set(name, Metric(v, UnitOf(specs, name)));
  };
  set("qps", static_cast<double>(timed.queries) / phases[1].window_s());
  set("p50_ms", Percentile(timed.query_ms, 0.50));
  set("p90_ms", Percentile(timed.query_ms, 0.90));
  const double failed_share = r.attempted > 0
                                  ? static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)
                                  : 1.0;
  set("success_rate", 1.0 - std::min(1.0, failed_share));
  set("f1", timed.f1_count > 0
                ? timed.f1_sum / static_cast<double>(timed.f1_count)
                : 0.0);
  set("setup_s", Median(setups));
  set("rss_mb", rss_mb);
  std::fprintf(stderr,
               "%s seed=%llu: %llu queries in %.2fs, %zu edits, gate "
               "mismatches %llu, warm-up %lld requests, %zu set-ups\n",
               WorkloadName(args.workload),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(timed.queries),
               phases[1].window_s(), timed.edit_ms.size(),
               static_cast<unsigned long long>(mismatches),
               static_cast<long long>(warmup_requests), setups.size());
  return Emit(args, r, warmup_requests, timed.query_ms.size());
}

// Probes of layers the workload's own stream did not reach (`have` holds
// its samples), run on the main thread against the same graph: a few
// classical requests, cold learned requests (the only way a hot stream
// encodes), and a dynamic stream long enough for one compaction. Returns
// false when a probe cannot be set up. Each probe logs into its own entry
// of `probes`, in the order classical, learned, dynamic.
bool RunProbes(Deployment& d, const LayerLog& have,
               std::vector<ClientLog>* probes) {
  auto lacks = [&](std::initializer_list<const char*> names) {
    for (const char* n : names) {
      if (have.samples.count(n) == 0) return true;
    }
    return false;
  };
  Tracer tracer;
  Deployment pd;  // probe deployment sharing graph and engine
  pd.seed = d.seed;
  pd.graph = d.graph;
  pd.community_sizes = d.community_sizes;
  pd.hot = d.hot;
  auto run = [&](Workload w, int64_t ops) {
    pd.workload = w;
    ClientLog* probe = &probes->emplace_back();
    RequestStream stream(w, pd.graph.get(), &pd.hot, pd.seed, /*client=*/0);
    FillCache(pd);
    for (int64_t i = 0; i < ops; ++i) {
      Execute(pd, &tracer, Mode::kReplay, stream.Next(), probe);
    }
  };
  if (lacks({"cs.kcore.search_ms", "cs.ktruss.search_ms",
             "cs.ctc.search_ms"})) {
    for (int b = 0; b < kClassicalBackends; ++b) {
      cgnp::serve::ServeOptions opt;
      opt.backend = ClassicalBackendName(b);
      opt.num_threads = 1;
      auto server = QueryServer::Create(nullptr, opt);
      if (!server.ok()) return false;
      pd.classical[b] = std::move(*server);
    }
    run(Workload::kClassicalMix, kProbeClassicalOps);
  }
  if (d.engine == nullptr) {
    const auto t0 = Clock::now();
    auto engine = FitEngine(*d.graph, d.seed);
    if (!engine.ok()) return false;
    d.times.fit_s = Ms(t0, Clock::now()) / 1e3;
    d.engine = std::move(*engine);
  }
  pd.engine = d.engine;
  if (lacks({"core.task_build_ms", "core.encode_ms"})) {
    auto server = QueryServer::Create(d.engine.get(), LearnedServeOptions());
    if (!server.ok()) return false;
    pd.learned = std::move(*server);
    run(Workload::kLearnedCold, kProbeLearnedOps);
    pd.learned.reset();
  }
  if (lacks({"dynamic.apply_ms", "dynamic.compact_ms"})) {
    auto dyn = CreateDynamic(pd, /*compact_every=*/0);
    if (!dyn.ok()) return false;
    pd.dynamic = std::move(*dyn);
    // Enough operations for one explicit compaction.
    run(Workload::kDynamicMixed, tracer.compact_every * kEditEvery);
  }
  return true;
}

// --trace 1: one set-up, warm-up, then the stream plain, with obs off, and
// replayed stage by stage; probes fill the layers the stream skips.
int RunTraced(const Args& args) {
  auto deployed = Deploy(args.workload, args.seed);
  if (!deployed.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 deployed.status().ToString().c_str());
    return 2;
  }
  Deployment& d = **deployed;
  Tracer tracer;
  std::array<std::unique_ptr<RequestStream>, kClients> streams;
  MakeStreams(d, &streams);
  const double third = args.seconds / 3.0;
  int64_t warmup_requests = 0;
  bool swap_failed = false;
  std::vector<Phase> phases(4);
  phases[0].ops = WarmupOps(args.workload);
  phases[0].prepare = [&] { warmup_requests += FillCache(d); };
  phases[1].seconds = third;  // plain, obs on
  phases[2].seconds = third;  // plain, obs off
  phases[2].prepare = [] { cgnp::obs::SetEnabled(false); };
  phases[3].seconds = third;  // traced replay
  phases[3].mode = Mode::kReplay;
  phases[3].prepare = [&] {
    cgnp::obs::SetEnabled(true);
    if (d.dynamic != nullptr) {
      // Replayed edits compact explicitly (see Tracer): a fresh server
      // without auto-compaction, and fresh streams for its edit cycle.
      auto dyn = CreateDynamic(d, /*compact_every=*/0);
      if (!dyn.ok()) {
        swap_failed = true;
        return;
      }
      d.dynamic = std::move(*dyn);
      MakeStreams(d, &streams);
      warmup_requests += FillCache(d);
    }
  };
  RunPhases(d, &tracer, &phases, &streams);
  if (swap_failed) {
    std::fprintf(stderr, "could not create the traced dynamic server\n");
    return 2;
  }
  warmup_requests += static_cast<int64_t>(phases[0].merged().attempted);

  ClientLog timed;
  for (size_t i = 1; i < phases.size(); ++i) timed.Merge(phases[i].merged());
  const ClientLog plain = phases[1].merged();
  const ClientLog obs_off = phases[2].merged();
  const ClientLog replay = phases[3].merged();
  const uint64_t mismatches = RunGate(d, timed);

  std::vector<ClientLog> probes;
  if (!RunProbes(d, replay.layers, &probes)) {
    std::fprintf(stderr, "layer probes could not be set up\n");
    return 2;
  }
  // The stream's own samples win; each probe fills only what the stream
  // and the probes before it lack.
  LayerLog layers = replay.layers;
  std::vector<double> edit_ms = plain.edit_ms;
  uint64_t probe_attempted = 0;
  uint64_t probe_failed = 0;
  for (const ClientLog& probe : probes) {
    for (const auto& [k, v] : probe.layers.samples) {
      if (layers.samples.count(k) == 0) layers.samples[k] = v;
    }
    for (const auto& [k, v] : probe.layers.sums) {
      if (layers.sums.count(k) == 0) layers.sums[k] = v;
    }
    if (edit_ms.empty()) edit_ms = probe.edit_ms;
    probe_attempted += probe.attempted;
    probe_failed += probe.failed;
  }

  const double qps_plain =
      static_cast<double>(plain.queries) / phases[1].window_s();
  const double qps_obs_off =
      static_cast<double>(obs_off.queries) / phases[2].window_s();
  const double qps_replay =
      static_cast<double>(replay.queries) / phases[3].window_s();

  Result r;
  r.attempted = timed.attempted + probe_attempted;
  r.failed = timed.failed + probe_failed + mismatches;
  const auto& specs = PerLayerMetrics();
  std::vector<std::string> missing;
  auto ratio = [&](const char* num, const char* den) -> double {
    const double dv = layers.sums[den];
    return dv > 0 ? layers.sums[num] / dv : 0.0;
  };
  for (const MetricSpec& spec : specs) {
    const std::string name = spec.name;
    double v = 0;
    bool have = true;
    if (name == "serve.p99_ms") {
      v = Percentile(plain.query_ms, 0.99);
    } else if (name == "obs.overhead_frac") {
      v = 1.0 - qps_plain / qps_obs_off;
    } else if (name == "trace.overhead_frac") {
      v = 1.0 - qps_replay / qps_plain;
    } else if (name == "dynamic.edit_p50_ms") {
      v = Median(edit_ms);
      have = !edit_ms.empty();
    } else if (name == "serve.cache_hit_rate") {
      v = ratio("serve.cache_hits", "serve.cache_lookups");
      have = layers.sums.count("serve.cache_lookups") > 0;
    } else if (name == "serve.cache_retained_rate") {
      const double kept = layers.sums["serve.cache_retained"];
      const double all = kept + layers.sums["serve.cache_evicted"];
      v = all > 0 ? kept / all : 0.0;
      have = layers.sums.count("serve.cache_retained") > 0;
    } else if (name == "core.encode_gflop_s") {
      v = ratio("core.encode_flops", "core.encode_s") / 1e9;
      have = layers.sums.count("core.encode_s") > 0;
    } else if (name == "data.generate_s") {
      v = d.times.generate_s;
    } else if (name == "meta.fit_s") {
      v = d.times.fit_s;
    } else if (name == "serve.create_s") {
      v = d.times.create_s;
    } else {
      auto it = layers.samples.find(name);
      have = it != layers.samples.end() && !it->second.empty();
      if (have) {
        const bool is_count = std::strcmp(spec.unit, "count") == 0;
        v = is_count ? Mean(it->second) : Median(it->second);
      }
    }
    if (!have) missing.push_back(name);
    r.metrics.Set(name, Metric(v, spec.unit));
  }
  for (const auto& m : missing) {
    std::fprintf(stderr, "per-layer metric %s has no samples\n", m.c_str());
  }
  r.correct = r.failed == 0 && missing.empty() && replay.queries > 0;
  std::fprintf(stderr,
               "%s seed=%llu traced: qps plain %.1f / obs off %.1f / "
               "replay %.1f; gate mismatches %llu\n",
               WorkloadName(args.workload),
               static_cast<unsigned long long>(args.seed), qps_plain,
               qps_obs_off, qps_replay,
               static_cast<unsigned long long>(mismatches));
  return Emit(args, r, warmup_requests, plain.query_ms.size());
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  auto args = servebench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--git-sha SHA]\n",
                 args.status().ToString().c_str());
    return 2;
  }
  cgnp::set_num_threads(1);  // kernel threads; clients are the parallelism
  return args->trace ? servebench::RunTraced(*args)
                     : servebench::RunUntraced(*args);
}
