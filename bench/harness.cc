#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/parallel.h"
#include "meta/aqd_gnn.h"
#include "meta/classical.h"
#include "meta/feat_trans.h"
#include "meta/gpn.h"
#include "meta/ics_gnn.h"
#include "meta/maml.h"
#include "meta/reptile.h"
#include "meta/supervised.h"

namespace cgnp {
namespace bench {

namespace {

void ApplyScale(BenchOptions* opt) {
  if (opt->paper_scale) {
    // Section VII-A parameters. Expect very long CPU runtimes.
    opt->train_tasks = 100;
    opt->valid_tasks = 50;
    opt->test_tasks = 50;
    opt->task.subgraph_size = 200;
    opt->task.query_set_size = 30;
    opt->method.hidden_dim = 128;
    opt->method.num_layers = 3;
    opt->method.meta_epochs = 200;
    opt->method.per_task_epochs = 200;
    opt->method.inner_steps_train = 10;
    opt->method.inner_steps_test = 20;
    opt->cgnp.hidden_dim = 128;
    opt->cgnp.num_layers = 3;
    opt->cgnp.epochs = 200;
  } else {
    // CPU-sized defaults preserving the experimental shape.
    opt->train_tasks = 12;
    opt->valid_tasks = 3;
    opt->test_tasks = 5;
    opt->task.subgraph_size = 100;
    opt->task.query_set_size = 8;
    opt->method.hidden_dim = 32;
    opt->method.num_layers = 2;
    opt->method.meta_epochs = 10;
    opt->method.per_task_epochs = 30;
    opt->method.inner_steps_train = 5;
    opt->method.inner_steps_test = 10;
    opt->method.lr = 2e-3f;
    opt->method.inner_lr = 2e-3f;
    opt->method.outer_lr = 4e-3f;
    opt->cgnp.hidden_dim = 32;
    opt->cgnp.num_layers = 2;
    opt->cgnp.epochs = 15;
    opt->cgnp.lr = 2e-3f;
  }
}

}  // namespace

BenchOptions ParseOptions(int argc, char** argv, const std::string& suite) {
  BenchOptions opt;
  opt.suite = suite;
  opt.json_path = "BENCH_" + suite + ".json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale=paper") {
      opt.paper_scale = true;
      opt.xl_scale = false;
    } else if (arg == "--scale=small") {
      opt.paper_scale = false;
      opt.xl_scale = false;
    } else if (arg == "--scale=xl") {
      // Storage-tier sweep; roster hyper-parameters stay at the small
      // preset (the xl mode does not meta-train).
      opt.xl_scale = true;
      opt.paper_scale = false;
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--csv=", 0) == 0) {
      opt.csv_path = arg.substr(6);
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_path = arg.substr(7);
      if (opt.json_path == "off") opt.json_path.clear();
    } else if (arg.rfind("--repeats=", 0) == 0) {
      opt.repeats = std::max(1, static_cast<int>(std::strtol(
                                    arg.c_str() + 10, nullptr, 10)));
    } else if (arg.rfind("--warmup=", 0) == 0) {
      opt.warmup = std::max(0, static_cast<int>(std::strtol(
                                   arg.c_str() + 9, nullptr, 10)));
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.kernel_threads = static_cast<int>(std::strtol(arg.c_str() + 10,
                                                        nullptr, 10));
    } else if (arg.rfind("--datasets=", 0) == 0) {
      std::stringstream ss(arg.substr(11));
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) opt.dataset_filter.push_back(item);
      }
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s\nusage: %s [--scale=small|paper|xl] "
                   "[--seed=N] [--threads=N] [--datasets=a,b,...] "
                   "[--repeats=N] [--warmup=N] [--json=path|off] "
                   "[--csv=path]\n",
                   arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  ApplyScale(&opt);
  opt.method.seed = opt.seed;
  opt.cgnp.seed = opt.seed;
  opt.reporter = std::make_shared<BenchReporter>(suite);
  // Pin the kernel thread count (default 1) so timing rows are comparable
  // across machines and with pre-parallelism runs unless the caller opts
  // into intra-op scaling explicitly.
  set_num_threads(opt.kernel_threads);
  return opt;
}

bool DatasetSelected(const BenchOptions& opt, const std::string& name) {
  if (opt.dataset_filter.empty()) return true;
  for (const auto& f : opt.dataset_filter) {
    if (f == name) return true;
  }
  return false;
}

double TimeMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

std::vector<NamedMethod> MakeMethodRoster(const BenchOptions& opt,
                                          bool attributed) {
  std::vector<NamedMethod> out;
  out.push_back({"ATC",
                 std::make_unique<ClassicalMethod>(ClassicalMethod::Atc()),
                 false});
  if (attributed) {
    out.push_back({"ACQ",
                   std::make_unique<ClassicalMethod>(ClassicalMethod::Acq()),
                   false});
  }
  out.push_back({"CTC",
                 std::make_unique<ClassicalMethod>(ClassicalMethod::Ctc()),
                 false});
  out.push_back({"MAML", std::make_unique<MamlCs>(opt.method), true});
  out.push_back({"Reptile", std::make_unique<ReptileCs>(opt.method), true});
  out.push_back({"FeatTrans", std::make_unique<FeatTransCs>(opt.method), true});
  out.push_back({"GPN", std::make_unique<GpnCs>(opt.method), true});
  out.push_back(
      {"Supervised", std::make_unique<SupervisedCs>(opt.method), false});
  {
    MethodConfig ics = opt.method;
    // Community size ~ expected planted-community share of a task graph.
    ics.ics_community_size = std::max<int64_t>(10, opt.task.subgraph_size / 6);
    out.push_back({"ICS-GNN", std::make_unique<IcsGnnCs>(ics), false});
  }
  out.push_back({"AQD-GNN", std::make_unique<AqdGnnCs>(opt.method), false});
  for (DecoderKind d :
       {DecoderKind::kInnerProduct, DecoderKind::kMlp, DecoderKind::kGnn}) {
    CgnpConfig cfg = opt.cgnp;
    cfg.decoder = d;
    out.push_back(
        {cfg.VariantName(), std::make_unique<CgnpMethod>(cfg), true});
  }
  return out;
}

void AppendCsv(const BenchOptions& opt, const std::string& context,
               const std::vector<MethodResult>& results) {
  if (opt.csv_path.empty()) return;
  std::ifstream probe(opt.csv_path);
  const bool need_header = !probe.good() || probe.peek() == EOF;
  probe.close();
  std::ofstream out(opt.csv_path, std::ios::app);
  if (!out.good()) {
    std::fprintf(stderr, "warning: cannot append CSV to %s\n",
                 opt.csv_path.c_str());
    return;
  }
  if (need_header) {
    out << "context,method,accuracy,precision,recall,f1,train_ms,test_ms\n";
  }
  for (const auto& r : results) {
    out << context << ',' << r.name << ',' << r.stats.accuracy << ','
        << r.stats.precision << ',' << r.stats.recall << ',' << r.stats.f1
        << ',' << r.train_ms << ',' << r.test_ms << '\n';
  }
}

void AppendMetricsCsv(const BenchOptions& opt) {
  if (opt.csv_path.empty() || opt.reporter == nullptr) return;
  std::ifstream probe(opt.csv_path);
  const bool need_header = !probe.good() || probe.peek() == EOF;
  probe.close();
  std::ofstream out(opt.csv_path, std::ios::app);
  if (!out.good()) {
    std::fprintf(stderr, "warning: cannot append CSV to %s\n",
                 opt.csv_path.c_str());
    return;
  }
  if (need_header) {
    out << "suite,case,dataset,backend,threads,scale,metric,value,stddev\n";
  }
  const BenchReport& report = opt.reporter->report();
  for (const BenchRow& row : report.rows) {
    for (const auto& [name, m] : row.metrics) {
      out << report.meta.suite << ',' << row.case_name << ',' << row.dataset
          << ',' << row.backend << ',' << row.threads << ',' << row.scale
          << ',' << name << ',' << m.value << ',' << m.stddev << '\n';
    }
  }
}

MethodResult RunMethodRepeated(
    const BenchOptions& opt, const std::string& name,
    const std::function<std::unique_ptr<CsMethod>()>& make,
    const TaskSplit& split) {
  MethodResult r;
  r.name = name;
  r.repeats = std::max(1, opt.repeats);
  std::vector<double> train_samples, test_samples;
  for (int rep = -opt.warmup; rep < r.repeats; ++rep) {
    // Fresh instance per repetition: MetaTrain mutates the method, so
    // re-timing a trained instance would measure a different workload.
    std::unique_ptr<CsMethod> method = make();
    StatsAccumulator acc;
    const double train_ms = TimeMs([&] { method->MetaTrain(split.train); });
    const double test_ms = TimeMs([&] {
      for (const auto& task : split.test) {
        const auto preds = method->PredictTask(task);
        for (size_t i = 0; i < task.query.size(); ++i) {
          acc.Add(EvaluateScores(preds[i], task.query[i].truth,
                                 task.query[i].query));
        }
      }
    });
    if (rep < 0) continue;  // warmup runs are not recorded
    train_samples.push_back(train_ms);
    test_samples.push_back(test_ms);
    if (rep == 0) r.stats = acc.MeanStats();
  }
  const TimingStats train = SummarizeSamples(std::move(train_samples));
  const TimingStats test = SummarizeSamples(std::move(test_samples));
  r.train_ms = train.median_ms;
  r.train_ms_std = train.stddev_ms;
  r.test_ms = test.median_ms;
  r.test_ms_std = test.stddev_ms;
  return r;
}

void RecordResults(const BenchOptions& opt, const RosterScope& scope,
                   const std::vector<MethodResult>& results) {
  if (opt.reporter != nullptr) {
    for (const MethodResult& r : results) {
      BenchRow row;
      row.case_name = scope.case_name;
      row.dataset = scope.dataset;
      row.backend = r.name;
      row.threads = opt.kernel_threads;
      row.scale = opt.scale_name();
      row.repeats = r.repeats;
      row.AddMetric("train_ms", r.train_ms, r.train_ms_std);
      row.AddMetric("test_ms", r.test_ms, r.test_ms_std);
      row.AddMetric("accuracy", r.stats.accuracy);
      row.AddMetric("precision", r.stats.precision);
      row.AddMetric("recall", r.stats.recall);
      row.AddMetric("f1", r.stats.f1);
      opt.reporter->Add(std::move(row));
    }
  }
  AppendCsv(opt, scope.dataset + "/" + scope.case_name, results);
}

std::vector<MethodResult> RunRoster(
    const BenchOptions& opt, bool attributed, const TaskSplit& split,
    const RosterScope& scope,
    const std::function<bool(const NamedMethod&)>& include) {
  std::vector<MethodResult> results;
  auto roster = MakeMethodRoster(opt, attributed);
  for (size_t mi = 0; mi < roster.size(); ++mi) {
    if (include != nullptr && !include(roster[mi])) continue;
    // The factory rebuilds method mi from scratch for each timed repeat
    // (rebuilding the whole roster to extract one entry is fine: method
    // construction just copies configs); the first call reuses the
    // already-constructed instance.
    auto first = std::move(roster[mi].method);
    const auto make = [&]() -> std::unique_ptr<CsMethod> {
      if (first != nullptr) return std::move(first);
      return std::move(MakeMethodRoster(opt, attributed)[mi].method);
    };
    results.push_back(
        RunMethodRepeated(opt, roster[mi].name, make, split));
    PrintResultRow(results.back());
  }
  RecordResults(opt, scope, results);
  return results;
}

int FinishReport(const BenchOptions& opt) {
  if (opt.reporter == nullptr) return 0;
  if (opt.json_path.empty()) return 0;
  const Status written = opt.reporter->WriteFile(opt.json_path);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu rows)\n", opt.json_path.c_str(),
              opt.reporter->report().rows.size());
  return 0;
}

void PrintTableHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-14s %8s %8s %8s %8s %12s %12s\n", "Method", "Acc", "Pre",
              "Rec", "F1", "train(ms)", "test(ms)");
  std::fflush(stdout);
}

void PrintResultRow(const MethodResult& r) {
  std::printf("%-14s %8.4f %8.4f %8.4f %8.4f %12.1f %12.1f\n", r.name.c_str(),
              r.stats.accuracy, r.stats.precision, r.stats.recall, r.stats.f1,
              r.train_ms, r.test_ms);
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace cgnp
