// Table IV: ablation studies on the CGNP model. Left half: encoder GNN
// layer (GCN vs GAT vs GraphSAGE) with the commutative operation fixed to
// average. Right half: commutative operation (attention vs sum vs average)
// with the encoder fixed to GAT. Run on 5-shot tasks as in the paper.
#include <cstdio>

#include "bench/harness.h"

namespace {

using namespace cgnp;
using namespace cgnp::bench;

MethodResult RunVariant(const BenchOptions& opt, const CgnpConfig& cfg,
                        const std::string& label, const TaskSplit& split) {
  const MethodResult r = RunMethodRepeated(
      opt, label, [&] { return std::make_unique<CgnpMethod>(cfg); }, split);
  PrintResultRow(r);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt = ParseOptions(argc, argv, "table4_ablation");
  opt.task.shots = 5;  // the paper ablates on 5-shot tasks

  std::printf("Table IV: CGNP ablations, 5-shot (scale=%s)\n",
              opt.paper_scale ? "paper" : "small");

  const DatasetProfile datasets[] = {CiteseerProfile(), ArxivProfile(),
                                     RedditProfile(), DblpProfile()};
  for (const auto& profile : datasets) {
    if (!DatasetSelected(opt, profile.name)) continue;
    Rng rng(opt.seed);
    const Graph g = MakeDataset(profile, &rng)[0];
    // Citeseer/Arxiv ablate on SGSC, Reddit/DBLP on SGDC (paper Table IV).
    const TaskRegime regime =
        (profile.name == "Reddit" || profile.name == "DBLP")
            ? TaskRegime::kSgdc
            : TaskRegime::kSgsc;
    Rng task_rng(opt.seed + 5);
    const TaskSplit split = MakeSingleGraphTasks(
        g, regime, opt.task, opt.train_tasks, opt.valid_tasks, opt.test_tasks,
        &task_rng);
    if (split.train.empty() || split.test.empty()) continue;

    PrintTableHeader(profile.name + "  encoder ablation (big-plus = average)");
    std::vector<MethodResult> encoder_results;
    for (GnnKind kind : {GnnKind::kGcn, GnnKind::kGat, GnnKind::kSage}) {
      CgnpConfig cfg = opt.cgnp;
      cfg.decoder = DecoderKind::kGnn;  // paper ablates the GNN-decoder model
      cfg.encoder = kind;
      cfg.commutative = CommutativeOp::kAverage;
      encoder_results.push_back(RunVariant(opt, cfg, GnnKindName(kind), split));
    }
    RecordResults(opt, {"encoder_ablation", profile.name}, encoder_results);

    PrintTableHeader(profile.name + "  commutative ablation (encoder = GAT)");
    // The paper's three options plus the ANP-style per-node cross-attention
    // extension (docs/ARCHITECTURE.md "Substitutions").
    std::vector<MethodResult> comm_results;
    for (CommutativeOp op :
         {CommutativeOp::kAttention, CommutativeOp::kSum,
          CommutativeOp::kAverage, CommutativeOp::kCrossAttention}) {
      CgnpConfig cfg = opt.cgnp;
      cfg.decoder = DecoderKind::kGnn;
      cfg.encoder = GnnKind::kGat;
      cfg.commutative = op;
      comm_results.push_back(RunVariant(opt, cfg, CommutativeOpName(op), split));
    }
    RecordResults(opt, {"commutative_ablation", profile.name}, comm_results);
  }
  return FinishReport(opt);
}
