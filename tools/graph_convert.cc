// graph_convert: command-line front end for the binary graph container
// (docs/GRAPH_FORMAT.md).
//
//   graph_convert convert <in> <out.cgrf> [--communities=F] [--attributes=F]
//       Ingest a text edge list (SNAP style; '#' comments) -- or re-encode
//       an existing container -- into a .cgrf file. Side files attach
//       ground-truth communities / discrete attributes to text input.
//   graph_convert synth <out.cgrf> --nodes=N [--communities=K] [--intra=D]
//       [--inter=D] [--attr-dim=D] [--seed=S] [--edges-text=F]
//       Generate a planted-partition graph and save it as a container;
//       --edges-text additionally writes the text edge list (handy for
//       exercising the convert path end to end).
//   graph_convert info <file.cgrf>
//       Print the header and section table (validates the whole file,
//       checksums included).
//   graph_convert verify <file.cgrf>
//       Run the full validation pipeline through BOTH load paths (copying
//       and mmap). Prints nothing but the verdict.
//   graph_convert serve <file.cgrf> [--queries=N] [--backend=NAME]
//       [--threads=T]
//       Map the container and answer N queries through the query server --
//       the "serve straight from the file" smoke test.
//   graph_convert apply-edits <in.cgrf> <edits.txt> <out.cgrf>
//       Replay a text edit list ("+u v" inserts, "-u v" deletes, '#'
//       comments) against the container through the delta overlay, then
//       compact and save the result. Any malformed line or rejected edit
//       (bad id, self loop, deleting an absent edge) fails the whole run
//       with a message naming the offending line/edit; nothing is written.
//
// Exit codes: 0 success, 1 Status failure (missing/corrupt file, failed
// query, bad edit), 2 usage error. Never aborts on bad input files.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/io.h"
#include "data/synthetic.h"
#include "graph/delta.h"
#include "graph/format.h"
#include "serve/query_server.h"
#include "tensor/rng.h"

namespace {

using namespace cgnp;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  graph_convert convert <in> <out.cgrf> [--communities=F] "
      "[--attributes=F]\n"
      "  graph_convert synth <out.cgrf> --nodes=N [--communities=K] "
      "[--intra=D] [--inter=D] [--attr-dim=D] [--seed=S] [--edges-text=F]\n"
      "  graph_convert info <file.cgrf>\n"
      "  graph_convert verify <file.cgrf>\n"
      "  graph_convert serve <file.cgrf> [--queries=N] [--backend=NAME] "
      "[--threads=T]\n"
      "  graph_convert apply-edits <in.cgrf> <edits.txt> <out.cgrf>\n");
  return 2;
}

int Fail(const Status& s) {
  std::fprintf(stderr, "graph_convert: %s\n", s.ToString().c_str());
  return 1;
}

// "--key=value" matcher shared by every subcommand.
const char* FlagValue(const std::string& arg, const char* prefix) {
  const size_t n = std::strlen(prefix);
  return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
}

// --threads=T: the whole value must be an integer in
// [1, serve::kMaxServeThreads].
bool ParseThreads(const char* text, int* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 1 ||
      v > serve::kMaxServeThreads) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

int RunConvert(const std::vector<std::string>& args) {
  std::string in, out, communities, attributes;
  for (const auto& arg : args) {
    if (const char* com = FlagValue(arg, "--communities=")) {
      communities = com;
    } else if (const char* attr = FlagValue(arg, "--attributes=")) {
      attributes = attr;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else if (in.empty()) {
      in = arg;
    } else if (out.empty()) {
      out = arg;
    } else {
      return Usage();
    }
  }
  if (in.empty() || out.empty()) return Usage();
  auto graph = LoadGraphAuto(in, {}, communities, attributes);
  if (!graph.ok()) return Fail(graph.status());
  if (const Status s = SaveGraphBinary(*graph, out); !s.ok()) return Fail(s);
  std::printf("converted %s -> %s: %lld nodes, %lld edges\n", in.c_str(),
              out.c_str(), static_cast<long long>(graph->num_nodes()),
              static_cast<long long>(graph->num_edges()));
  return 0;
}

int RunSynth(const std::vector<std::string>& args) {
  std::string out, edges_text;
  SyntheticConfig cfg;
  cfg.num_nodes = 0;  // --nodes is mandatory
  cfg.num_communities = 10;
  cfg.attribute_dim = 0;
  uint64_t seed = 7;
  for (const auto& arg : args) {
    if (const char* nodes = FlagValue(arg, "--nodes=")) {
      cfg.num_nodes = std::atoll(nodes);
    } else if (const char* coms = FlagValue(arg, "--communities=")) {
      cfg.num_communities = std::atoll(coms);
    } else if (const char* intra = FlagValue(arg, "--intra=")) {
      cfg.intra_degree = std::atof(intra);
    } else if (const char* inter = FlagValue(arg, "--inter=")) {
      cfg.inter_degree = std::atof(inter);
    } else if (const char* attr_dim = FlagValue(arg, "--attr-dim=")) {
      cfg.attribute_dim = std::atoll(attr_dim);
    } else if (const char* seed_arg = FlagValue(arg, "--seed=")) {
      seed = std::strtoull(seed_arg, nullptr, 10);
    } else if (const char* edges = FlagValue(arg, "--edges-text=")) {
      edges_text = edges;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else if (out.empty()) {
      out = arg;
    } else {
      return Usage();
    }
  }
  if (out.empty() || cfg.num_nodes <= 0 || cfg.num_communities <= 0) {
    return Usage();
  }
  Rng rng(seed);
  const Graph g = GenerateSyntheticGraph(cfg, &rng);
  if (const Status s = SaveGraphBinary(g, out); !s.ok()) return Fail(s);
  if (!edges_text.empty()) {
    if (const Status s = SaveGraphToFiles(g, edges_text); !s.ok()) {
      return Fail(s);
    }
  }
  std::printf("synthesised %s: %lld nodes, %lld edges, %lld communities\n",
              out.c_str(), static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_edges()),
              static_cast<long long>(g.num_communities()));
  return 0;
}

int RunInfo(const std::string& path) {
  const auto info = ReadGraphFileInfo(path);
  if (!info.ok()) return Fail(info.status());
  std::printf("%s: CGRF v%u, %llu bytes, fingerprint %016llx\n",
              path.c_str(), kGraphFileVersion,
              static_cast<unsigned long long>(info->file_bytes),
              static_cast<unsigned long long>(info->fingerprint));
  std::printf(
      "  nodes=%llu directed_edges=%llu feature_dim=%llu attr_ids=%llu "
      "attributes=%s communities=%s\n",
      static_cast<unsigned long long>(info->num_nodes),
      static_cast<unsigned long long>(info->num_directed_edges),
      static_cast<unsigned long long>(info->feature_dim),
      static_cast<unsigned long long>(info->num_attr_ids),
      info->has_attributes ? "yes" : "no",
      info->has_communities ? "yes" : "no");
  for (const auto& s : info->sections) {
    std::printf("  section %u: offset=%llu bytes=%llu checksum=%016llx\n",
                s.id, static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.bytes),
                static_cast<unsigned long long>(s.checksum));
  }
  return 0;
}

int RunVerify(const std::string& path) {
  // Both load paths share one validation pipeline, but run both anyway:
  // verify is the tool the corruption tests and CI lean on.
  if (const auto g = LoadGraphBinary(path); !g.ok()) return Fail(g.status());
  const auto mapped = MapGraphBinary(path);
  if (!mapped.ok()) return Fail(mapped.status());
  std::printf("%s: OK (%lld nodes, %lld edges, fingerprint %016llx)\n",
              path.c_str(), static_cast<long long>(mapped->num_nodes()),
              static_cast<long long>(mapped->num_edges()),
              static_cast<unsigned long long>(
                  mapped->storage_fingerprint()));
  return 0;
}

int RunServe(const std::string& path, const std::vector<std::string>& args) {
  int64_t queries = 100;
  serve::ServeOptions opt;
  opt.backend = "kcore";
  for (const auto& arg : args) {
    if (const char* q = FlagValue(arg, "--queries=")) {
      queries = std::atoll(q);
    } else if (const char* backend = FlagValue(arg, "--backend=")) {
      opt.backend = backend;
    } else if (const char* threads = FlagValue(arg, "--threads=")) {
      if (!ParseThreads(threads, &opt.num_threads)) {
        std::fprintf(stderr,
                     "graph_convert: --threads must be an integer in "
                     "[1, %d], got \"%s\"\n",
                     serve::kMaxServeThreads, threads);
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (queries <= 0) return Usage();

  const auto graph = serve::OpenMappedGraph(path);
  if (!graph.ok()) return Fail(graph.status());
  if ((*graph)->num_nodes() == 0) {
    return Fail(InvalidArgumentError("cannot serve an empty graph"));
  }
  auto server = serve::QueryServer::Create(nullptr, opt);
  if (!server.ok()) return Fail(server.status());

  std::vector<serve::SearchRequest> batch(static_cast<size_t>(queries));
  Rng rng(13);
  for (auto& req : batch) {
    req.graph = graph->get();
    req.graph_id = (*graph)->storage_fingerprint();
    req.query = rng.NextInt((*graph)->num_nodes());
  }
  const auto responses = (*server)->ServeBatch(batch);
  for (const auto& resp : responses) {
    if (!resp.status.ok()) return Fail(resp.status);
  }
  const serve::ServerStats stats = (*server)->Stats();
  std::printf(
      "served %llu queries from %s (backend=%s, threads=%d): "
      "p50=%.3fms p99=%.3fms qps=%.1f\n",
      static_cast<unsigned long long>(stats.requests), path.c_str(),
      opt.backend.c_str(), opt.num_threads, stats.p50_ms, stats.p99_ms,
      stats.qps);
  return 0;
}

int RunApplyEdits(const std::string& in, const std::string& edits_path,
                  const std::string& out) {
  auto graph = LoadGraphBinary(in);
  if (!graph.ok()) return Fail(graph.status());

  std::ifstream edits_file(edits_path, std::ios::binary);
  if (!edits_file) {
    return Fail(NotFoundError("cannot open edit list: " + edits_path));
  }
  std::ostringstream text;
  text << edits_file.rdbuf();
  const auto edits = ParseEditList(text.str());
  if (!edits.ok()) return Fail(edits.status());

  GraphDelta delta(std::make_shared<const Graph>(*std::move(graph)));
  if (const Status s = ApplyEditList(&delta, *edits); !s.ok()) return Fail(s);
  const Graph result = delta.Compact();
  if (const Status s = SaveGraphBinary(result, out); !s.ok()) return Fail(s);
  std::printf(
      "applied %zu edits (%llu applied versions) %s -> %s: %lld nodes, "
      "%lld edges\n",
      edits->size(), static_cast<unsigned long long>(delta.version()),
      in.c_str(), out.c_str(), static_cast<long long>(result.num_nodes()),
      static_cast<long long>(result.num_edges()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "convert") return RunConvert(args);
  if (cmd == "synth") return RunSynth(args);
  if (cmd == "info" && args.size() == 1) return RunInfo(args[0]);
  if (cmd == "verify" && args.size() == 1) return RunVerify(args[0]);
  if (cmd == "serve" && !args.empty()) {
    return RunServe(args[0], {args.begin() + 1, args.end()});
  }
  if (cmd == "apply-edits" && args.size() == 3) {
    return RunApplyEdits(args[0], args[1], args[2]);
  }
  return Usage();
}
