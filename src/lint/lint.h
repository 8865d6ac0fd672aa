// cgnp_lint: project-invariant checker behind tools/cgnp_lint.
//
// The compiler enforces types; reviewers used to enforce everything else.
// This library mechanises the reviewer half -- the project rules that keep
// "a corrupt file can never abort the server" true. (A discarded Status is
// the compiler's job: Status/StatusOr are [[nodiscard]] and every build
// passes -Werror=unused-result.)
//
//   cgnp-no-abort           no CGNP_CHECK / abort / exit / throw / assert in
//                           user-input-reachable layers (src/serve/,
//                           src/cs/, the binary parsers, src/bench/): bad
//                           input must surface as a Status, never terminate
//                           a serving process.
//   cgnp-determinism        no rand()/srand()/random_device and no
//                           std::unordered_{map,set} in bitwise-determinism
//                           paths (src/tensor/, src/nn/, src/meta/, the
//                           src/core/cgnp*.{h,cc} files): hash-table
//                           iteration order and libc PRNG state are
//                           platform-dependent.
//   cgnp-raw-logging        no std::cout/std::cerr/printf-family output in
//                           src/ -- library code logs through CGNP_LOG so
//                           operators choose the sink (src/obs/log.* and the
//                           CHECK abort path are the implementation and are
//                           allowlisted).
//   cgnp-include-hygiene    every src/*.cc includes its own header first
//                           (catches headers that do not stand alone), and
//                           no src/ file includes from tests/.
//   cgnp-no-raw-intrinsics  vendor SIMD headers (<immintrin.h>,
//                           <arm_neon.h>, ...) are includable only from
//                           src/tensor/simd.* -- all vectorized loops go
//                           through the runtime dispatch table, so the
//                           scalar fallback cannot rot.
//
// The checker is lexical, not a C++ front end: comments, string literals
// and preprocessor directives are blanked before any rule runs, and every
// rule supports per-line
//   // NOLINT(cgnp-<rule>): <one-line justification>
// (or NOLINTNEXTLINE) suppressions. Suppressions are budgeted: the report
// counts them per rule, and a suppression without a justification text is
// itself a finding. Rules are data-driven (LintConfig path lists), so new
// layers opt in by editing the config, not the checker.
//
// docs/STATIC_ANALYSIS.md is the rule catalogue; tests/lint_test.cc drives
// each rule over synthetic snippets and self-checks the shipped tree.
#ifndef CGNP_LINT_LINT_H_
#define CGNP_LINT_LINT_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace cgnp {
namespace lint {

// One file handed to the checker. `path` is repo-relative with forward
// slashes ("src/serve/query_server.cc") -- every path-scoped rule matches
// on it.
struct SourceFile {
  std::string path;
  std::string text;
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;  // "cgnp-no-abort" etc.
  std::string message;
};

// A NOLINT directive encountered while scanning (used or not); the budget
// report is built from these.
struct SuppressionNote {
  std::string file;
  int line = 0;       // the line the suppression applies to
  std::string rule;   // "cgnp-no-abort" etc.
  bool justified = false;  // has a ": why" text after the rule
  bool used = false;       // actually silenced a finding
};

// Path scoping for every rule. Prefixes are repo-relative and compared
// verbatim ("src/cs/" matches "src/cs/acq.cc"); exact file paths work too.
struct LintConfig {
  // cgnp-no-abort applies to files under any of these prefixes.
  std::vector<std::string> abort_free_paths = {
      "src/serve/", "src/cs/", "src/bench/",
      "src/graph/format.cc", "src/core/checkpoint.cc",
      // The delta mutation API is an external-input surface (edit lists
      // arrive from user files via graph_convert apply-edits).
      "src/graph/delta.h", "src/graph/delta.cc",
      // The connected-community routines every classical backend runs.
      "src/graph/algorithms.h",
  };
  // cgnp-determinism applies here: the kernels, and the trainers and
  // models whose parameters and predictions are pinned bitwise.
  std::vector<std::string> deterministic_paths = {
      "src/tensor/", "src/nn/", "src/meta/",
      "src/core/cgnp.h", "src/core/cgnp.cc", "src/core/cgnp_config.h",
      "src/core/cgnp_encoder.h", "src/core/cgnp_encoder.cc",
      "src/core/cgnp_decoder.h", "src/core/cgnp_decoder.cc",
      "src/core/cgnp_searcher.h", "src/core/cgnp_searcher.cc",
  };
  // cgnp-raw-logging applies here...
  std::vector<std::string> raw_logging_paths = {"src/"};
  // ...except these (the logging/abort implementation itself).
  std::vector<std::string> raw_logging_exempt = {
      "src/obs/log.h", "src/obs/log.cc", "src/common/check.h",
      "src/common/check.cc",
  };
  // cgnp-no-raw-intrinsics runs everywhere except the SIMD dispatch layer
  // itself (the one translation unit allowed to see vendor intrinsics).
  std::vector<std::string> intrinsics_exempt = {
      "src/tensor/simd.h", "src/tensor/simd.cc",
  };
  // cgnp-include-hygiene runs everywhere.
};

struct LintReport {
  std::vector<Finding> findings;
  std::vector<SuppressionNote> suppressions;
  int files_scanned = 0;

  bool clean() const { return findings.empty(); }
  // Budget: used suppressions per rule.
  std::map<std::string, int> SuppressionBudget() const;
};

// Runs every rule over `files`. Pure: no filesystem, no output -- the CLI
// and tests own presentation.
LintReport LintSources(const std::vector<SourceFile>& files,
                       const LintConfig& config = {});

// Filesystem front end: collects src/ tools/ examples/ (.h/.cc) under
// `repo_root` in sorted order and lints them. NotFound when the root does
// not look like the repo (no src/ directory).
StatusOr<LintReport> LintTree(const std::string& repo_root,
                              const LintConfig& config = {});

// Renders findings + the suppression budget as human-readable text
// ("file:line: [rule] message" lines, then the budget table). The library
// itself never writes to a stream (cgnp-raw-logging applies here too).
std::string FormatReport(const LintReport& report, bool verbose = false);

}  // namespace lint
}  // namespace cgnp

#endif  // CGNP_LINT_LINT_H_
