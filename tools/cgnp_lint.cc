// cgnp_lint: walks src/ tools/ examples/ and enforces the project
// invariants the compiler cannot (docs/STATIC_ANALYSIS.md has the rule
// catalogue). The engine lives in src/lint/ (tested by tests/lint_test.cc);
// this file is argument parsing and presentation only.
//
// Usage:
//   cgnp_lint [--root=DIR] [--verbose]
//
//   --root=DIR   repo root to scan (default: current directory, falling
//                back to the parent when invoked from build/)
//   --verbose    also print every used suppression
//
// Exit codes (CI contract, mirrored by tools/run_bench_tier.sh):
//   0  tree is clean
//   1  findings (printed as file:line: [rule] message)
//   2  usage or IO error
#include <filesystem>
#include <iostream>
#include <string>

#include "lint/lint.h"

namespace {

bool HasSrcDir(const std::string& root) {
  std::error_code ec;
  return std::filesystem::is_directory(
      std::filesystem::path(root) / "src", ec);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool root_given = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
      root_given = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: cgnp_lint [--root=DIR] [--verbose]\n";
      return 0;
    } else {
      std::cerr << "cgnp_lint: unknown argument: " << arg << "\n"
                << "usage: cgnp_lint [--root=DIR] [--verbose]\n";
      return 2;
    }
  }
  // Convenience: `build/cgnp_lint` from the repo root and `./cgnp_lint`
  // from inside build/ both find the tree.
  if (!root_given && !HasSrcDir(root) && HasSrcDir("..")) root = "..";

  auto report = cgnp::lint::LintTree(root);
  if (!report.ok()) {
    std::cerr << "cgnp_lint: " << report.status().ToString() << "\n";
    return 2;
  }
  std::cout << cgnp::lint::FormatReport(*report, verbose);
  return report->clean() ? 0 : 1;
}
