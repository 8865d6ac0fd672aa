// Drives every cgnp_lint rule (src/lint/lint.h) over synthetic snippets --
// positive, negative and NOLINT-suppressed -- then self-checks that the
// shipped tree is clean, so a lint regression fails ctest even before CI's
// static-analysis job sees it.
#include "lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cgnp {
namespace lint {
namespace {

using Files = std::vector<SourceFile>;

bool HasFinding(const LintReport& report, const std::string& rule,
                const std::string& file, int line = 0) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [&](const Finding& f) {
                       return f.rule == rule && f.file == file &&
                              (line == 0 || f.line == line);
                     });
}

// --- cgnp-no-abort ----------------------------------------------------------

TEST(NoAbort, FlagsAbortersInServingLayersOnly) {
  const std::string body =
      "void Handle(int k) {\n"
      "  CGNP_CHECK_GE(k, 0);\n"
      "  if (k > 9) abort();\n"
      "  if (k > 8) throw k;\n"
      "}\n";
  const LintReport serve = LintSources({{"src/serve/h.cc", body}});
  EXPECT_TRUE(HasFinding(serve, "cgnp-no-abort", "src/serve/h.cc", 2));
  EXPECT_TRUE(HasFinding(serve, "cgnp-no-abort", "src/serve/h.cc", 3));
  EXPECT_TRUE(HasFinding(serve, "cgnp-no-abort", "src/serve/h.cc", 4));

  // The same text outside the configured layers is fine.
  const LintReport internals = LintSources({{"src/graph/mincut.cc", body}});
  EXPECT_TRUE(internals.clean())
      << FormatReport(internals, /*verbose=*/true);
}

TEST(NoAbort, NolintNextlineCoversTheLineBelow) {
  const Files files = {
      {"src/cs/algo.cc",
       "void Run(int q) {\n"
       "  // NOLINTNEXTLINE(cgnp-no-abort): validated by the adapter\n"
       "  CGNP_CHECK_GE(q, 0);\n"
       "}\n"},
  };
  const LintReport report = LintSources(files);
  EXPECT_TRUE(report.clean()) << FormatReport(report, /*verbose=*/true);
}

TEST(NoAbort, NolintSuppressesWithJustification) {
  const Files files = {
      {"src/serve/user.cc",
       "void Handle(int k) {\n"
       "  CGNP_CHECK_GE(k, 0);  // NOLINT(cgnp-no-abort): k is a loop index\n"
       "}\n"},
  };
  const LintReport report = LintSources(files);
  EXPECT_TRUE(report.clean()) << FormatReport(report, /*verbose=*/true);
  ASSERT_EQ(report.suppressions.size(), 1u);
  EXPECT_TRUE(report.suppressions[0].used);
  EXPECT_TRUE(report.suppressions[0].justified);
  const auto budget = report.SuppressionBudget();
  EXPECT_EQ(budget.at("cgnp-no-abort"), 1);
}

TEST(NoAbort, UnjustifiedNolintIsItselfAFinding) {
  const Files files = {
      {"src/serve/user.cc",
       "void Handle(int k) {\n"
       "  CGNP_CHECK_GE(k, 0);  // NOLINT(cgnp-no-abort)\n"
       "}\n"},
  };
  const LintReport report = LintSources(files);
  EXPECT_TRUE(
      HasFinding(report, "cgnp-nolint-justification", "src/serve/user.cc", 2))
      << FormatReport(report, /*verbose=*/true);
  EXPECT_FALSE(HasFinding(report, "cgnp-no-abort", "src/serve/user.cc"));
}

// --- cgnp-determinism -------------------------------------------------------

TEST(Determinism, FlagsHashContainersAndLibcPrngInKernels) {
  const Files files = {
      {"src/tensor/k.cc",
       "#include <unordered_map>\n"
       "int F() {\n"
       "  std::unordered_map<int, int> m;\n"
       "  return rand();\n"
       "}\n"},
  };
  const LintReport report = LintSources(files);
  EXPECT_TRUE(HasFinding(report, "cgnp-determinism", "src/tensor/k.cc", 3));
  EXPECT_TRUE(HasFinding(report, "cgnp-determinism", "src/tensor/k.cc", 4));
}

TEST(Determinism, IgnoresOrderedContainersAndOtherLayers) {
  const LintReport kernel = LintSources(
      {{"src/nn/layer.cc", "std::map<int, int> m;\nstd::set<int> s;\n"}});
  EXPECT_TRUE(kernel.clean());
  // unordered_set outside the deterministic paths is allowed.
  const LintReport other = LintSources(
      {{"src/graph/algo.cc", "std::unordered_set<int> seen;\n"}});
  EXPECT_TRUE(other.clean());
}

TEST(Determinism, CoversTrainersAndTheCgnpModel) {
  const std::string body = "std::unordered_set<int> seen;\n";
  for (const std::string path :
       {"src/meta/maml.cc", "src/core/cgnp.cc", "src/core/cgnp_encoder.h"}) {
    const LintReport report = LintSources({{path, body}});
    EXPECT_TRUE(HasFinding(report, "cgnp-determinism", path, 1)) << path;
  }
  // The rest of core (engine, cache) is not a bitwise-determinism path.
  EXPECT_TRUE(LintSources({{"src/core/context_cache.cc", body}}).clean());
}

// --- cgnp-raw-logging -------------------------------------------------------

TEST(RawLogging, FlagsStdoutInLibraryButNotToolsOrExemptFiles) {
  const LintReport lib = LintSources(
      {{"src/graph/algo.cc", "void F() { std::cout << \"hi\\n\"; }\n"}});
  EXPECT_TRUE(HasFinding(lib, "cgnp-raw-logging", "src/graph/algo.cc", 1));

  // Tools own their stdout; the log sink implementation is exempt.
  const LintReport tool = LintSources(
      {{"tools/cli.cc", "int main() { std::printf(\"out\\n\"); }\n"}});
  EXPECT_TRUE(tool.clean());
  const LintReport sink = LintSources(
      {{"src/obs/log.cc", "void Emit() { std::cerr << \"x\"; }\n"}});
  EXPECT_TRUE(sink.clean());
}

// --- cgnp-include-hygiene ---------------------------------------------------

TEST(IncludeHygiene, RequiresOwnHeaderFirst) {
  const Files bad = {
      {"src/graph/algo.cc",
       "#include <vector>\n"
       "#include \"graph/algo.h\"\n"},
      {"src/graph/algo.h", "int F();\n"},
  };
  EXPECT_TRUE(HasFinding(LintSources(bad), "cgnp-include-hygiene",
                         "src/graph/algo.cc"));

  const Files good = {
      {"src/graph/algo.cc",
       "#include \"graph/algo.h\"\n"
       "#include <vector>\n"},
      {"src/graph/algo.h", "int F();\n"},
  };
  EXPECT_TRUE(LintSources(good).clean());
}

TEST(IncludeHygiene, ForbidsSrcIncludingTests) {
  const Files files = {
      {"src/graph/algo.cc",
       "#include \"graph/algo.h\"\n"
       "#include \"tests/fixtures.h\"\n"},
      {"src/graph/algo.h", "int F();\n"},
  };
  EXPECT_TRUE(HasFinding(LintSources(files), "cgnp-include-hygiene",
                         "src/graph/algo.cc", 2));
}

// --- cgnp-no-raw-intrinsics -------------------------------------------------

TEST(NoRawIntrinsics, FlagsVendorHeadersOutsideTheDispatchLayer) {
  const Files files = {
      {"src/nn/fast_linear.cc",
       "#include <immintrin.h>\n"
       "void F();\n"},
      {"src/graph/simd_csr.h", "#include <arm_neon.h>\n"},
      {"tools/probe.cc", "#include <x86intrin.h>\n"},
  };
  const LintReport report = LintSources(files);
  EXPECT_TRUE(HasFinding(report, "cgnp-no-raw-intrinsics",
                         "src/nn/fast_linear.cc", 1))
      << FormatReport(report, /*verbose=*/true);
  EXPECT_TRUE(HasFinding(report, "cgnp-no-raw-intrinsics",
                         "src/graph/simd_csr.h", 1));
  // Tools are not exempt either: dispatch stays centralized everywhere.
  EXPECT_TRUE(HasFinding(report, "cgnp-no-raw-intrinsics", "tools/probe.cc", 1));
}

TEST(NoRawIntrinsics, AllowsTheDispatchLayerItself) {
  const Files files = {
      {"src/tensor/simd.cc",
       "#include \"tensor/simd.h\"\n"
       "#include <immintrin.h>\n"
       "#include <arm_neon.h>\n"},
      {"src/tensor/simd.h", "int F();\n"},
  };
  const LintReport report = LintSources(files);
  EXPECT_TRUE(report.clean()) << FormatReport(report, /*verbose=*/true);
}

// --- suppression bookkeeping ------------------------------------------------

TEST(Suppressions, UnknownRuleNameIsAFinding) {
  const Files files = {
      {"src/graph/algo.cc",
       "int x = 1;  // NOLINT(cgnp-made-up-rule): because\n"},
  };
  const LintReport report = LintSources(files);
  EXPECT_TRUE(HasFinding(report, "cgnp-nolint-justification",
                         "src/graph/algo.cc", 1))
      << FormatReport(report, /*verbose=*/true);
}

TEST(Suppressions, NonCgnpNolintIsIgnored) {
  // Plain clang-tidy suppressions pass through untouched.
  const Files files = {
      {"src/graph/algo.cc",
       "int x = 1;  // NOLINT(bugprone-branch-clone)\n"},
  };
  const LintReport report = LintSources(files);
  EXPECT_TRUE(report.clean()) << FormatReport(report, /*verbose=*/true);
  EXPECT_TRUE(report.suppressions.empty());
}

// --- shipped tree -----------------------------------------------------------

// The tree this test was compiled from must lint clean: the acceptance bar
// for every PR (CI runs the same check via tools/cgnp_lint).
TEST(ShippedTree, LintsClean) {
#ifndef CGNP_SOURCE_DIR
  GTEST_SKIP() << "CGNP_SOURCE_DIR not defined by the build";
#else
  auto report = LintTree(CGNP_SOURCE_DIR);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->files_scanned, 100);
  EXPECT_TRUE(report->clean()) << FormatReport(*report, /*verbose=*/true);
  // Every suppression in the tree must be justified and in use; the
  // budget stays visible here so growth is a conscious decision.
  for (const auto& s : report->suppressions) {
    EXPECT_TRUE(s.justified) << s.file << ":" << s.line;
    EXPECT_TRUE(s.used) << s.file << ":" << s.line << " (" << s.rule << ")";
  }
#endif
}

}  // namespace
}  // namespace lint
}  // namespace cgnp
