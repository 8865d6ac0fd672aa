#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

namespace cgnp {
namespace lint {

namespace {

const char kRuleNoAbort[] = "cgnp-no-abort";
const char kRuleDeterminism[] = "cgnp-determinism";
const char kRuleRawLogging[] = "cgnp-raw-logging";
const char kRuleIncludeHygiene[] = "cgnp-include-hygiene";
const char kRuleNoRawIntrinsics[] = "cgnp-no-raw-intrinsics";
const char kRuleNolintJustification[] = "cgnp-nolint-justification";

const char* const kKnownRules[] = {
    kRuleNoAbort,         kRuleDeterminism,     kRuleRawLogging,
    kRuleIncludeHygiene,  kRuleNoRawIntrinsics, kRuleNolintJustification,
};

// Vendor SIMD intrinsic headers (and the umbrella headers that pull them
// in). Only the dispatch layer may include them.
const char* const kIntrinsicHeaders[] = {
    "immintrin.h", "x86intrin.h",  "arm_neon.h",  "emmintrin.h",
    "xmmintrin.h", "smmintrin.h",  "tmmintrin.h", "pmmintrin.h",
    "nmmintrin.h", "ammintrin.h",  "wmmintrin.h", "avxintrin.h",
    "avx2intrin.h",
};

bool IsIntrinsicHeader(const std::string& path) {
  for (const char* h : kIntrinsicHeaders) {
    if (path == h) return true;
  }
  return false;
}

bool IsKnownRule(const std::string& rule) {
  for (const char* known : kKnownRules) {
    if (rule == known) return true;
  }
  return false;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// True when `path` matches any entry (directory prefix or exact file).
bool PathMatches(const std::string& path,
                 const std::vector<std::string>& entries) {
  for (const auto& e : entries) {
    if (e.empty()) continue;
    if (e.back() == '/' ? StartsWith(path, e) : path == e) return true;
  }
  return false;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// A NOLINT directive parsed out of a comment.
struct Directive {
  int line = 0;  // line the directive SILENCES (NOLINTNEXTLINE points down)
  std::string rule;
  bool justified = false;
};

// The lexical pre-pass: comments, string/char literals and preprocessor
// directives are overwritten with spaces (newlines kept, so line numbers
// survive), and NOLINT directives are collected from the comment text.
// Every rule except include-hygiene runs on the cleaned text; includes are
// read from the raw text because the pre-pass blanks them.
struct CleanedSource {
  std::string code;
  std::vector<Directive> directives;
};

// Extracts "NOLINT(cgnp-...)" / "NOLINTNEXTLINE(cgnp-...): why" from one
// comment. Non-cgnp rules (plain clang-tidy suppressions) are ignored, as
// are placeholder spellings in documentation whose rule name contains
// characters outside [a-z0-9-].
void ParseComment(const std::string& comment, int line,
                  std::vector<Directive>* out) {
  size_t pos = 0;
  while ((pos = comment.find("NOLINT", pos)) != std::string::npos) {
    size_t p = pos + 6;
    bool next_line = false;
    if (comment.compare(p, 8, "NEXTLINE") == 0) {
      next_line = true;
      p += 8;
    }
    if (p >= comment.size() || comment[p] != '(') {
      pos = p;
      continue;
    }
    const size_t close = comment.find(')', p);
    if (close == std::string::npos) break;
    std::string rules = comment.substr(p + 1, close - p - 1);
    // Justification: any non-blank text after "): " on the same comment.
    size_t after = close + 1;
    if (after < comment.size() && comment[after] == ':') ++after;
    bool justified = false;
    for (size_t i = after; i < comment.size(); ++i) {
      if (std::isspace(static_cast<unsigned char>(comment[i])) == 0) {
        justified = true;
        break;
      }
    }
    // Comma-separated rule list inside the parens.
    std::istringstream list(rules);
    std::string rule;
    while (std::getline(list, rule, ',')) {
      const size_t b = rule.find_first_not_of(" \t");
      const size_t e = rule.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      rule = rule.substr(b, e - b + 1);
      const bool identifier_only =
          rule.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-") ==
          std::string::npos;
      if (StartsWith(rule, "cgnp-") && identifier_only) {
        out->push_back({line + (next_line ? 1 : 0), rule, justified});
      }
    }
    pos = close;
  }
}

CleanedSource CleanSource(const std::string& text) {
  CleanedSource result;
  result.code = text;
  std::string& code = result.code;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
    kPreprocessor,
  };
  State state = State::kCode;
  int line = 1;
  std::string comment;       // accumulating comment text for NOLINT parsing
  int comment_line = 0;      // line the comment started on
  std::string raw_delim;     // current raw-string closing delimiter )xxx"
  bool line_has_code = false;
  for (size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    const char next = i + 1 < code.size() ? code[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment.clear();
          comment_line = line;
          code[i] = code[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment.clear();
          comment_line = line;
          code[i] = code[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          // Raw string literal R"delim( ... )delim"
          if (i > 0 && code[i - 1] == 'R' &&
              (i < 2 || !IsIdentChar(code[i - 2]))) {
            size_t open = code.find('(', i + 1);
            if (open != std::string::npos && open - i <= 17) {
              raw_delim = ")" + code.substr(i + 1, open - i - 1) + "\"";
              state = State::kRawString;
              code[i - 1] = ' ';
              for (size_t j = i; j <= open; ++j) {
                if (code[j] != '\n') code[j] = ' ';
              }
              i = open;
              break;
            }
          }
          state = State::kString;
          code[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          code[i] = ' ';
        } else if (c == '#' && !line_has_code) {
          state = State::kPreprocessor;
          code[i] = ' ';
        } else if (c == '\n') {
          ++line;
          line_has_code = false;
        } else if (std::isspace(static_cast<unsigned char>(c)) == 0) {
          line_has_code = true;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          ParseComment(comment, comment_line, &result.directives);
          state = State::kCode;
          ++line;
          line_has_code = false;
        } else {
          comment.push_back(c);
          code[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          // The directive binds to the line the comment ENDS on (matches
          // clang-tidy: a trailing /* NOLINT(...) */ suppresses its line).
          ParseComment(comment, line, &result.directives);
          state = State::kCode;
          code[i] = code[i + 1] = ' ';
          ++i;
        } else if (c == '\n') {
          comment.push_back(c);
          ++line;
        } else {
          comment.push_back(c);
          code[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0' && next != '\n') {
          code[i] = ' ';
          if (code[i + 1] != '\n') code[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          code[i] = ' ';
        } else if (c == '\n') {
          ++line;  // unterminated string; recover at the newline
          state = State::kCode;
          line_has_code = false;
        } else {
          code[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0' && next != '\n') {
          code[i] = ' ';
          if (code[i + 1] != '\n') code[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code[i] = ' ';
        } else if (c == '\n') {
          ++line;
          state = State::kCode;
          line_has_code = false;
        } else {
          code[i] = ' ';
        }
        break;
      case State::kRawString:
        if (c == '\n') {
          ++line;
        } else if (c == raw_delim[0] &&
                   code.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t j = 0; j < raw_delim.size(); ++j) code[i + j] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          code[i] = ' ';
        }
        break;
      case State::kPreprocessor:
        // Blank the whole directive (honoring \-continuations): macro
        // bodies are out of scope for statement-level rules, and this is
        // what keeps #define CGNP_RETURN_IF_ERROR's `return` from
        // confusing the call scanner.
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment.clear();
          comment_line = line;
          code[i] = code[i + 1] = ' ';
          ++i;
        } else if (c == '\n') {
          if (i > 0 && code[i - 1] == ' ' && text[i - 1] == '\\') {
            ++line;  // continuation: stay in the directive
          } else {
            state = State::kCode;
            ++line;
            line_has_code = false;
          }
        } else {
          code[i] = ' ';
        }
        break;
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) {
    ParseComment(comment, comment_line, &result.directives);
  }
  return result;
}

int LineOfOffset(const std::string& text, size_t offset) {
  int line = 1;
  for (size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

// --- Token rules (no-abort / determinism / raw-logging) --------------------

struct TokenRule {
  const char* token;       // identifier to search (word-bounded)
  bool requires_call;      // must be followed by '(' (skips plain mentions)
  const char* message;
};

void ScanTokens(const std::string& code, const std::string& rule,
                const std::vector<TokenRule>& tokens, const std::string& file,
                std::vector<Finding>* findings) {
  for (const auto& tr : tokens) {
    const std::string needle = tr.token;
    size_t pos = 0;
    while ((pos = code.find(needle, pos)) != std::string::npos) {
      const size_t end = pos + needle.size();
      const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
      // Prefix tokens like CGNP_CHECK must also match CGNP_CHECK_EQ, so the
      // right boundary only applies to call-style tokens.
      bool right_ok = true;
      if (tr.requires_call) {
        size_t j = end;
        while (j < code.size() &&
               std::isspace(static_cast<unsigned char>(code[j])) != 0) {
          ++j;
        }
        right_ok = end < code.size() && !IsIdentChar(code[end]) &&
                   j < code.size() && code[j] == '(';
      }
      if (left_ok && right_ok) {
        findings->push_back({file, LineOfOffset(code, pos), rule,
                             std::string(tr.token) + ": " + tr.message});
      }
      pos = end;
    }
  }
}

// --- Include hygiene -------------------------------------------------------

struct IncludeLine {
  int line = 0;
  std::string path;  // the quoted/bracketed payload
  bool quoted = false;
};

std::vector<IncludeLine> ScanIncludes(const std::string& text) {
  std::vector<IncludeLine> includes;
  std::istringstream in(text);
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    size_t b = raw.find_first_not_of(" \t");
    if (b == std::string::npos || raw[b] != '#') continue;
    size_t inc = raw.find("include", b);
    if (inc == std::string::npos) continue;
    size_t open = raw.find_first_of("\"<", inc);
    if (open == std::string::npos) continue;
    const char close = raw[open] == '"' ? '"' : '>';
    size_t end = raw.find(close, open + 1);
    if (end == std::string::npos) continue;
    includes.push_back(
        {line, raw.substr(open + 1, end - open - 1), raw[open] == '"'});
  }
  return includes;
}

}  // namespace

std::map<std::string, int> LintReport::SuppressionBudget() const {
  std::map<std::string, int> budget;
  for (const auto& s : suppressions) {
    if (s.used) ++budget[s.rule];
  }
  return budget;
}

LintReport LintSources(const std::vector<SourceFile>& files,
                       const LintConfig& config) {
  LintReport report;
  report.files_scanned = static_cast<int>(files.size());

  // Pass 1: clean every file once and collect the set of paths (for
  // include-hygiene).
  std::vector<CleanedSource> cleaned(files.size());
  std::set<std::string> known_paths;
  for (size_t i = 0; i < files.size(); ++i) {
    cleaned[i] = CleanSource(files[i].text);
    known_paths.insert(files[i].path);
  }

  std::vector<Finding> raw_findings;

  // Pass 2: per-file rules.
  for (size_t i = 0; i < files.size(); ++i) {
    const std::string& path = files[i].path;
    const std::string& code = cleaned[i].code;

    // cgnp-no-abort (user-input-reachable layers).
    if (PathMatches(path, config.abort_free_paths)) {
      ScanTokens(code, kRuleNoAbort,
                 {{"CGNP_CHECK", false,
                   "aborts on failure; user-input-reachable layers must "
                   "return Status instead"},
                  {"abort", true, "terminates the process; return Status"},
                  {"exit", true, "terminates the process; return Status"},
                  {"_Exit", true, "terminates the process; return Status"},
                  {"quick_exit", true,
                   "terminates the process; return Status"},
                  {"terminate", true,
                   "terminates the process; return Status"},
                  {"assert", true,
                   "compiled out in release builds and aborts in debug; "
                   "use Status for input, CGNP_CHECK only in internal "
                   "layers"},
                  {"throw", false,
                   "the library is exception-free; return Status"}},
                 path, &raw_findings);
    }

    // cgnp-determinism (bitwise-deterministic kernel paths).
    if (PathMatches(path, config.deterministic_paths)) {
      ScanTokens(code, kRuleDeterminism,
                 {{"rand", true,
                   "libc PRNG state is global and platform-dependent; use "
                   "tensor/rng.h"},
                  {"srand", true,
                   "libc PRNG state is global and platform-dependent; use "
                   "tensor/rng.h"},
                  {"rand_r", true,
                   "platform-dependent PRNG; use tensor/rng.h"},
                  {"random_device", false,
                   "non-deterministic seed source; kernel paths must be "
                   "bitwise reproducible"},
                  {"unordered_map", false,
                   "iteration order is hash/platform-dependent; use std::map "
                   "or a vector (or NOLINT with a membership-only "
                   "justification)"},
                  {"unordered_set", false,
                   "iteration order is hash/platform-dependent; use std::set "
                   "or a vector (or NOLINT with a membership-only "
                   "justification)"},
                  {"unordered_multimap", false,
                   "iteration order is hash/platform-dependent"},
                  {"unordered_multiset", false,
                   "iteration order is hash/platform-dependent"}},
                 path, &raw_findings);
    }

    // cgnp-raw-logging (library code logs through CGNP_LOG).
    if (PathMatches(path, config.raw_logging_paths) &&
        !PathMatches(path, config.raw_logging_exempt)) {
      ScanTokens(code, kRuleRawLogging,
                 {{"cout", false, "library code must log via CGNP_LOG"},
                  {"cerr", false, "library code must log via CGNP_LOG"},
                  {"clog", false, "library code must log via CGNP_LOG"},
                  {"printf", true, "library code must log via CGNP_LOG"},
                  {"fprintf", true, "library code must log via CGNP_LOG"},
                  {"puts", true, "library code must log via CGNP_LOG"},
                  {"fputs", true, "library code must log via CGNP_LOG"},
                  {"putchar", true, "library code must log via CGNP_LOG"}},
                 path, &raw_findings);
    }

    // cgnp-include-hygiene.
    const std::vector<IncludeLine> includes = ScanIncludes(files[i].text);

    // cgnp-no-raw-intrinsics: vendor intrinsic headers are includable only
    // from the SIMD dispatch layer, so every vectorized loop goes through
    // the runtime-dispatched kernel table (tensor/simd.h) and the scalar
    // fallback can never silently diverge.
    if (!PathMatches(path, config.intrinsics_exempt)) {
      for (const auto& inc : includes) {
        if (IsIntrinsicHeader(inc.path)) {
          raw_findings.push_back(
              {path, inc.line, kRuleNoRawIntrinsics,
               "raw SIMD intrinsics (" + inc.path +
                   ") are confined to src/tensor/simd.cc; add a kernel to "
                   "the dispatch table in tensor/simd.h instead"});
        }
      }
    }

    const bool is_src = StartsWith(path, "src/");
    if (is_src) {
      for (const auto& inc : includes) {
        if (StartsWith(inc.path, "tests/") ||
            inc.path.find("/tests/") != std::string::npos ||
            StartsWith(inc.path, "gtest/")) {
          raw_findings.push_back(
              {path, inc.line, kRuleIncludeHygiene,
               "src/ must not depend on tests/ (include \"" + inc.path +
                   "\")"});
        }
      }
      if (path.size() > 3 && path.compare(path.size() - 3, 3, ".cc") == 0) {
        // Own header first: src/serve/query_server.cc ->
        // "serve/query_server.h" (the include style of this repo).
        const std::string own_full =
            path.substr(0, path.size() - 3) + ".h";
        const std::string own_include = own_full.substr(4);  // drop "src/"
        if (known_paths.count(own_full) != 0) {
          if (includes.empty()) {
            raw_findings.push_back(
                {path, 1, kRuleIncludeHygiene,
                 "must include its own header \"" + own_include +
                     "\" first"});
          } else if (!(includes[0].quoted &&
                       includes[0].path == own_include)) {
            raw_findings.push_back(
                {path, includes[0].line, kRuleIncludeHygiene,
                 "first include must be the file's own header \"" +
                     own_include + "\" (got \"" + includes[0].path +
                     "\"); it proves the header stands alone"});
          }
        }
      }
    }
  }

  // Pass 3: apply suppressions and validate the directives themselves.
  for (size_t i = 0; i < files.size(); ++i) {
    for (const Directive& d : cleaned[i].directives) {
      report.suppressions.push_back(
          {files[i].path, d.line, d.rule, d.justified, false});
      if (!IsKnownRule(d.rule)) {
        raw_findings.push_back(
            {files[i].path, d.line, kRuleNolintJustification,
             "NOLINT names unknown rule '" + d.rule + "'"});
      } else if (!d.justified) {
        raw_findings.push_back(
            {files[i].path, d.line, kRuleNolintJustification,
             "NOLINT(" + d.rule +
                 ") needs a one-line justification: "
                 "// NOLINT(" + d.rule + "): <why this is safe>"});
      }
    }
  }
  for (Finding& f : raw_findings) {
    bool suppressed = false;
    if (f.rule != kRuleNolintJustification) {
      for (auto& s : report.suppressions) {
        if (s.file == f.file && s.line == f.line && s.rule == f.rule) {
          s.used = true;
          suppressed = true;
        }
      }
    }
    if (!suppressed) report.findings.push_back(std::move(f));
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return report;
}

StatusOr<LintReport> LintTree(const std::string& repo_root,
                              const LintConfig& config) {
  namespace fs = std::filesystem;
  const fs::path root(repo_root);
  std::error_code ec;
  if (!fs::is_directory(root / "src", ec)) {
    return NotFoundError("not a cgnp repo root (no src/ directory): " +
                         repo_root);
  }
  std::vector<std::string> paths;
  for (const char* top : {"src", "tools", "examples"}) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      paths.push_back(fs::relative(it->path(), root, ec).generic_string());
    }
  }
  // Directory iteration order is unspecified; sort for stable reports.
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const auto& rel : paths) {
    std::ifstream in(root / rel, std::ios::binary);
    if (!in) return NotFoundError("cannot read " + rel);
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back({rel, buf.str()});
  }
  return LintSources(files, config);
}

std::string FormatReport(const LintReport& report, bool verbose) {
  std::ostringstream out;
  for (const auto& f : report.findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  const auto budget = report.SuppressionBudget();
  int unused = 0;
  for (const auto& s : report.suppressions) {
    if (!s.used) ++unused;
  }
  out << "cgnp_lint: " << report.files_scanned << " files, "
      << report.findings.size() << " finding"
      << (report.findings.size() == 1 ? "" : "s") << ", "
      << (report.suppressions.size() - static_cast<size_t>(unused))
      << " suppressed";
  if (unused > 0) out << " (" << unused << " unused NOLINT directives)";
  out << "\n";
  if (!budget.empty()) {
    out << "suppression budget (keep this shrinking):\n";
    for (const auto& [rule, count] : budget) {
      out << "  " << rule << ": " << count << "\n";
    }
  }
  if (verbose) {
    for (const auto& s : report.suppressions) {
      if (s.used) {
        out << "  suppressed at " << s.file << ":" << s.line << " ["
            << s.rule << "]\n";
      }
    }
  }
  return out.str();
}

}  // namespace lint
}  // namespace cgnp
