#include "lint/lint.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cctype>

namespace kkt::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

constexpr std::array<std::string_view, kRuleCount> kRuleNames = {
    "rand-source",         "unordered-iter",      "ptr-key-ordered",
    "hotpath-alloc",       "shared-static",       "pragma-once",
    "using-namespace-header", "test-unregistered", "bad-suppression",
    "unused-suppression",
};

// ---------------------------------------------------------------------------
// Source channels
//
// Rules match against *code* with comments and string/char literals blanked
// out (so prose and pattern strings never trip a rule), while suppression
// comments are parsed from the *comment* channel only (so a string literal
// containing the marker -- e.g. in this very file -- is never a
// suppression). Both channels preserve byte offsets and newlines, which
// keeps line mapping trivial.
// ---------------------------------------------------------------------------

struct Channels {
  std::string code;      // comments + string/char literal bodies blanked
  std::string comments;  // everything except comment text blanked
};

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

Channels split_channels(std::string_view text) {
  Channels ch;
  ch.code.assign(text.size(), ' ');
  ch.comments.assign(text.size(), ' ');
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
  St st = St::kCode;
  std::string raw_delim;  // for raw strings: ")delim"
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {  // newlines survive in both channels
      ch.code[i] = '\n';
      ch.comments[i] = '\n';
      if (st == St::kLine) st = St::kCode;
      continue;
    }
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          ++i;
        } else if (c == '"') {
          // Raw string? Look back for R / u8R / LR / uR / UR.
          if (i > 0 && text[i - 1] == 'R' &&
              (i == 1 || !is_word(text[i - 2]) || text[i - 2] == '8')) {
            raw_delim = ")";
            std::size_t j = i + 1;
            while (j < text.size() && text[j] != '(') raw_delim += text[j++];
            raw_delim += '"';
            i = j;  // consume through the '('
            st = St::kRaw;
          } else {
            ch.code[i] = '"';
            st = St::kStr;
          }
        } else if (c == '\'') {
          ch.code[i] = '\'';
          st = St::kChar;
        } else {
          ch.code[i] = c;
        }
        break;
      case St::kLine:
        ch.comments[i] = c;
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          ++i;
          st = St::kCode;
        } else {
          ch.comments[i] = c;
        }
        break;
      case St::kStr:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          ch.code[i] = '"';
          st = St::kCode;
        }
        break;
      case St::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          ch.code[i] = '\'';
          st = St::kCode;
        }
        break;
      case St::kRaw:
        if (c == ')' && text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          st = St::kCode;
        }
        break;
    }
  }
  return ch;
}

// ---------------------------------------------------------------------------
// Line mapping and excerpts
// ---------------------------------------------------------------------------

class LineIndex {
 public:
  explicit LineIndex(std::string_view text) {
    starts_.push_back(0);
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (text[i] == '\n') starts_.push_back(i + 1);
    }
    text_ = text;
  }

  int line_of(std::size_t offset) const {
    const auto it =
        std::upper_bound(starts_.begin(), starts_.end(), offset);
    return static_cast<int>(it - starts_.begin());
  }

  std::string excerpt(int line) const {
    if (line < 1 || line > static_cast<int>(starts_.size())) return {};
    const std::size_t b = starts_[static_cast<std::size_t>(line) - 1];
    std::size_t e = line < static_cast<int>(starts_.size())
                        ? starts_[static_cast<std::size_t>(line)]
                        : text_.size();
    std::string_view s = text_.substr(b, e - b);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) {
      s.remove_suffix(1);
    }
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
      s.remove_prefix(1);
    }
    constexpr std::size_t kMax = 160;
    return std::string(s.size() > kMax ? s.substr(0, kMax) : s);
  }

  int line_count() const { return static_cast<int>(starts_.size()); }

 private:
  std::vector<std::size_t> starts_;
  std::string_view text_;
};

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Suppression {
  int line = 0;
  RuleId rule = RuleId::kCount;
  bool alone = false;  // comment-only line: also covers the next line
  bool used = false;
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool line_is_blank(std::string_view channel_line) {
  return trim(channel_line).empty();
}

std::string_view channel_line(std::string_view channel, const LineIndex& idx,
                              int line) {
  // Both channels preserve offsets, so reuse the raw-text line bounds.
  (void)idx;
  // Recompute bounds locally: find the (line-1)th '\n'.
  std::size_t b = 0;
  for (int l = 1; l < line; ++l) {
    b = channel.find('\n', b);
    if (b == std::string_view::npos) return {};
    ++b;
  }
  std::size_t e = channel.find('\n', b);
  if (e == std::string_view::npos) e = channel.size();
  return channel.substr(b, e - b);
}

// Parses allow-comments out of the comment channel. Malformed markers
// (unknown rule, missing or empty justification) produce kBadSuppression
// findings directly.
std::vector<Suppression> parse_suppressions(std::string_view path,
                                            const Channels& ch,
                                            const LineIndex& idx,
                                            std::vector<Finding>& findings) {
  std::vector<Suppression> out;
  // The marker literal is assembled so this file's own comment channel
  // never contains it.
  static const std::string kMarker = std::string("kkt-lint") + ":";
  std::size_t pos = 0;
  while ((pos = ch.comments.find(kMarker, pos)) != std::string::npos) {
    const int line = idx.line_of(pos);
    std::size_t p = pos + kMarker.size();
    pos = p;
    while (p < ch.comments.size() && ch.comments[p] == ' ') ++p;
    // Bound the marker to its own line: a suppression never spans lines.
    std::size_t eol_off = ch.comments.find('\n', p);
    if (eol_off == std::string::npos) eol_off = ch.comments.size();
    const std::string_view rest =
        std::string_view(ch.comments).substr(p, eol_off - p);
    auto bad = [&](const std::string& why) {
      findings.push_back({std::string(path), line, RuleId::kBadSuppression,
                          "malformed kkt-lint comment: " + why +
                              " (see docs/LINT_RULES.md for the syntax)",
                          idx.excerpt(line)});
    };
    if (rest.rfind("allow(", 0) != 0) {
      bad("expected allow(<rule>)");
      continue;
    }
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      bad("unterminated allow(");
      continue;
    }
    const std::string_view rule_text = trim(rest.substr(6, close - 6));
    const auto rule = rule_from_name(rule_text);
    if (!rule.has_value()) {
      bad("unknown rule '" + std::string(rule_text) + "'");
      continue;
    }
    // Justification: everything after "): " to end of line, non-empty.
    std::size_t after = close + 1;
    std::string_view tail = rest.substr(after);
    const std::size_t eol = tail.find('\n');
    if (eol != std::string_view::npos) tail = tail.substr(0, eol);
    tail = trim(tail);
    if (tail.empty() || tail.front() != ':' ||
        trim(tail.substr(1)).empty()) {
      bad("suppression needs a justification after the rule");
      continue;
    }
    Suppression s;
    s.line = line;
    s.rule = *rule;
    s.alone = line_is_blank(channel_line(ch.code, idx, line));
    out.push_back(s);
  }
  return out;
}

// File-scope rules accept a suppression on any line of the file.
bool file_scope_rule(RuleId r) {
  return r == RuleId::kPragmaOnce;
}

bool try_suppress(std::vector<Suppression>& sups, RuleId rule, int line) {
  for (Suppression& s : sups) {
    if (s.rule != rule) continue;
    if (file_scope_rule(rule) || s.line == line ||
        (s.alone && s.line + 1 == line)) {
      s.used = true;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Pattern helpers (over the code channel)
// ---------------------------------------------------------------------------

// Calls fn(offset) for every occurrence of `pat` in `code` that is not
// preceded (and, when word_end, not followed) by an identifier character.
template <typename Fn>
void find_words(std::string_view code, std::string_view pat, bool word_end,
                Fn&& fn) {
  std::size_t pos = 0;
  while ((pos = code.find(pat, pos)) != std::string_view::npos) {
    const bool start_ok = pos == 0 || !is_word(code[pos - 1]);
    const std::size_t after = pos + pat.size();
    const bool end_ok =
        !word_end || after >= code.size() || !is_word(code[after]);
    if (start_ok && end_ok) fn(pos);
    pos += pat.size();
  }
}

// Reads the identifier ending right before `end` (exclusive); empty if the
// preceding token is not an identifier.
std::string_view ident_before(std::string_view code, std::size_t end) {
  std::size_t b = end;
  while (b > 0 && is_word(code[b - 1])) --b;
  return code.substr(b, end - b);
}

// Reads the identifier starting at or after `pos` (skipping spaces, '&',
// '*'); empty if none.
std::string_view ident_after(std::string_view code, std::size_t pos) {
  while (pos < code.size() &&
         (code[pos] == ' ' || code[pos] == '&' || code[pos] == '*' ||
          code[pos] == '\n')) {
    ++pos;
  }
  std::size_t e = pos;
  while (e < code.size() && is_word(code[e])) ++e;
  if (e == pos || std::isdigit(static_cast<unsigned char>(code[pos]))) {
    return {};
  }
  return code.substr(pos, e - pos);
}

// Offset just past the '>' matching the '<' at `open`; npos on imbalance.
std::size_t match_angle(std::string_view code, std::size_t open) {
  assert(code[open] == '<');
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '<') ++depth;
    if (code[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return std::string_view::npos;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::string_view rule_name(RuleId rule) noexcept {
  const auto i = static_cast<std::size_t>(rule);
  assert(i < kRuleNames.size());
  return kRuleNames[i];
}

std::optional<RuleId> rule_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kRuleNames.size(); ++i) {
    if (kRuleNames[i] == name) return static_cast<RuleId>(i);
  }
  return std::nullopt;
}

bool finding_less(const Finding& a, const Finding& b) noexcept {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) {
    return static_cast<int>(a.rule) < static_cast<int>(b.rule);
  }
  // Content tiebreak: several findings of one rule can share a line (e.g.
  // unregistered tests all point at CMakeLists line 1); keep report order
  // fully value-determined.
  if (a.message != b.message) return a.message < b.message;
  return a.excerpt < b.excerpt;
}

std::vector<std::string> collect_unordered_names(std::string_view text) {
  const Channels ch = split_channels(text);
  std::vector<std::string> names;
  find_words(ch.code, "std::unordered_", /*word_end=*/false,
             [&](std::size_t pos) {
               const std::size_t open = ch.code.find('<', pos);
               if (open == std::string_view::npos) return;
               // Only container heads; "std::unordered_foo" without '<'
               // between was skipped above.
               if (ch.code.find_first_not_of(
                       "abcdefghijklmnopqrstuvwxyz_", pos + 15) != open) {
                 return;
               }
               const std::size_t close = match_angle(ch.code, open);
               if (close == std::string_view::npos) return;
               const std::string_view name = ident_after(ch.code, close);
               if (!name.empty() &&
                   std::find(names.begin(), names.end(), name) ==
                       names.end()) {
                 names.emplace_back(name);
               }
             });
  return names;
}

std::vector<Finding> scan_file(std::string_view path, std::string_view text,
                               const FileClass& cls,
                               std::span<const std::string> extra_unordered,
                               ScanStats* stats) {
  std::vector<Finding> findings;
  const Channels ch = split_channels(text);
  const LineIndex idx(text);
  std::vector<Suppression> sups =
      parse_suppressions(path, ch, idx, findings);
  const std::string_view code = ch.code;

  auto report = [&](RuleId rule, std::size_t offset, std::string message) {
    const int line = idx.line_of(offset);
    if (try_suppress(sups, rule, line)) return;
    findings.push_back(
        {std::string(path), line, rule, std::move(message), idx.excerpt(line)});
  };

  // --- rand-source ---------------------------------------------------------
  if (cls.determinism && !cls.rng_util) {
    // Entropy, wall-clock, and stdlib-RNG entry points. Stdlib engines and
    // distributions are seeded-deterministic per *implementation* but not
    // across implementations, which already breaks the contract.
    static constexpr std::string_view kCalls[] = {
        "rand",        "srand",         "drand48",      "lrand48",
        "random",      "time",          "clock",        "gettimeofday",
        "clock_gettime", "getrandom",
    };
    for (const std::string_view fn : kCalls) {
      find_words(code, fn, /*word_end=*/true, [&](std::size_t pos) {
        // Only calls: the next non-space char must open an argument list.
        std::size_t p = pos + fn.size();
        while (p < code.size() && code[p] == ' ') ++p;
        if (p >= code.size() || code[p] != '(') return;
        // Qualified or member calls name this repo's own APIs (e.g.
        // hashing::OddHash::random) -- unless the qualifier is std::,
        // which is exactly the libc/stdlib source being banned.
        if (pos >= 2 && code.compare(pos - 2, 2, "::") == 0) {
          if (ident_before(code, pos - 2) != "std") return;
        }
        if (pos >= 2 && code.compare(pos - 2, 2, "->") == 0) return;
        if (pos >= 1 && code[pos - 1] == '.') return;
        // A signature or call whose arguments carry the seeded generator
        // is the sanctioned path, whatever the function is named:
        // `static OddHash random(util::Rng& rng)` draws from a seed.
        int depth = 0;
        std::size_t close = p;
        for (std::size_t i = p; i < code.size(); ++i) {
          if (code[i] == '(') ++depth;
          if (code[i] == ')' && --depth == 0) {
            close = i;
            break;
          }
        }
        const std::string_view args = code.substr(p, close - p);
        bool seeded = false;
        find_words(args, "rng", /*word_end=*/true,
                   [&](std::size_t) { seeded = true; });
        find_words(args, "Rng", /*word_end=*/true,
                   [&](std::size_t) { seeded = true; });
        if (seeded) return;
        report(RuleId::kRandSource, pos,
               "call to '" + std::string(fn) +
                   "' -- all randomness and time must flow through seeded "
                   "util::Rng (determinism rule 1)");
      });
    }
    static constexpr std::string_view kTypes[] = {
        "std::random_device",      "std::mt19937",
        "std::minstd_rand",        "std::default_random_engine",
        "std::uniform_int_distribution",
        "std::uniform_real_distribution",
        "std::bernoulli_distribution", "std::normal_distribution",
        "std::random_shuffle",     "std::shuffle",
    };
    for (const std::string_view ty : kTypes) {
      find_words(code, ty, /*word_end=*/true, [&](std::size_t pos) {
        report(RuleId::kRandSource, pos,
               "use of '" + std::string(ty) +
                   "' -- stdlib RNG output differs across implementations; "
                   "use util::Rng (determinism rule 1)");
      });
    }
    // Plain substring: "steady_clock::now" etc. put a word char before the
    // '_', so a word-boundary match would never fire.
    std::size_t cpos = 0;
    while ((cpos = code.find("_clock::now", cpos)) !=
           std::string_view::npos) {
      report(RuleId::kRandSource, cpos,
             "reading a chrono clock -- model costs are virtual time, never "
             "wall time (determinism rule 1)");
      cpos += 11;
    }
  }

  // --- unordered-iter ------------------------------------------------------
  if (cls.determinism) {
    std::vector<std::string> names(extra_unordered.begin(),
                                   extra_unordered.end());
    for (std::string& n : collect_unordered_names(text)) {
      if (std::find(names.begin(), names.end(), n) == names.end()) {
        names.push_back(std::move(n));
      }
    }
    auto is_unordered = [&](std::string_view id) {
      return std::find(names.begin(), names.end(), id) != names.end();
    };
    if (!names.empty()) {
      // Range-for whose range expression mentions a tracked identifier.
      find_words(code, "for", /*word_end=*/true, [&](std::size_t pos) {
        std::size_t p = pos + 3;
        while (p < code.size() && (code[p] == ' ' || code[p] == '\n')) ++p;
        if (p >= code.size() || code[p] != '(') return;
        int depth = 0;
        std::size_t colon = std::string_view::npos, close = p;
        for (std::size_t i = p; i < code.size(); ++i) {
          if (code[i] == '(') ++depth;
          if (code[i] == ')') {
            if (--depth == 0) {
              close = i;
              break;
            }
          }
          if (code[i] == ';') return;  // classic for, not range-for
          if (code[i] == ':' && depth == 1) {
            if (i + 1 < code.size() && code[i + 1] == ':') {
              ++i;  // skip '::'
            } else if (colon == std::string_view::npos) {
              colon = i;
            }
          }
        }
        if (colon == std::string_view::npos || close <= colon) return;
        // Any tracked identifier inside the range expression trips.
        std::string_view expr = code.substr(colon + 1, close - colon - 1);
        std::size_t i = 0;
        while (i < expr.size()) {
          if (is_word(expr[i])) {
            std::size_t e = i;
            while (e < expr.size() && is_word(expr[e])) ++e;
            if (is_unordered(expr.substr(i, e - i))) {
              report(RuleId::kUnorderedIter, pos,
                     "range-for over unordered container '" +
                         std::string(expr.substr(i, e - i)) +
                         "' -- hash-bucket order is implementation-defined "
                         "and leaks into results (determinism rule 3)");
              return;
            }
            i = e;
          } else {
            ++i;
          }
        }
      });
      // Explicit iterator walks: name.begin() / .cbegin() / .rbegin().
      for (const std::string_view b : {std::string_view(".begin"),
                                       std::string_view(".cbegin"),
                                       std::string_view(".rbegin")}) {
        std::size_t pos = 0;
        while ((pos = code.find(b, pos)) != std::string_view::npos) {
          const std::string_view id = ident_before(code, pos);
          if (is_unordered(id)) {
            report(RuleId::kUnorderedIter, pos,
                   "iterator walk over unordered container '" +
                       std::string(id) +
                       "' -- hash-bucket order is implementation-defined "
                       "and leaks into results (determinism rule 3)");
          }
          pos += b.size();
        }
      }
    }
  }

  // --- ptr-key-ordered -----------------------------------------------------
  if (cls.determinism) {
    for (const std::string_view head :
         {std::string_view("std::map<"), std::string_view("std::set<"),
          std::string_view("std::multimap<"),
          std::string_view("std::multiset<")}) {
      std::size_t pos = 0;
      while ((pos = code.find(head, pos)) != std::string_view::npos) {
        // First template argument at depth 1: up to a top-level ',' or '>'.
        const std::size_t open = pos + head.size() - 1;
        int depth = 1;
        bool ptr = false;
        for (std::size_t i = open + 1; i < code.size() && depth > 0; ++i) {
          const char c = code[i];
          if (c == '<') ++depth;
          if (c == '>') --depth;
          if (depth == 1 && c == ',') break;
          if (depth >= 1 && c == '*') ptr = true;
          if (depth == 0) break;
        }
        if (ptr) {
          report(RuleId::kPtrKeyOrdered, pos,
                 "pointer-keyed ordered container -- comparison order is "
                 "the allocation order of the run, not a stable property "
                 "(determinism rule 1)");
        }
        pos += head.size();
      }
    }
  }

  // --- hotpath-alloc -------------------------------------------------------
  if (cls.hot_path) {
    find_words(code, "new", /*word_end=*/true, [&](std::size_t pos) {
      report(RuleId::kHotpathAlloc, pos,
             "operator new on the wire path -- messages must stay "
             "allocation-free (held by tests/alloc_test.cc)");
    });
    for (const std::string_view fn :
         {std::string_view("malloc"), std::string_view("calloc"),
          std::string_view("realloc"), std::string_view("strdup")}) {
      find_words(code, fn, /*word_end=*/true, [&](std::size_t pos) {
        std::size_t p = pos + fn.size();
        while (p < code.size() && code[p] == ' ') ++p;
        if (p >= code.size() || code[p] != '(') return;
        report(RuleId::kHotpathAlloc, pos,
               "'" + std::string(fn) +
                   "' on the wire path -- messages must stay "
                   "allocation-free (held by tests/alloc_test.cc)");
      });
    }
    for (const std::string_view ty :
         {std::string_view("std::string"), std::string_view("std::to_string"),
          std::string_view("std::stringstream"),
          std::string_view("std::ostringstream")}) {
      find_words(code, ty, /*word_end=*/true, [&](std::size_t pos) {
        report(RuleId::kHotpathAlloc, pos,
               "'" + std::string(ty) +
                   "' on the wire path allocates -- use string_view / "
                   "fixed-capacity storage (InlineWords)");
      });
    }
  }

  // --- shared-static -------------------------------------------------------
  // Hot-path code runs in every world at once: the SweepExecutor
  // (scenario/sweep.h) runs whole worlds concurrently on work-stealing
  // threads. A mutable static is one object shared by every world -- an
  // unsynchronized write is a data race and any synchronized one is a
  // hidden cross-world channel -- while thread_local silently forks state
  // per worker thread, so a world's result would depend on which thread
  // stole it. Either breaks bit-determinism across thread counts.
  // Immutable statics (const/constexpr) are fine; static functions are not
  // data. Deliberate uses carry a justified allow-comment.
  if (cls.hot_path) {
    find_words(code, "static", /*word_end=*/true, [&](std::size_t pos) {
      const std::string_view next =
          ident_after(code, pos + std::string_view("static").size());
      // `static thread_local` reports once, via the thread_local pattern.
      if (next == "const" || next == "constexpr" || next == "thread_local") {
        return;
      }
      std::size_t b = pos;
      while (b > 0 && (code[b - 1] == ' ' || code[b - 1] == '\n')) --b;
      if (ident_before(code, b) == "constexpr") return;
      // Data, not functions: a declarator that reaches '(' before any of
      // ';', '=' or '{' is a (member) function declaration or definition.
      for (std::size_t p = pos; p < code.size(); ++p) {
        const char c = code[p];
        if (c == '(') return;
        if (c == ';' || c == '=' || c == '{') break;
      }
      report(RuleId::kSharedStatic, pos,
             "mutable static in hot-path code -- one object shared by "
             "every concurrently running world; keep state in the "
             "Network / protocol objects");
    });
    find_words(code, "thread_local", /*word_end=*/true, [&](std::size_t pos) {
      report(RuleId::kSharedStatic, pos,
             "thread_local in hot-path code -- state silently forks per "
             "sweep worker thread; keep state in the Network / protocol "
             "objects, or justify the exception with an allow-comment");
    });
  }

  // --- header hygiene ------------------------------------------------------
  if (cls.header) {
    if (code.find("#pragma once") == std::string_view::npos) {
      report(RuleId::kPragmaOnce, 0,
             "header without #pragma once -- double inclusion breaks the "
             "one-definition rule");
    }
    find_words(code, "using namespace", /*word_end=*/true,
               [&](std::size_t pos) {
                 report(RuleId::kUsingNamespaceHeader, pos,
                        "using-namespace at header scope leaks names into "
                        "every includer");
               });
  }

  // --- suppression accounting ---------------------------------------------
  if (stats != nullptr) {
    stats->suppressions_total += static_cast<int>(sups.size());
  }
  for (const Suppression& s : sups) {
    if (s.used) {
      if (stats != nullptr) ++stats->suppressions_used;
    } else {
      findings.push_back(
          {std::string(path), s.line, RuleId::kUnusedSuppression,
           "suppression matches no finding -- delete it or move it next to "
           "the line it justifies",
           idx.excerpt(s.line)});
    }
  }

  std::sort(findings.begin(), findings.end(), finding_less);
  return findings;
}

std::vector<Finding> check_test_registration(
    std::span<const std::string> test_files, std::string_view cmake_text,
    std::string_view cmake_path) {
  // Drop cmake comments so a commented-out registration does not count.
  std::string live;
  live.reserve(cmake_text.size());
  bool in_comment = false;
  for (const char c : cmake_text) {
    if (c == '#') in_comment = true;
    if (c == '\n') in_comment = false;
    live.push_back(in_comment ? ' ' : c);
  }
  std::vector<Finding> findings;
  for (const std::string& path : test_files) {
    const std::size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    if (dot != std::string::npos) base.resize(dot);
    bool registered = false;
    find_words(live, base, /*word_end=*/true,
               [&](std::size_t) { registered = true; });
    if (!registered) {
      findings.push_back({std::string(cmake_path), 1,
                          RuleId::kTestUnregistered,
                          "test source '" + path +
                              "' is not registered in " +
                              std::string(cmake_path) +
                              " -- it would silently never run",
                          base});
    }
  }
  std::sort(findings.begin(), findings.end(), finding_less);
  return findings;
}

report::JsonValue findings_to_json(std::span<const Finding> findings,
                                   int files_scanned,
                                   const ScanStats& stats) {
  using report::JsonValue;
  std::vector<Finding> sorted(findings.begin(), findings.end());
  std::sort(sorted.begin(), sorted.end(), finding_less);
  JsonValue::Array arr;
  arr.reserve(sorted.size());
  for (const Finding& f : sorted) {
    JsonValue item{JsonValue::Object{}};
    item.set("file", JsonValue(f.file));
    item.set("line", JsonValue(f.line));
    item.set("rule", JsonValue(std::string(rule_name(f.rule))));
    item.set("message", JsonValue(f.message));
    item.set("excerpt", JsonValue(f.excerpt));
    arr.push_back(std::move(item));
  }
  JsonValue sup{JsonValue::Object{}};
  sup.set("total", JsonValue(stats.suppressions_total));
  sup.set("used", JsonValue(stats.suppressions_used));
  JsonValue root{JsonValue::Object{}};
  root.set("kkt_lint_schema", JsonValue(1));
  root.set("files_scanned", JsonValue(files_scanned));
  root.set("findings", JsonValue(std::move(arr)));
  root.set("suppressions", std::move(sup));
  return root;
}

std::string findings_to_text(std::span<const Finding> findings,
                             int files_scanned, const ScanStats& stats) {
  std::vector<Finding> sorted(findings.begin(), findings.end());
  std::sort(sorted.begin(), sorted.end(), finding_less);
  std::string out = "kkt_lint: " + std::to_string(files_scanned) +
                    " files scanned, " + std::to_string(sorted.size()) +
                    " finding(s), " +
                    std::to_string(stats.suppressions_used) + "/" +
                    std::to_string(stats.suppressions_total) +
                    " suppression(s) used\n";
  for (const Finding& f : sorted) {
    out += f.file + ":" + std::to_string(f.line) + ": [" +
           std::string(rule_name(f.rule)) + "] " + f.message + "\n";
    if (!f.excerpt.empty()) out += "    " + f.excerpt + "\n";
  }
  return out;
}

}  // namespace kkt::lint
