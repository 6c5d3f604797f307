// Command-line options shared by the repo's CLIs (kkt_lab, kkt_report):
// `--key value` pairs and bare `--flag`s after the subcommand. A flag
// followed by another `--` token (or by nothing) reads as "1"; anything
// that does not start with `--` and is not a flag's value is a positional
// argument.
//
// Numeric accessors are strict: `--n abc`, `--n 12x` or `--n -3` is a usage
// error, reported as an `error:` line on stderr with exit status 2 -- never
// silently read as 0.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace kkt::util {

// Whole-string unsigned decimal parse; nullopt on empty input, trailing
// junk, a sign, or overflow.
inline std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

// Prints `error: <what>` and exits with the usage-error status.
[[noreturn]] inline void usage_error(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  std::exit(2);
}

class CliArgs {
 public:
  CliArgs(int argc, char** argv, int from) {
    for (int i = from; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.substr(0, 2) != "--") {
        positional_.emplace_back(arg);
        continue;
      }
      const std::string key(arg.substr(2));
      if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
        kv_.insert_or_assign(key, std::string(argv[++i]));
      } else {
        kv_.insert_or_assign(key, std::string("1"));
      }
    }
  }

  bool has(const std::string& key) const { return kv_.count(key) != 0; }

  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
  }

  std::uint64_t num(const std::string& key, std::uint64_t dflt) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    const auto v = parse_u64(it->second);
    if (!v) {
      usage_error("--" + key + " wants a non-negative integer, got '" +
                  it->second + "'");
    }
    return *v;
  }

  double real(const std::string& key, double dflt) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || errno != 0 || *end != '\0' ||
        !std::isfinite(v)) {
      usage_error("--" + key + " wants a number, got '" + it->second + "'");
    }
    return v;
  }

  const std::vector<std::string>& positional() const { return positional_; }

  // The first given key outside `known` and `more`, or nullopt when every
  // key is known.
  std::optional<std::string> unknown_key(
      std::initializer_list<std::string_view> known,
      std::span<const std::string_view> more = {}) const {
    for (const auto& [key, value] : kv_) {
      bool ok = false;
      for (const std::string_view k : known) ok = ok || key == k;
      for (const std::string_view k : more) ok = ok || key == k;
      if (!ok) return key;
    }
    return std::nullopt;
  }

  // Usage error unless every flag is in `known` or `more` and exactly
  // `positionals` positional arguments were given: every subcommand of the
  // repo's CLIs rejects what it does not read.
  void expect_only(const std::string& cmd,
                   std::initializer_list<std::string_view> known,
                   std::span<const std::string_view> more = {},
                   std::size_t positionals = 0) const {
    if (const auto key = unknown_key(known, more)) {
      usage_error(cmd + " does not take --" + *key);
    }
    if (positional_.size() != positionals) {
      usage_error(cmd + " takes " + std::to_string(positionals) +
                  " positional argument(s), got " +
                  std::to_string(positional_.size()));
    }
  }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
};

}  // namespace kkt::util
