// kkt_report: the experiment docs are build outputs.
//
//   kkt_report run   [--out FILE] [--sizes 64,128,256,512] [--seeds K]
//                    [--first-seed S] [--ops K] [--threads T]
//                    [--net sync|async|adversarial] [--gnm DENSITY]
//                    [--xl-sizes 65536,262144,1048576] [--xl-links K]
//                    [--xl-ghs-cap N] [--measure]
//       Runs the KKT-vs-baseline head-to-head grid
//       (scenario::run_headtohead) and writes the unified artifact
//       (default BENCH_headtohead.json). Deterministic: the same flags
//       produce a byte-identical artifact on every run. Every build cell
//       is checked (kkt and ghs against the oracle MSF, flood for
//       spanning); a failed check prints an `error:` line per cell, writes
//       nothing and exits 1. --xl-sizes adds
//       the web-scale build_mst_xl task (igridlong grid+long-links family,
//       kkt vs ghs, one run per cell); --measure additionally stamps the
//       schema-v2 wall_ns / peak_rss_kb observables onto every cell, which
//       trades the byte-determinism of the artifact for telemetry -- keep
//       it off for committed artifacts (docs/RESULT_SCHEMA.md).
//
//   kkt_report gen   [--in FILE] [--docs DIR] [--experiments FILE]
//       Renders the artifact into DIR/headtohead.md (default
//       docs/experiments) and splices the exponent summary between the
//       generated markers of the EXPERIMENTS file (skipped when
//       --experiments is not given).
//
//   kkt_report check [--in FILE] [--docs DIR] [--experiments FILE]
//       Renders into memory and byte-compares against the files on disk;
//       exits 1 listing every drifted file. This is the CI report stage's
//       "docs match the artifact" gate.
//
//   kkt_report bench <suite> [--out FILE]
//       Runs one of the paper's counter experiments (EXPERIMENTS.md;
//       suites build_mst, build_st, churn, crossover, findany, findmin,
//       repair, testout; code in tools/bench_suites.cc), prints one line
//       per record and, with --out, writes the artifact. Deterministic: the
//       artifact is byte-identical on every run. A failed correctness check
//       (a build that does not span, a nonzero oracle_failures) prints an
//       `error:` line, writes nothing and exits 1.
//
//   kkt_report perf  --baseline FILE --current FILE
//       The counter gate (docs/PERF.md; run by the bench_gate ctest cases
//       against tests/baselines/). Every record must appear on both sides
//       with EXACTLY equal counters -- model costs are deterministic, so
//       any drift is a behaviour change and exits 1.
//
// The artifact format is docs/RESULT_SCHEMA.md.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_suites.h"
#include "report/render.h"
#include "report/schema.h"
#include "scenario/headtohead.h"
#include "util/cli.h"
#include "util/rusage.h"

namespace {

namespace fs = std::filesystem;

using Args = kkt::util::CliArgs;
using kkt::util::usage_error;

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto n = kkt::util::parse_u64(item);
    if (!n) usage_error("bad size '" + item + "' in '" + csv + "'");
    sizes.push_back(*n);
  }
  return sizes;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

bool write_file(const std::string& path, std::string_view text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(os);
}

kkt::scenario::HeadToHeadConfig config_from(const Args& a) {
  kkt::scenario::HeadToHeadConfig cfg;
  if (a.has("sizes")) cfg.sizes = parse_sizes(a.get("sizes", ""));
  if (a.has("gnm")) {
    cfg.complete_graphs = false;
    cfg.density = a.num("gnm", cfg.density);
  }
  if (a.has("net")) {
    const auto kind = kkt::scenario::net_kind_from_name(a.get("net", "sync"));
    if (!kind) usage_error("unknown net kind '" + a.get("net", "") + "'");
    cfg.net = *kind;
  }
  // --seed is accepted as an alias, matching the kkt_lab flag vocabulary.
  cfg.first_seed = a.num("first-seed", a.num("seed", cfg.first_seed));
  cfg.seeds = static_cast<int>(a.num("seeds", cfg.seeds));
  cfg.ops = static_cast<int>(a.num("ops", cfg.ops));
  cfg.threads = static_cast<int>(a.num("threads", cfg.threads));
  if (a.has("xl-sizes")) cfg.xl_sizes = parse_sizes(a.get("xl-sizes", ""));
  cfg.xl_long_links =
      static_cast<std::size_t>(a.num("xl-links", cfg.xl_long_links));
  cfg.xl_ghs_cap =
      static_cast<std::size_t>(a.num("xl-ghs-cap", cfg.xl_ghs_cap));
  cfg.measure = a.has("measure");
  return cfg;
}

int cmd_run(const Args& a) {
  a.expect_only("run", {"out", "sizes", "seeds", "first-seed", "seed", "ops",
                        "threads", "net", "gnm", "xl-sizes", "xl-links",
                        "xl-ghs-cap", "measure"});
  const std::string out =
      a.get("out", std::string(kkt::report::kHeadToHeadArtifact));
  const kkt::scenario::HeadToHeadConfig cfg = config_from(a);
  for (const std::size_t n : cfg.sizes) {
    if (n < 2) {
      usage_error("every --sizes entry must be >= 2 (got " +
                  std::to_string(n) + ")");
    }
  }
  const std::set<std::size_t> distinct(cfg.sizes.begin(), cfg.sizes.end());
  if (distinct.size() < 2) {
    usage_error("need at least two distinct --sizes to fit a slope");
  }
  if (cfg.seeds < 1) {
    usage_error("--seeds must be >= 1 (got " + std::to_string(cfg.seeds) +
                ")");
  }
  if (cfg.ops < 1) {
    usage_error("--ops must be >= 1 (got " + std::to_string(cfg.ops) + ")");
  }
  if (cfg.xl_long_links > 64) {
    usage_error("--xl-links must be <= 64 (got " +
                std::to_string(cfg.xl_long_links) + ")");
  }
  const kkt::scenario::HeadToHeadResult result =
      kkt::scenario::run_headtohead(cfg);
  for (const std::string& err : result.errors) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
  }
  if (!result.errors.empty()) return 1;
  const kkt::report::ResultFile file = result.to_result_file();
  if (!kkt::report::write_results_file(out, file)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 2;
  }
  std::printf("wrote %s: %zu records (schema v%d)\n", out.c_str(),
              file.records.size(), file.schema_version);
  for (const auto& fit : result.fits) {
    std::printf("  %-14s %-6s messages ~ n^%.3f  (r2 %.3f)\n",
                fit.task.c_str(), fit.algo.c_str(), fit.exponent, fit.r2);
  }
  if (cfg.measure) {
    std::printf("peak_rss_kb=%llu\n",
                static_cast<unsigned long long>(kkt::util::peak_rss_kb()));
  }
  return 0;
}

// The rendered outputs of one artifact: path -> expected contents. The gen
// and check subcommands differ only in what they do with this map.
std::map<std::string, std::string> render_outputs(
    const kkt::report::ResultFile& file, const Args& a, bool* ok) {
  *ok = true;
  std::map<std::string, std::string> outputs;
  const std::string docs_dir = a.get("docs", "docs/experiments");
  outputs[docs_dir + "/headtohead.md"] =
      kkt::report::render_headtohead_markdown(file);

  const std::string experiments = a.get("experiments", "");
  if (!experiments.empty()) {
    const auto current = read_file(experiments);
    if (!current) {
      std::fprintf(stderr, "error: cannot read %s\n", experiments.c_str());
      *ok = false;
      return outputs;
    }
    const auto spliced = kkt::report::splice_generated_block(
        *current, kkt::report::render_experiments_block(file));
    if (!spliced) {
      std::fprintf(stderr,
                   "error: %s lacks the generated-block markers\n  %s\n  %s\n",
                   experiments.c_str(),
                   std::string(kkt::report::kGeneratedBeginMarker).c_str(),
                   std::string(kkt::report::kGeneratedEndMarker).c_str());
      *ok = false;
      return outputs;
    }
    outputs[experiments] = *spliced;
  }
  return outputs;
}

std::optional<kkt::report::ResultFile> load_artifact(const Args& a) {
  const std::string in =
      a.get("in", std::string(kkt::report::kHeadToHeadArtifact));
  std::string err;
  auto file = kkt::report::read_results_file(in, &err);
  if (!file) std::fprintf(stderr, "error: %s: %s\n", in.c_str(), err.c_str());
  return file;
}

int cmd_gen(const Args& a) {
  a.expect_only("gen", {"in", "docs", "experiments"});
  const auto file = load_artifact(a);
  if (!file) return 2;
  bool ok = true;
  const auto outputs = render_outputs(*file, a, &ok);
  if (!ok) return 2;
  for (const auto& [path, text] : outputs) {
    const fs::path parent = fs::path(path).parent_path();
    std::error_code ec;
    if (!parent.empty()) fs::create_directories(parent, ec);
    if (!write_file(path, text)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), text.size());
  }
  return 0;
}

int cmd_check(const Args& a) {
  a.expect_only("check", {"in", "docs", "experiments"});
  const auto file = load_artifact(a);
  if (!file) return 2;
  bool ok = true;
  const auto outputs = render_outputs(*file, a, &ok);
  if (!ok) return 2;
  int drifted = 0;
  for (const auto& [path, text] : outputs) {
    const auto on_disk = read_file(path);
    if (!on_disk) {
      std::fprintf(stderr, "DRIFT: %s missing (run kkt_report gen)\n",
                   path.c_str());
      ++drifted;
    } else if (*on_disk != text) {
      std::fprintf(stderr,
                   "DRIFT: %s does not match the artifact "
                   "(run kkt_report gen and commit)\n",
                   path.c_str());
      ++drifted;
    }
  }
  if (drifted == 0) {
    std::printf("ok: %zu rendered file(s) match the artifact\n",
                outputs.size());
    return 0;
  }
  return 1;
}

// ---------------------------------------------------------------------------
// bench: the counter experiments (tools/bench_suites.h)
// ---------------------------------------------------------------------------

int cmd_bench(const Args& a) {
  if (const auto key = a.unknown_key({"out"})) {
    usage_error("bench takes only --out FILE (got --" + *key + ")");
  }
  const auto& pos = a.positional();
  const auto run = pos.size() == 1 ? kkt::bench::run_suite(pos[0])
                                   : std::nullopt;
  if (!run) {
    std::string got;
    for (const std::string& p : pos) got += (got.empty() ? "" : " ") + p;
    usage_error("bench wants one suite of: " + kkt::bench::suite_names() +
                " (got '" + got + "')");
  }
  for (const kkt::report::RunRecord& rec : run->file.records) {
    std::printf("%s\n ", rec.name.c_str());
    for (const auto& [key, val] : rec.counters) {
      std::printf(" %s=%.12g", key.c_str(), val);
    }
    std::printf("\n");
  }
  for (const std::string& err : run->errors) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
  }
  if (!run->errors.empty()) return 1;
  if (a.has("out")) {
    const std::string out = a.get("out", "");
    if (!kkt::report::write_results_file(out, run->file)) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 2;
    }
    std::printf("wrote %s: %zu records (schema v%d)\n", out.c_str(),
                run->file.records.size(), run->file.schema_version);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// perf: the counter gate (docs/PERF.md)
// ---------------------------------------------------------------------------

std::optional<kkt::report::ResultFile> load_named(const Args& a,
                                                  const std::string& key) {
  if (!a.has(key)) {
    std::fprintf(stderr, "error: perf requires --%s FILE\n", key.c_str());
    return std::nullopt;
  }
  const std::string path = a.get(key, "");
  std::string err;
  auto file = kkt::report::read_results_file(path, &err);
  if (!file) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), err.c_str());
  }
  return file;
}

int cmd_perf(const Args& a) {
  a.expect_only("perf", {"baseline", "current"});
  const auto baseline = load_named(a, "baseline");
  const auto current = load_named(a, "current");
  if (!baseline || !current) return 2;

  // The model costs are deterministic, so the record sets must agree
  // bit-for-bit. Any difference is a correctness signal, never noise.
  int counter_drift = 0;
  for (const kkt::report::RunRecord& base : baseline->records) {
    const kkt::report::RunRecord* cur = current->find(base.name);
    if (!cur) {
      std::fprintf(stderr, "PERF-DRIFT: record '%s' missing from current\n",
                   base.name.c_str());
      ++counter_drift;
      continue;
    }
    if (cur->counters != base.counters) {
      ++counter_drift;
      std::fprintf(stderr, "PERF-DRIFT: counters changed for '%s':\n",
                   base.name.c_str());
      for (const auto& [key, val] : base.counters) {
        const auto it = cur->counters.find(key);
        if (it == cur->counters.end()) {
          std::fprintf(stderr, "  %s: %.17g -> (missing)\n", key.c_str(), val);
        } else if (it->second != val) {
          std::fprintf(stderr, "  %s: %.17g -> %.17g\n", key.c_str(), val,
                       it->second);
        }
      }
      for (const auto& [key, val] : cur->counters) {
        if (base.counters.find(key) == base.counters.end()) {
          std::fprintf(stderr, "  %s: (missing) -> %.17g\n", key.c_str(), val);
        }
      }
    }
  }
  for (const kkt::report::RunRecord& cur : current->records) {
    if (!baseline->find(cur.name)) {
      std::fprintf(stderr, "PERF-DRIFT: record '%s' absent from baseline\n",
                   cur.name.c_str());
      ++counter_drift;
    }
  }
  if (counter_drift != 0) {
    std::fprintf(stderr,
                 "FAIL: %d record(s) drifted from the counter baseline "
                 "(model costs are deterministic; investigate before "
                 "re-baselining)\n",
                 counter_drift);
    return 1;
  }

  std::printf("perf: counters exact across %zu record(s)\n",
              baseline->records.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: kkt_report run|gen|check|bench|perf [--flags]\n"
                 "see the header comment of tools/kkt_report.cc\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args a(argc, argv, 2);
  if (cmd == "run") return cmd_run(a);
  if (cmd == "gen") return cmd_gen(a);
  if (cmd == "check") return cmd_check(a);
  if (cmd == "bench") return cmd_bench(a);
  if (cmd == "perf") return cmd_perf(a);
  std::fprintf(stderr, "error: unknown command '%s'\n", cmd.c_str());
  return 2;
}
