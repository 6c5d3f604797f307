// kkt_perfbench: the repo benchmark (see ../README.md).
//
//   kkt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans FILE]
//
// --trace 0 runs one untraced pass of S seconds and ends with the JSON
// line of end-to-end metrics. --trace 1 runs an untraced and a traced pass
// of S/2 seconds each over the first half of the workload's worlds, then
// the layer probes, writes the traced pass's spans to FILE, and ends with
// the JSON line of per-layer metrics. Every
// other metric is printed as a `metric <name> <value> <unit>` line before
// it. Exit status: 0 on a completed run (the JSON says whether the outputs
// were correct), 2 on bad arguments.
#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/repair.h"
#include "harness.h"
#include "probes.h"
#include "util/rusage.h"
#include "workloads.h"

namespace kkt::perfbench {

// The seed later performance claims must also hold on, besides the seeds
// they were developed against (README.md, "Seeds").
constexpr std::uint64_t kHeldOutSeed = 20150721;

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Metric& m : metrics_) {
    std::printf("metric %s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.json) continue;
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: kkt_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\nworkloads:",
               why);
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(o.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      o.trace = val == "1" ? 1 : 0;
    } else if (key == "--spans") {
      o.spans = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 &&
         o.trace >= 0;
}

// Lines every mode prints: the checks and the churn-only repair metrics.
void add_lines(Report& rep, const WorkloadDef& def, const PassResult& r) {
  rep.add("attempted_ops", static_cast<double>(r.attempted), "count", false);
  rep.add("failed_ops", static_cast<double>(r.failed), "count", false);
  rep.add("harness.cycles", r.cycles, "count", false);
  rep.add("setup_raw_s", median(r.setup_raw_s), "s", false);
  rep.add("task_raw_s", mean(r.task_raw_s), "s", false);
  if (!def.churn) {
    rep.add("build_s", mean(r.task_s), "s", false);
    return;
  }
  double apply_s = 0;
  for (const double ms : r.op_ms) apply_s += ms * 1e-3;
  rep.add("repair_ops_per_s", static_cast<double>(r.op_ms.size()) / apply_s,
          "1/s", false);
  rep.add("repair_p50_ms", quantile(r.op_ms, 0.50), "ms", false);
  rep.add("repair_p99_ms", quantile(r.op_ms, 0.99), "ms", false);
  rep.add("repair_samples", static_cast<double>(r.op_ms.size()), "count",
          false);
  rep.add("workload.trace_gen_s", mean(r.trace_gen_s), "s", false);
  std::array<std::array<double, kActions>, core::kOpKindCount> sum{};
  std::array<std::array<int, kActions>, core::kOpKindCount> count{};
  for (std::size_t j = 0; j < r.op_ms.size(); ++j) {
    const auto k = static_cast<std::size_t>(r.op_class[j].first);
    const auto a = static_cast<std::size_t>(r.op_class[j].second);
    sum[k][a] += r.op_ms[j];
    count[k][a] += 1;
  }
  for (int k = 0; k < core::kOpKindCount; ++k) {
    for (int a = 0; a < kActions; ++a) {
      if (count[k][a] == 0) continue;
      rep.add(std::string("core.repair_ms.") +
                  core::op_kind_name(static_cast<core::OpKind>(k)) + "." +
                  core::action_name(static_cast<core::RepairAction>(a)),
              sum[k][a] / count[k][a], "ms", false);
    }
  }
}

void add_end_to_end(Report& rep, const WorkloadDef& def, const PassResult& r,
                    double rss_mib, bool json) {
  const double worlds = def.worlds;
  rep.add("setup_s", median(r.setup_s), "s", json);
  rep.add("task_s", mean(r.task_s), "s", json);
  rep.add("peak_rss_mib", rss_mib, "MiB", json);
  rep.add("messages", static_cast<double>(r.messages) / worlds, "count", json);
}

void add_per_layer(Report& rep, const WorkloadDef& def, const PassResult& r,
                   const ProbeResult& p, double overhead_pct) {
  const double worlds = def.worlds;
  rep.add("graph.generate_s", median(r.generate_s), "s", true);
  rep.add("graph.premark_s", def.churn ? median(r.premark_s) : p.premark_s,
          "s", true);
  rep.add("graph.incident_ns_per_edge", p.incident_ns_per_edge, "ns", true);
  rep.add("sim.run_ns", p.run_ns, "ns", true);
  rep.add("sim.sync_ns_per_msg", p.sync_ns_per_msg, "ns", true);
  rep.add("sim.async_ns_per_msg", p.async_ns_per_msg, "ns", true);
  rep.add("proto.bcast_echo_ns_per_msg", p.bcast_echo_ns_per_msg, "ns", true);
  rep.add("hashing.odd_hash_ns", p.odd_hash_ns, "ns", true);
  rep.add("proto.bcast_echoes", static_cast<double>(r.bcast_echoes) / worlds,
          "count", true);
  rep.add("core.rounds", static_cast<double>(r.rounds) / worlds, "count", true);
  rep.add("core.phases", static_cast<double>(r.phases) / worlds, "count", true);
  for (int i = 0; i < kMaxPhases; ++i) {
    rep.add("core.phase_msgs." + std::to_string(i),
            static_cast<double>(r.phase_msgs[i]) / worlds, "count", true);
  }
  rep.add("core.audit_s", mean(r.audit_s), "s", true);
  for (int a = 0; a < kActions; ++a) {
    rep.add(std::string("core.actions.") +
                core::action_name(static_cast<core::RepairAction>(a)),
            static_cast<double>(r.actions[a]) / worlds, "count", true);
  }
  rep.add("harness.oracle_s", mean(r.oracle_s), "s", true);
  rep.add("harness.trace_overhead_pct", overhead_pct, "%", true);
}

bool same_counters(const PassResult& a, const PassResult& b) {
  return a.messages == b.messages && a.rounds == b.rounds &&
         a.bcast_echoes == b.bcast_echoes && a.phases == b.phases &&
         a.phase_msgs == b.phase_msgs && a.actions == b.actions;
}

int run(const Options& o) {
  const auto def = find_workload(o.workload);
  if (!def) return usage("unknown workload");

  Report rep;
  rep.note("param seed=" + std::to_string(o.seed) +
           " heldout_seed=" + std::to_string(kHeldOutSeed) + " " +
           def->describe() + " seconds=" + number(o.seconds) +
           " trace=" + std::to_string(o.trace));

  // A traced run makes two passes; halving both the budget and the worlds
  // keeps it as long as an untraced run.
  WorkloadDef pass_def = *def;
  double budget = o.seconds;
  if (o.trace == 1) {
    pass_def.worlds = (def->worlds + 1) / 2;
    budget /= 2;
  }
  Tracer tracer(now_ns());
  HostSpeed speed;
  const PassResult plain =
      run_pass(pass_def, o.seed, budget, tracer, speed, nullptr);
  const double rss_mib = static_cast<double>(util::peak_rss_kb()) / 1024.0;
  bool correct = plain.failed == 0 && !plain.counters_drifted;
  std::uint64_t attempted = plain.attempted;
  std::uint64_t failed = plain.failed;

  add_end_to_end(rep, pass_def, plain, rss_mib, o.trace == 0);
  add_lines(rep, pass_def, plain);

  if (o.trace == 1) {
    tracer.set_enabled(true);
    scenario::World finished;
    const PassResult traced =
        run_pass(pass_def, o.seed, budget, tracer, speed, &finished);
    const ProbeResult probes =
        run_probes(pass_def, o.seed, finished, tracer, speed);
    correct = correct && traced.failed == 0 && !traced.counters_drifted &&
              same_counters(plain, traced) && probes.ok;
    attempted += traced.attempted;
    failed += traced.failed;
    const double overhead_pct =
        100.0 * (traced.first_cycle_s - plain.first_cycle_s) /
        plain.first_cycle_s;
    add_per_layer(rep, pass_def, traced, probes, overhead_pct);
    rep.add("harness.spans", static_cast<double>(tracer.size()), "count",
            false);
    if (!o.spans.empty() && !tracer.write(o.spans)) {
      std::fprintf(stderr, "error: cannot write spans to %s\n",
                   o.spans.c_str());
      return 1;
    }
  }
  rep.add("harness.host_kernel_ms", median(speed.kernel_s()) * 1e3, "ms",
          o.trace == 1);
  rep.print(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace kkt::perfbench

int main(int argc, char** argv) {
  kkt::perfbench::Options o;
  if (!kkt::perfbench::parse(argc, argv, o)) {
    return kkt::perfbench::usage("bad arguments");
  }
  return kkt::perfbench::run(o);
}
