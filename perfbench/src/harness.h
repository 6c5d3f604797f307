// Harness plumbing shared by the workloads and the layer probes: the wall
// clock, the span recorder of the traced pass, order statistics, and the
// metric sink that prints every metric by name with its unit.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace kkt::perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One recorded span: a call into a layer, or a harness scope enclosing
// several. Times are nanoseconds since the tracer was created.
struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t parent;  // index into the span list, -1 for a root
};

// Records spans in memory while enabled; write() dumps them as JSON lines.
// Disabled, begin/end cost one branch, so the untraced pass runs the same
// code as the traced one.
class Tracer {
 public:
  explicit Tracer(std::uint64_t origin_ns) : origin_(origin_ns) {}

  void set_enabled(bool on) { enabled_ = on; }

  void begin(const char* name, std::uint64_t t) {
    if (!enabled_) return;
    const auto parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<std::int32_t>(spans_.size()));
    spans_.push_back({name, t - origin_, 0, parent});
  }
  void end(std::uint64_t t) {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(open_.back())].end_ns = t - origin_;
    open_.pop_back();
  }

  std::size_t size() const { return spans_.size(); }
  bool write(const std::string& path) const;

 private:
  std::uint64_t origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// Times one call from outside and returns its wall time in seconds; records
// a span named after the called function when the tracer is enabled.
template <typename F>
double timed(Tracer& tracer, const char* name, F&& f) {
  const std::uint64_t t0 = now_ns();
  tracer.begin(name, t0);
  std::forward<F>(f)();
  const std::uint64_t t1 = now_ns();
  tracer.end(t1);
  return static_cast<double>(t1 - t0) * 1e-9;
}

// The host's current speed. The benchmark shares its machine with other
// tenants, and the same build runs up to 1.5x slower for tens of seconds at
// a time. A fixed, benchmark-owned kernel -- ~1.5 ms of integer mixing with
// scattered writes into a 4 MiB buffer, like the workloads' own
// cache-missing pointer work -- slows down with them. Every time the
// benchmark reports is scaled by kReferenceKernelS over the kernel's most
// recent time, i.e. reported in seconds of a host on which the kernel takes
// exactly kReferenceKernelS. The raw wall times are printed alongside. The
// buffer adds a constant 4 MiB to the peak RSS.
class HostSpeed {
 public:
  static constexpr double kReferenceKernelS = 2e-3;

  HostSpeed() : buf_(std::size_t{1} << 19) { sample(); }

  // Re-measures the kernel; returns the new scale.
  double sample() {
    const std::uint64_t t0 = now_ns();
    std::uint64_t x = ++seed_;
    for (int i = 0; i < kSteps; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      buf_[(x >> 40) & (buf_.size() - 1)] += x;
    }
    const double s = static_cast<double>(now_ns() - t0) * 1e-9;
    kernel_s_.push_back(s);
    scale_ = kReferenceKernelS / s;
    return scale_;
  }
  double scale() const { return scale_; }
  const std::vector<double>& kernel_s() const { return kernel_s_; }

 private:
  static constexpr int kSteps = 400000;
  std::vector<std::uint64_t> buf_;
  std::uint64_t seed_ = 0;
  double scale_ = 1.0;
  std::vector<double> kernel_s_;
};

// RAII harness scope (one world, one pass): a parent span for the calls
// made inside it.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(&tracer) {
    tracer_->begin(name, now_ns());
  }
  ~Scope() { tracer_->end(now_ns()); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

// Nearest-rank quantile (q in [0, 1]) of a sample; 0 for an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, q * static_cast<double>(v.size()) - 1e-9));
  return v[std::min(rank, v.size() - 1)];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Every metric the run produced, in print order. `json` marks the metrics
// BENCHMARK.json declares for this mode (end-to-end untraced, per-layer
// traced); the rest are printed as lines only.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool json;
  };

  void add(std::string name, double value, std::string unit, bool json) {
    metrics_.push_back({std::move(name), value, std::move(unit), json});
  }
  void note(std::string line) { notes_.push_back(std::move(line)); }

  // Human-readable lines, then the one-line JSON result (last line).
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace kkt::perfbench
