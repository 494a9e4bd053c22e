// Measurement utilities for the benchmark harness: a trimmed mean,
// the tail-percentile rule, harness-side tracing spans with a Chrome
// trace-event exporter, process CPU/RSS readings and the host/build
// fingerprint.  Nothing here links against a library layer's internals;
// spans are recorded around calls into each layer's public functions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- order statistics -------------------------------------------------
// Plain medians come from xdmodml::median (util/stats.hpp).

/// Mean after dropping the lowest and highest tenth of the values (at
/// least one each from five values up): robust to one stalled window
/// or set-up, and smooth where a median jumps between two levels.
double trimmed_mean(std::vector<double> values);

/// The highest percentile of the ladder 90, 99, 99.9, 99.99, 99.999
/// that leaves at least `min_beyond` samples strictly above its
/// nearest-rank position.  `percentile` is 0 when even p90 does not.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples ranked above the reported one
};
Tail tail_percentile(std::vector<double> values, std::size_t min_beyond = 10);

// ---- tracing ----------------------------------------------------------

/// One completed span: name, start, end, parent span and request id.
struct Span {
  const char* name = nullptr;  ///< string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;   ///< 0 = top level
  std::uint64_t request = 0;  ///< 0 = not part of a request
  std::uint32_t thread = 0;
};

/// In-memory span recorder.  Spans go to per-thread buffers (no lock
/// per span) and are merged only when the run ends.  Disabled, a guard
/// costs one branch and reads no clock.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// All spans recorded so far, sorted by start time.  Call it when no
  /// other thread records.
  std::vector<Span> collect() const;

 private:
  friend class SpanGuard;
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer& buffer();

  bool enabled_ = false;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;  ///< guards buffers_ (registration, collect)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span.  The parent is the innermost open span on this thread
/// unless `parent` names one explicitly (client threads hang their
/// request spans under the phase span opened by the main thread).
class SpanGuard {
 public:
  explicit SpanGuard(const char* name, std::uint64_t request = 0,
                     std::uint32_t parent = kInherit);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  std::uint32_t id() const { return span_.id; }
  static constexpr std::uint32_t kInherit = 0xffffffffu;

 private:
  Span span_;
  std::uint32_t saved_current_ = 0;
  bool active_ = false;
};

/// Self time and reconciliation over a finished trace.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double median_us = 0.0;  ///< median span duration
};
struct TraceReport {
  std::vector<LayerRow> rows;
  std::size_t spans = 0;
  std::size_t child_exceeds_parent = 0;
  /// Per top-level (phase) span: coverage of its duration by the union
  /// of its direct children, as a fraction.
  std::vector<std::pair<std::string, double>> phase_coverage;
};
TraceReport analyze_trace(const std::vector<Span>& spans);

/// Writes spans as Chrome trace-event JSON, loadable in Perfetto /
/// chrome://tracing: every phase and every span of a name recorded
/// fewer than max_events / 8 times, then the high-volume per-request
/// spans in start order until `max_events` are written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t max_events);

// ---- process readings -------------------------------------------------

/// User + system CPU seconds of this process so far.
double process_cpu_seconds();
/// Peak resident set size of this process, in MB (10^6 bytes).
double peak_rss_mb();

/// Host-wide CPU time from the first line of /proc/stat, in clock
/// ticks: every state, and the part the hypervisor stole.  Zeros where
/// the file cannot be read.
struct HostCpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostCpuTicks host_cpu_ticks();
/// Share of host CPU time stolen between two readings; 0 if none passed.
double steal_share(const HostCpuTicks& before, const HostCpuTicks& after);

/// CPU time over wall time × logical CPUs, across a phase.
class CpuMeter {
 public:
  CpuMeter();
  double utilisation() const;

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

// ---- host fingerprint -------------------------------------------------

std::string cpu_model();
unsigned logical_cpus();

// ---- output -----------------------------------------------------------

/// One reported metric: value, unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;  ///< printed beside the value (e.g. the percentile)
};
using MetricMap = std::map<std::string, Metric>;

std::string json_escape(const std::string& s);
/// Shortest round-trip decimal for a double (every digit as measured).
std::string json_number(double v);

/// 64-bit FNV-1a over a byte string (input digests).
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ULL);

}  // namespace perfbench
