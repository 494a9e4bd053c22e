#include "bench_util.hpp"

#include "util/stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <unordered_map>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

// ---- order statistics -------------------------------------------------

double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t cut = n >= 5 ? std::max<std::size_t>(1, n / 10) : 0;
  double sum = 0.0;
  for (std::size_t i = cut; i < n - cut; ++i) sum += values[i];
  return sum / static_cast<double>(n - 2 * cut);
}

Tail tail_percentile(std::vector<double> values, std::size_t min_beyond) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const double p : {90.0, 99.0, 99.9, 99.99, 99.999}) {
    // Nearest rank: the smallest rank r with r / n >= p / 100.
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    const std::size_t beyond = n - rank;
    if (beyond < min_beyond) break;
    tail.percentile = p;
    tail.value = values[rank - 1];
    tail.beyond = beyond;
  }
  return tail;
}

// ---- tracing ----------------------------------------------------------

namespace {
thread_local std::uint32_t t_current_span = 0;
thread_local void* t_buffer = nullptr;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard lock(mutex_);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->thread = static_cast<std::uint32_t>(buffers_.size() + 1);
    buf->spans.reserve(1 << 14);
    t_buffer = buf.get();
    buffers_.push_back(std::move(buf));
  }
  return *static_cast<ThreadBuffer*>(t_buffer);
}

std::vector<Span> Tracer::collect() const {
  std::vector<Span> all;
  {
    std::lock_guard lock(mutex_);
    for (const auto& buf : buffers_) {
      all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

SpanGuard::SpanGuard(const char* name, std::uint64_t request,
                     std::uint32_t parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.request = request;
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent == kInherit ? t_current_span : parent;
  saved_current_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = now_ns();
}

SpanGuard::~SpanGuard() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_current_span = saved_current_;
  Tracer::ThreadBuffer& buf = Tracer::instance().buffer();
  span_.thread = buf.thread;
  buf.spans.push_back(span_);
}

namespace {

/// Length of the union of [start, end) intervals.
std::uint64_t union_length(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (!open || s > hi) {
      if (open) covered += hi - lo;
      lo = s;
      hi = e;
      open = true;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (open) covered += hi - lo;
  return covered;
}

}  // namespace

TraceReport analyze_trace(const std::vector<Span>& spans) {
  TraceReport report;
  report.spans = spans.size();
  std::unordered_map<std::uint32_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      ++report.child_exceeds_parent;
    }
    children[it->second].emplace_back(std::max(s.start_ns, p.start_ns),
                                      std::min(s.end_ns, p.end_ns));
  }

  struct Acc {
    std::size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::vector<double> durations_us;
  };
  std::map<std::string, Acc> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    const auto covered = static_cast<double>(union_length(children[i]));
    Acc& acc = by_name[s.name];
    ++acc.count;
    acc.total_ns += dur;
    acc.self_ns += std::max(0.0, dur - covered);
    acc.durations_us.push_back(dur / 1e3);
    if (s.parent == 0) {
      report.phase_coverage.emplace_back(s.name,
                                         dur > 0.0 ? covered / dur : 1.0);
    }
  }
  for (auto& [name, acc] : by_name) {
    report.rows.push_back({name, acc.count, acc.total_ns / 1e6,
                           acc.self_ns / 1e6,
                           xdmodml::median(acc.durations_us)});
  }
  return report;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::size_t max_events) {
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  std::size_t written = 0;
  auto emit = [&](const Span& s) {
    if (written > 0) out << ",\n";
    out << "{\"name\": \"" << json_escape(s.name) << "\", \"ph\": \"X\", "
        << "\"ts\": " << json_number(static_cast<double>(s.start_ns - t0) / 1e3)
        << ", \"dur\": "
        << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"pid\": 1, \"tid\": " << s.thread << ", \"args\": {\"id\": "
        << s.id << ", \"parent\": " << s.parent << ", \"request\": "
        << s.request << "}}";
    ++written;
  };
  // Phases first, then every span of a name that is not per-request
  // (fewer than max_events / 8 of them, e.g. training, set-up and the
  // layer replay), then per-request spans in start order up to the cap.
  std::map<std::string, std::size_t> per_name;
  for (const auto& s : spans) ++per_name[s.name];
  auto rare = [&](const Span& s) { return per_name[s.name] < max_events / 8; };
  for (const auto& s : spans) {
    if (s.parent == 0) emit(s);
  }
  for (const auto& s : spans) {
    if (s.parent != 0 && rare(s)) emit(s);
  }
  for (const auto& s : spans) {
    if (written >= max_events) break;
    if (s.parent != 0 && !rare(s)) emit(s);
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- process readings -------------------------------------------------

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB → MB
}

HostCpuTicks host_cpu_ticks() {
  HostCpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal; guest time is
  // already counted in user.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double steal_share(const HostCpuTicks& before, const HostCpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

CpuMeter::CpuMeter() : wall0_(Clock::now()), cpu0_(process_cpu_seconds()) {}

double CpuMeter::utilisation() const {
  const double wall = seconds_since(wall0_);
  if (wall <= 0.0) return 0.0;
  return (process_cpu_seconds() - cpu0_) / (wall * logical_cpus());
}

// ---- host fingerprint -------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

unsigned logical_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ---- output -----------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
