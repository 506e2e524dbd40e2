#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "runtime/host_info.h"
#include "util/error.h"

namespace bench {

void busy_wait(double seconds) {
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < until) {
  }
}

// --- Report ----------------------------------------------------------------

void Report::metric(const std::string& name, const std::string& unit,
                    double value, std::size_t samples) {
  if (metrics_.find(name) == metrics_.end()) order_.push_back(name);
  metrics_[name] = Entry{unit, value, samples};
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    // Every failure is named on stderr; the count goes into the result.
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::printf("%-28s %-14.6g %-8s n=%zu\n", name.c_str(), e.value,
                e.unit.c_str(), e.samples);
  }
  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + format_double(e.value) +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Tracer ----------------------------------------------------------------

namespace {
thread_local int t_parent = -1;
}  // namespace

int Tracer::add(const std::string& name, const std::string& layer,
                std::uint64_t id, int parent, Clock::time_point start,
                Clock::time_point end) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, layer, id, parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::open(const std::string& name, const std::string& layer,
                 std::uint64_t id) {
  const auto now = Clock::now();
  return add(name, layer, id, t_parent, now, now);
}

void Tracer::close(int index) {
  if (index < 0) return;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = now;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::string layer,
                     std::uint64_t id)
    : tracer_(tracer), saved_parent_(t_parent) {
  index_ = tracer_.open(name, layer, id);
  if (index_ >= 0) t_parent = index_;
}

Tracer::Scope::~Scope() {
  tracer_.close(index_);
  t_parent = saved_parent_;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of one parent never overlap here (each thread nests strictly
  // and synthesized children are laid end to end), so the covered part is
  // the sum of the children's durations, clipped to the parent.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double wall = seconds_between(spans_[i].start, spans_[i].end);
    self[spans_[i].layer] += std::max(0.0, wall - covered[i]);
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  const auto self = self_seconds();
  std::ofstream out(path);
  NEUTRAL_REQUIRE(out.good(), "cannot write span file '" + path + "'");
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << neutral::obs::json_escape(s.name)
        << "\",\"layer\":\"" << s.layer << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_s\":"
        << neutral::obs::json_number(seconds_between(epoch_, s.start))
        << ",\"end_s\":"
        << neutral::obs::json_number(seconds_between(epoch_, s.end))
        << "}\n";
  }
  for (const auto& [layer, seconds] : self) {
    out << "{\"self_time\":\"" << layer
        << "\",\"seconds\":" << neutral::obs::json_number(seconds) << "}\n";
  }
}

// --- statistics ------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

// --- host ------------------------------------------------------------------

namespace {

/// (steal, total) jiffies from the aggregate `cpu` line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return {0, 0};
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  for (int field = 0; field < 8; ++field) {  // user..steal
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

StealMeter::StealMeter() { std::tie(steal_, total_) = read_cpu_ticks(); }

double StealMeter::percent() const {
  const auto [steal, total] = read_cpu_ticks();
  const std::uint64_t dt = total - total_;
  return dt > 0 ? 100.0 * static_cast<double>(steal - steal_) /
                      static_cast<double>(dt)
                : 0.0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

std::string host_line() {
  const neutral::HostInfo host = neutral::probe_host();
  return "host: nproc=" + std::to_string(host.logical_cpus) +
         " cpu=" + host.cpu_model;
}

// --- reference -------------------------------------------------------------

Reference load_reference(const std::string& path) {
  std::ifstream in(path);
  NEUTRAL_REQUIRE(in.good(), "cannot read reference file '" + path + "'");
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string value;
    fields >> key >> value;
    NEUTRAL_REQUIRE(!key.empty() && !value.empty(),
                    "malformed reference line '" + line + "'");
    ref[key] = value;
  }
  return ref;
}

void save_reference(const Reference& ref, const std::string& path) {
  std::ofstream out(path);
  NEUTRAL_REQUIRE(out.good(), "cannot write reference file '" + path + "'");
  out << "# neutral_bench reference outputs: per-deck integer counters\n"
         "# (exact) and tally checksum/total (1e-9 relative).  Regenerate:\n"
         "#   .bench_build/cmake/neutral_bench --record-reference "
         "benchmark/reference.txt\n";
  for (const auto& [key, value] : ref) out << key << ' ' << value << '\n';
}

const std::string& ref_value(const Reference& ref, const std::string& key) {
  const auto it = ref.find(key);
  NEUTRAL_REQUIRE(it != ref.end(), "reference has no entry '" + key + "'");
  return it->second;
}

std::uint64_t ref_u64(const Reference& ref, const std::string& key) {
  return std::stoull(ref_value(ref, key));
}

double ref_double(const Reference& ref, const std::string& key) {
  return std::stod(ref_value(ref, key));
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace bench
