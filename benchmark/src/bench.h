// Shared pieces of the repository benchmark (`neutral_bench`): options,
// the metric report and its final JSON line, benchmark-side spans, order
// statistics, host probes and the reference-output file.
//
// Everything here lives outside the program: the benchmark measures each
// layer by timing calls into its public functions and reading what those
// calls return, and adds no probe inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;        ///< csp | scatter
  std::uint64_t seed = 1;
  double seconds = 20.0;       ///< measured time of one run
  bool trace = false;          ///< per-layer (traced) mode
  std::string reference_path = "benchmark/reference.txt";
  std::string golden_dir = "tests/golden";
  std::string out_dir = ".bench_build/out";  ///< span files land here
  /// Self-test hook: busy-wait `inject_fraction` of every timed operation
  /// of the config whose metric is `inject_metric` (e.g. op4.events_per_s),
  /// inside its timed region.
  std::string inject_metric;
  double inject_fraction = 0.0;
};

/// Spin (not sleep) for `seconds`, so the injected delay costs CPU time the
/// way slower code would.
void busy_wait(double seconds);

/// Metrics by name plus the operation/failure counts of one run.
class Report {
 public:
  void metric(const std::string& name, const std::string& unit, double value,
              std::size_t samples);
  /// Count one checked operation; a failed check is a failed operation.
  void check(bool ok, const std::string& what);
  void note(const std::string& line);  ///< free-form line printed first

  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }

  /// Print the notes, one `name value unit n=samples` row per metric, and
  /// as the last line the JSON result object.
  void print() const;

 private:
  struct Entry {
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
  };
  std::vector<std::string> notes_;
  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Benchmark-side spans, kept in memory and written out at the end.  A span
/// has a name, the layer it measures, a request id shared by every span of
/// one served submission (0 elsewhere), a parent and its start/end.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::uint64_t id = 0;
    int parent = -1;
    Clock::time_point start{};
    Clock::time_point end{};
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Record a finished span; returns its index (-1 when disabled).
  int add(const std::string& name, const std::string& layer,
          std::uint64_t id, int parent, Clock::time_point start,
          Clock::time_point end);

  /// Opens a span on construction and closes it on destruction; spans
  /// opened on the same thread meanwhile nest under it.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string layer,
          std::uint64_t id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  /// Self time per layer: each span's duration minus the part of it that
  /// its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Write every span (JSONL) followed by one self-time line per layer.
  void write(const std::string& path) const;

 private:
  int open(const std::string& name, const std::string& layer,
           std::uint64_t id);
  void close(int index);

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

// --- order statistics ------------------------------------------------------

/// Quantile by linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- host ------------------------------------------------------------------

/// Steal share of all CPU time between construction and percent().
class StealMeter {
 public:
  StealMeter();
  [[nodiscard]] double percent() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

/// Peak resident memory of this process (VmHWM) in MiB: since it started,
/// or since the last reset_peak_rss().
double peak_rss_mb();
/// Restart the VmHWM high-water mark (/proc/self/clear_refs); false where
/// the kernel refuses, and peak_rss_mb() then covers the whole process.
bool reset_peak_rss();
/// "nproc=N cpu=<model>" for the run record.
std::string host_line();

// --- reference outputs ----------------------------------------------------

/// Flat `key value` reference file (benchmark/reference.txt).
using Reference = std::map<std::string, std::string>;
Reference load_reference(const std::string& path);
void save_reference(const Reference& ref, const std::string& path);
/// Fetch `key`; throws neutral::Error when absent.
const std::string& ref_value(const Reference& ref, const std::string& key);
std::uint64_t ref_u64(const Reference& ref, const std::string& key);
double ref_double(const Reference& ref, const std::string& key);
std::string format_double(double v);  ///< %.17g

// --- workloads -------------------------------------------------------------

// Every run of a workload runs both phases, transport first, so that it
// reports every metric of the benchmark; each phase reports its own metrics
// and hands back what the run-wide ones are made of.

/// What one phase of a run hands back for the run-wide metrics.
struct PhaseResult {
  double setup_s = 0.0;       ///< median set-up time of the phase
  std::size_t setup_samples = 0;
  double warmup_s = 0.0;      ///< time spent warming before timing
  double peak_rss_mb = 0.0;   ///< untraced runs: peak resident memory
  std::uint64_t refused = 0;  ///< submissions the daemon refused
};

/// Transport throughput of the workload's deck, `seconds` of sampling.
PhaseResult run_transport(const Options& opt, double seconds,
                          const Reference& ref, Report& report);
void record_transport_reference(const std::string& workload, Reference& ref);
/// neutrald over loopback on the golden decks, `seconds` of timed traffic.
PhaseResult run_serve(const Options& opt, double seconds,
                      const Reference& ref, Report& report);
void record_serve_reference(const Options& opt, Reference& ref);

}  // namespace bench
