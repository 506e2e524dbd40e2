// The transport phase of the `csp` and `scatter` workloads: warm transport
// throughput of the workload's deck through both schemes the paper
// compares (Over Particles, Over Events, at 4 and 1 OpenMP threads) and
// through the batch layer's two fork-join runners (4 bank shards, a 2x2
// mesh decomposition).
//
// Why these two decks: they exercise opposite halves of the transport
// code.  csp (1000^2 cells, each field 8 MB, beyond a core's L2) makes ~1
// tally flush and ~0.01 XS lookups per event, so facet, tally and mesh
// traffic do the work; its corner source also puts every birth in one
// subdomain, so the 2x2 decomposition is imbalanced.  scatter (320^2)
// makes ~1.26 XS lookups and ~0.37 flushes per event and draws many random
// numbers, so collision, xs and rng do the work.
//
// Timing discipline (measured on a 4-vCPU shared host, see README.md):
//   * every config is warmed until three consecutive short windows agree
//     within kSettle: idle vCPUs run the first second of work at a
//     fraction of their speed;
//   * a timed sample is as many whole solves as fill kWindowSeconds of
//     wall time, never a fixed particle count, and a metric is the median
//     of its samples;
//   * every sample keeps all 4 vCPUs busy: the 1-thread configs run
//     kCopies independent solves side by side and report the per-solve
//     rate, because a lone thread ran 25% faster or slower depending on
//     which host core served it;
//   * configs are sampled round-robin in a seeded order, and samples taken
//     under more than kMaxStealPct host steal are set aside.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "batch/domain.h"
#include "batch/engine.h"
#include "batch/shard.h"
#include "bench.h"
#include "core/deck.h"
#include "core/simulation.h"
#include "core/world.h"
#include "io/results_io.h"
#include "perf/profiler.h"
#include "util/error.h"

namespace bench {
namespace {

using neutral::RunResult;
using neutral::Scheme;
using neutral::SimulationConfig;

constexpr double kWindowSeconds = 0.5;
constexpr double kWarmWindowSeconds = 0.2;
constexpr int kMinSamples = 3;
constexpr int kSetupRepeats = 15;
/// Warm-up settles when three consecutive windows agree within this share;
/// windows of a warm config still scatter by ~10% on a shared host.
constexpr double kSettle = 0.15;
/// Longest warm-up of one config once the cores are warm.
constexpr double kWarmMaxSeconds = 1.0;
/// A sample taken while the hypervisor stole more than this share of the
/// host's CPU time measures the neighbours, not the code: a 4-thread team
/// stalls at every barrier whenever one of its vCPUs is descheduled, and
/// such samples ran 30-60% slow on the host these were tuned on.
constexpr double kMaxStealPct = 5.0;
/// Sampling may run past its budget by this factor to collect kMinSamples
/// samples under kMaxStealPct per config.
constexpr double kExtend = 1.2;
/// Side-by-side solves of the 1-thread configs (one per vCPU).
constexpr int kCopies = 4;

/// The deck's own RNG seed stays at the factory default: the integer
/// counters are then one fixed reference per deck and repeat bit for bit in
/// every run.  The benchmark seed orders the sampling instead.
neutral::ProblemDeck transport_deck(const std::string& workload) {
  if (workload == "csp") {
    neutral::ProblemDeck deck = neutral::csp_deck(0.25, 1.0);
    deck.n_particles = 1500;
    return deck;
  }
  if (workload == "scatter") {
    neutral::ProblemDeck deck = neutral::scatter_deck(0.08, 1.0);
    deck.n_particles = 4000;
    return deck;
  }
  throw neutral::Error("unknown transport workload '" + workload + "'");
}

enum class Kind { kPlain, kShard, kDomain };

struct Config {
  const char* name;    ///< metric prefix
  const char* ref;     ///< reference-output family (thread-count invariant)
  Kind kind;
  Scheme scheme;
  int threads;         ///< OpenMP threads per solve (plain runs)
  int copies;          ///< solves run side by side in one sample
};

constexpr Config kConfigs[] = {
    {"op4", "op", Kind::kPlain, Scheme::kOverParticles, 4, 1},
    {"oe4", "oe", Kind::kPlain, Scheme::kOverEvents, 4, 1},
    {"shard4", "shard", Kind::kShard, Scheme::kOverParticles, 1, 1},
    {"dom2x2", "dom", Kind::kDomain, Scheme::kOverParticles, 1, 1},
    {"op1", "op", Kind::kPlain, Scheme::kOverParticles, 1, kCopies},
    {"oe1", "oe", Kind::kPlain, Scheme::kOverEvents, 1, kCopies},
};
const Config& config_named(const std::string& name) {
  for (const Config& c : kConfigs) {
    if (name == c.name) return c;
  }
  throw neutral::Error("no transport config '" + name + "'");
}

/// One timed solve (Simulation, run_sharded or run_domains) and its outputs.
struct Op {
  double seconds = 0.0;      ///< construct + run (or the fork-join call)
  RunResult result;
  // Fork-join extras.
  double imbalance = 0.0;
  double reduce_s = 0.0;
  double dispatch_s = 0.0;
  std::int32_t rounds = 0;
  std::int64_t migrations = 0;
  std::uint64_t dom_peak_mesh_bytes = 0;
};

/// Whole solves over one timed window, summed over its side-by-side copies.
struct Window {
  double rate = 0.0;       ///< events/s per solve (mean over copies)
  double steal_pct = 0.0;  ///< host steal over the window
  double peak_rss_mb = 0.0;  ///< process peak resident memory in the window
  std::uint64_t events = 0;
  neutral::PhaseProfiler::Report phases;
  neutral::OverEventsKernelTimes kernels;
  Op last;                 ///< the last solve of the first copy
};

SimulationConfig make_config(const neutral::ProblemDeck& deck,
                             const Config& c, bool profile) {
  SimulationConfig cfg;
  cfg.deck = deck;
  cfg.scheme = c.scheme;
  cfg.threads = c.threads;
  cfg.profile = profile;
  return cfg;
}

neutral::batch::EngineOptions engine_options() {
  neutral::batch::EngineOptions options;
  options.workers = 4;
  options.threads_per_job = 1;
  return options;
}

class Runner {
 public:
  Runner(const Options& opt, const Reference& ref, Report& report,
         Tracer& tracer)
      : opt_(opt), ref_(ref), report_(report), tracer_(tracer),
        deck_(transport_deck(opt.workload)), engine_(engine_options()) {}

  /// Cold world build + first Simulation construction, kSetupRepeats
  /// times on warm cores; keeps the last world for the run.  The very first
  /// build (untimed) gives the warm-up something to run on: timed on cold
  /// vCPUs, setup_s varied threefold run to run.
  void setup() {
    world_ = neutral::build_world(deck_);
    warmup_s_ += warm(kConfigs[0], 1.0, 2.0);
    for (int i = 0; i < kSetupRepeats; ++i) {
      Tracer::Scope span(tracer_, "setup", "bench");
      const auto t0 = Clock::now();
      {
        Tracer::Scope build(tracer_, "build_world", "world");
        world_ = neutral::build_world(deck_);
      }
      const auto t1 = Clock::now();
      {
        Tracer::Scope construct(tracer_, "Simulation()", "bank");
        neutral::Simulation sim(config(kConfigs[0], false), world_);
      }
      const auto t2 = Clock::now();
      setup_s_.push_back(seconds_between(t0, t2));
      build_s_.push_back(seconds_between(t0, t1));
      source_s_.push_back(seconds_between(t1, t2));
    }
  }

  SimulationConfig config(const Config& c, bool profile) const {
    return make_config(deck_, c, profile);
  }

  /// One timed call; checks its outputs against the reference.
  Op run(const Config& c, bool traced = false) {
    Tracer::Scope span(tracer_, c.name, "bench");
    Op op;
    const SimulationConfig cfg = config(c, traced);
    const auto t0 = Clock::now();
    std::string error;
    if (c.kind == Kind::kPlain) {
      std::unique_ptr<neutral::Simulation> sim;
      {
        Tracer::Scope construct(tracer_, "Simulation()", "bank");
        sim = std::make_unique<neutral::Simulation>(cfg, world_);
      }
      Tracer::Scope solve(tracer_, "Simulation::run", "core");
      op.result = sim->run();
    } else if (c.kind == Kind::kShard) {
      neutral::batch::ShardOptions shard;
      shard.shards = 4;
      shard.threads_per_shard = 1;
      if (!traced) {
        Tracer::Scope solve(tracer_, "run_sharded", "shard");
        neutral::batch::ShardedRunReport r =
            neutral::batch::run_sharded(engine_, cfg, shard);
        error = r.ok ? "" : r.error;
        op.result = std::move(r.merged);
        op.imbalance = r.imbalance();
      } else {
        // run_sharded is engine.run + reduce_outcome_group; calling the two
        // separately times the reduction and the engine's own overhead.
        const auto e0 = Clock::now();
        neutral::batch::BatchReport batch;
        {
          Tracer::Scope dispatch(tracer_, "BatchEngine::run", "engine");
          batch = engine_.run(neutral::batch::make_shard_jobs(cfg, shard));
        }
        const auto e1 = Clock::now();
        neutral::batch::GroupReduction group;
        {
          Tracer::Scope reduce(tracer_, "reduce_outcome_group", "shard");
          group = neutral::batch::reduce_outcome_group(batch.jobs.data(),
                                                       batch.jobs.size());
        }
        op.reduce_s = seconds_since(e1);
        double longest = 0.0;
        for (const auto& job : batch.jobs) {
          longest = std::max(longest, job.seconds);
        }
        op.dispatch_s = seconds_between(e0, e1) - longest;
        op.imbalance = group.imbalance();
        error = group.ok ? "" : group.error;
        op.result = std::move(group.merged);
      }
    } else {
      neutral::batch::DomainOptions dom;
      dom.rows = 2;
      dom.cols = 2;
      dom.threads_per_domain = 1;
      Tracer::Scope solve(tracer_, "run_domains", "domain");
      neutral::batch::DomainRunReport r =
          neutral::batch::run_domains(engine_, cfg, dom);
      error = r.ok ? "" : r.error;
      op.result = std::move(r.merged);
      op.rounds = r.rounds;
      op.migrations = r.migrations;
      op.dom_peak_mesh_bytes = r.peak_mesh_bytes;
    }
    op.seconds = seconds_since(t0);
    if (!opt_.inject_metric.empty() &&
        opt_.inject_metric == std::string(c.name) + ".events_per_s") {
      busy_wait(opt_.inject_fraction * op.seconds);
      op.seconds = seconds_since(t0);
    }
    check(c, cfg, op, error);
    return op;
  }

  /// Whole solves of `c` until `seconds` of wall time, on c.copies threads
  /// side by side.
  Window window(const Config& c, bool traced, double seconds) {
    struct Copy {
      std::uint64_t events = 0;
      double busy = 0.0;
      neutral::PhaseProfiler::Report phases;
      neutral::OverEventsKernelTimes kernels;
      Op last;
      std::exception_ptr error;
    };
    const StealMeter steal;
    reset_peak_rss();
    const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(seconds));
    std::vector<Copy> copies(static_cast<std::size_t>(c.copies));
    auto work = [&](Copy& copy) {
      try {
        do {
          Op op = run(c, traced);
          copy.events += op.result.counters.total_events();
          copy.busy += op.seconds;
          copy.phases += op.result.phases;
          copy.kernels += op.result.kernel_times;
          copy.last = std::move(op);
        } while (Clock::now() < until);
      } catch (...) {
        copy.error = std::current_exception();
      }
    };
    if (copies.size() == 1) {
      work(copies[0]);
    } else {
      std::vector<std::thread> threads;
      for (Copy& copy : copies) threads.emplace_back(work, std::ref(copy));
      for (std::thread& t : threads) t.join();
    }
    Window w;
    for (Copy& copy : copies) {
      if (copy.error) std::rethrow_exception(copy.error);
      w.rate += static_cast<double>(copy.events) / copy.busy /
                static_cast<double>(copies.size());
      w.events += copy.events;
      w.phases += copy.phases;
      w.kernels += copy.kernels;
    }
    w.last = std::move(copies[0].last);
    w.steal_pct = steal.percent();
    w.peak_rss_mb = bench::peak_rss_mb();
    return w;
  }

  /// Warm `c` until three consecutive short windows agree within kSettle
  /// (and at least `min_s` has passed, at most `max_s`); returns the time
  /// spent.
  double warm(const Config& c, double min_s, double max_s) {
    const auto t0 = Clock::now();
    std::vector<double> rates;
    while (true) {
      rates.push_back(window(c, false, kWarmWindowSeconds).rate);
      const double elapsed = seconds_since(t0);
      if (elapsed > max_s) break;
      if (rates.size() >= 3 && elapsed >= min_s) {
        const std::vector<double> last(rates.end() - 3, rates.end());
        const auto [lo, hi] = std::minmax_element(last.begin(), last.end());
        if ((*hi - *lo) / median(last) < kSettle) break;
      }
    }
    return seconds_since(t0);
  }

  struct Sample {
    double rate = 0.0;
    double steal_pct = 0.0;
    double peak_rss_mb = 0.0;
  };

  /// Samples of `name` taken under at most kMaxStealPct host steal; when
  /// fewer than kMinSamples qualify, the kMinSamples least-stolen.
  std::vector<double> usable(const std::string& name) const {
    std::vector<Sample> v = samples_.at(name);
    std::stable_sort(v.begin(), v.end(), [](const Sample& a, const Sample& b) {
      return a.steal_pct < b.steal_pct;
    });
    std::vector<double> rates;
    for (const Sample& s : v) {
      if (s.steal_pct <= kMaxStealPct ||
          rates.size() < static_cast<std::size_t>(kMinSamples)) {
        rates.push_back(s.rate);
      }
    }
    return rates;
  }

  [[nodiscard]] bool settled() const {
    for (const Config& c : kConfigs) {
      const auto it = samples_.find(c.name);
      if (it == samples_.end()) return false;
      const auto clean =
          std::count_if(it->second.begin(), it->second.end(),
                        [](const Sample& s) { return s.steal_pct <= kMaxStealPct; });
      if (clean < kMinSamples) return false;
    }
    return true;
  }

  /// Round-robin sampling of every config, in a seeded order each round,
  /// for at least `budget_s`; continues up to `budget_s * kExtend` until
  /// every config has kMinSamples samples under kMaxStealPct.
  void untraced(double budget_s) {
    std::mt19937_64 rng(opt_.seed);
    setup();
    for (const Config& c : kConfigs) {
      warmup_s_ += warm(c, 0.3, kWarmMaxSeconds);
    }
    std::vector<const Config*> order;
    for (const Config& c : kConfigs) order.push_back(&c);
    const auto t0 = Clock::now();
    for (int round = 0;; ++round) {
      const double elapsed = seconds_since(t0);
      if (round >= kMinSamples && elapsed >= budget_s &&
          (settled() || elapsed >= kExtend * budget_s)) {
        break;
      }
      std::shuffle(order.begin(), order.end(), rng);
      for (const Config* c : order) {
        const Window w = window(*c, false, kWindowSeconds);
        std::fprintf(stderr, "sample %-7s %.6g events/s steal %.1f%%\n",
                     c->name, w.rate, w.steal_pct);
        samples_[c->name].push_back(
            Sample{w.rate, w.steal_pct, w.peak_rss_mb});
      }
    }
    std::string kept = "samples kept/taken:";
    for (const Config& c : kConfigs) {
      const std::vector<double> v = usable(c.name);
      report_.metric(std::string(c.name) + ".events_per_s", "1/s", median(v),
                     v.size());
      char field[64];
      std::snprintf(field, sizeof(field), " %s=%zu/%zu", c.name, v.size(),
                    samples_.at(c.name).size());
      kept += field;
    }
    report_.note(kept);
  }

  /// Peak resident memory of the heaviest config: per config the median of
  /// its windows' peaks, which is steadier than the process-lifetime peak.
  /// That one depends on how the transient copies of concurrent shard
  /// tallies happen to overlap, and ranged over 116-173 MB on csp.
  [[nodiscard]] double heaviest_peak_rss_mb() const {
    double peak = 0.0;
    for (const auto& [name, samples] : samples_) {
      std::vector<double> v;
      for (const Sample& s : samples) v.push_back(s.peak_rss_mb);
      peak = std::max(peak, median(v));
    }
    return peak;
  }

  void traced(double seconds);

  [[nodiscard]] double warmup_s() const { return warmup_s_; }
  [[nodiscard]] const std::vector<double>& setup_s() const { return setup_s_; }

 private:
  void check(const Config& c, const SimulationConfig& cfg, const Op& op,
             const std::string& error) {
    const std::string what = opt_.workload + "/" + c.name;
    if (!error.empty()) {
      const std::lock_guard<std::mutex> lock(report_mutex_);
      report_.check(false, what + ": " + error);
      return;
    }
    const std::string p = opt_.workload + "." + c.ref + ".";
    neutral::ExpectedResults expected;
    expected.problem = deck_.name;
    expected.particles = deck_.n_particles;
    expected.timesteps = deck_.n_timesteps;
    expected.seed = deck_.seed;
    expected.tally_total = ref_double(ref_, p + "tally_total");
    expected.tally_checksum = ref_double(ref_, p + "tally_checksum");
    expected.facets = ref_u64(ref_, p + "facets");
    expected.collisions = ref_u64(ref_, p + "collisions");
    expected.censuses = ref_u64(ref_, p + "censuses");
    const neutral::ResultsCheck rc =
        neutral::verify_results(expected, cfg, op.result, 1e-9);
    std::string detail = rc.detail;
    const auto& n = op.result.counters;
    auto exact = [&](const char* key, std::uint64_t got) {
      if (got != ref_u64(ref_, p + key)) {
        detail += std::string(detail.empty() ? "" : "; ") + key + " " +
                  std::to_string(got) + " != reference";
      }
    };
    exact("xs_lookups", n.xs_lookups);
    exact("rng_draws", n.rng_draws);
    exact("tally_flushes", n.tally_flushes);
    exact("population", static_cast<std::uint64_t>(op.result.population));
    if (c.scheme == Scheme::kOverEvents) {
      exact("iterations",
            static_cast<std::uint64_t>(op.result.kernel_times.iterations));
    }
    if (c.kind == Kind::kDomain) {
      exact("rounds", static_cast<std::uint64_t>(op.rounds));
      exact("migrations", static_cast<std::uint64_t>(op.migrations));
    }
    if (!op.result.budget.conserved()) detail += "; energy not conserved";
    const std::lock_guard<std::mutex> lock(report_mutex_);
    report_.check(detail.empty(), what + ": " + detail);
  }

  const Options& opt_;
  const Reference& ref_;
  Report& report_;
  std::mutex report_mutex_;  ///< copies check their solves concurrently
  Tracer& tracer_;
  neutral::ProblemDeck deck_;
  std::shared_ptr<const neutral::World> world_;
  neutral::batch::BatchEngine engine_;
  std::map<std::string, std::vector<Sample>> samples_;
  std::vector<double> setup_s_, build_s_, source_s_;
  double warmup_s_ = 0.0;
};

/// Per-event nanoseconds of the five §VI-A phases.
struct PhaseNs {
  double search = 0, collision = 0, facet = 0, tally = 0, census = 0;
};

void emit_phases(Report& report, const std::string& prefix,
                 const PhaseNs& ns, std::size_t samples) {
  report.metric(prefix + ".search_ns", "ns", ns.search, samples);
  report.metric(prefix + ".collision_ns", "ns", ns.collision, samples);
  report.metric(prefix + ".facet_ns", "ns", ns.facet, samples);
  report.metric(prefix + ".tally_ns", "ns", ns.tally, samples);
  report.metric(prefix + ".census_ns", "ns", ns.census, samples);
}

void Runner::traced(double seconds) {
  setup();
  const double per_config = seconds / 8.0;
  const double ghz = neutral::PhaseProfiler::tsc_ghz();

  // Plain solves: alternate untraced and traced windows so the tracing
  // overhead is measured under the same host state.  Traced = the phase
  // probes (SimulationConfig::profile) on Over Particles; Over Events
  // always records kernel_times.
  std::map<std::string, double> untraced_rate;
  std::map<std::string, double> traced_rate;
  std::map<std::string, Op> last;
  for (const char* name : {"op4", "oe4", "op1", "oe1"}) {
    const Config& c = config_named(name);
    warmup_s_ += warm(c, 0.3, kWarmMaxSeconds);
    std::vector<double> plain, probed;
    Window total;
    const auto t0 = Clock::now();
    while (plain.size() < 2 || seconds_since(t0) < per_config) {
      plain.push_back(window(c, false, kWindowSeconds).rate);
      Window w = window(c, true, kWindowSeconds);
      probed.push_back(w.rate);
      total.events += w.events;
      total.phases += w.phases;
      total.kernels += w.kernels;
      last[name] = std::move(w.last);
    }
    untraced_rate[name] = median(plain);
    traced_rate[name] = median(probed);
    const double e = static_cast<double>(total.events);
    PhaseNs ns;
    if (c.scheme == Scheme::kOverParticles) {
      auto at = [&](neutral::Phase ph) {
        return static_cast<double>(total.phases.cycles[static_cast<int>(ph)]) /
               ghz / e;
      };
      ns = {at(neutral::Phase::kEventSearch), at(neutral::Phase::kCollision),
            at(neutral::Phase::kFacet), at(neutral::Phase::kTally),
            at(neutral::Phase::kCensus)};
    } else {
      const auto& k = total.kernels;
      ns = {k.event_search * 1e9 / e, k.collisions * 1e9 / e,
            k.facets * 1e9 / e, k.tally * 1e9 / e, k.census * 1e9 / e};
    }
    emit_phases(report_, name, ns, probed.size());
  }
  const Op& counters_op = last["op4"];
  report_.metric(
      "oe.iterations", "count",
      static_cast<double>(last["oe4"].result.kernel_times.iterations), 1);
  const auto& n = counters_op.result.counters;
  const double events = static_cast<double>(n.total_events());
  report_.metric("core.events", "count", events, 1);
  report_.metric("core.facets_per_event", "1/event",
                 static_cast<double>(n.facets) / events, 1);
  report_.metric("core.collisions_per_event", "1/event",
                 static_cast<double>(n.collisions) / events, 1);
  report_.metric("xs.lookups_per_event", "1/event",
                 static_cast<double>(n.xs_lookups) / events, 1);
  report_.metric("rng.draws_per_event", "1/event",
                 static_cast<double>(n.rng_draws) / events, 1);
  report_.metric("tally.flushes_per_event", "1/event",
                 static_cast<double>(n.tally_flushes) / events, 1);
  report_.metric("tally.bytes", "B",
                 static_cast<double>(counters_op.result.tally_footprint_bytes),
                 1);
  report_.metric("world.build_s", "s", median(build_s_), build_s_.size());
  report_.metric("world.bytes", "B",
                 static_cast<double>(world_->footprint_bytes()), 1);
  report_.metric("bank.source_s", "s", median(source_s_), source_s_.size());
  report_.metric("bank.peak_bytes", "B",
                 static_cast<double>(counters_op.result.peak_bank_bytes), 1);
  report_.metric("mesh.peak_bytes", "B",
                 static_cast<double>(counters_op.result.peak_mesh_bytes), 1);
  // A 4-thread team against kCopies single-thread solves on the same
  // loaded node: what the team loses to atomics, imbalance and sharing.
  report_.metric("op.scaling_eff", "ratio",
                 untraced_rate["op4"] / (kCopies * untraced_rate["op1"]), 1);
  report_.metric("oe.scaling_eff", "ratio",
                 untraced_rate["oe4"] / (kCopies * untraced_rate["oe1"]), 1);
  report_.metric("trace.op4_overhead_pct", "%",
                 100.0 * (untraced_rate["op4"] / traced_rate["op4"] - 1.0), 2);

  // Fork-join runners.
  const Config& shard = config_named("shard4");
  warmup_s_ += warm(shard, 0.3, kWarmMaxSeconds);
  std::vector<double> imbalance, reduce_s, dispatch_s;
  for (auto t0 = Clock::now();
       imbalance.size() < 3 || seconds_since(t0) < per_config;) {
    const Op op = run(shard, true);
    imbalance.push_back(op.imbalance);
    reduce_s.push_back(op.reduce_s);
    dispatch_s.push_back(op.dispatch_s);
  }
  report_.metric("shard.imbalance", "ratio", median(imbalance),
                 imbalance.size());
  report_.metric("shard.reduce_s", "s", median(reduce_s), reduce_s.size());
  report_.metric("engine.dispatch_s", "s", median(dispatch_s),
                 dispatch_s.size());

  const Config& domains = config_named("dom2x2");
  warmup_s_ += warm(domains, 0.3, kWarmMaxSeconds);
  std::vector<double> round_ms;
  Op dom;
  for (auto t0 = Clock::now();
       round_ms.size() < 3 || seconds_since(t0) < per_config;) {
    dom = run(domains, true);
    round_ms.push_back(1e3 * dom.seconds / dom.rounds);
  }
  report_.metric("dom.rounds", "count", dom.rounds, 1);
  report_.metric("dom.migrations", "count",
                 static_cast<double>(dom.migrations), 1);
  report_.metric("dom.round_ms", "ms", median(round_ms), round_ms.size());
  report_.metric("dom.peak_mesh_bytes", "B",
                 static_cast<double>(dom.dom_peak_mesh_bytes), 1);
}

}  // namespace

PhaseResult run_transport(const Options& opt, double seconds,
                          const Reference& ref, Report& report) {
  Tracer tracer(opt.trace);
  Runner runner(opt, ref, report, tracer);
  if (opt.trace) {
    runner.traced(seconds);
    const std::string path = opt.out_dir + "/" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".spans.jsonl";
    tracer.write(path);
    report.note("spans: " + path);
  } else {
    runner.untraced(seconds);
  }
  PhaseResult phase;
  phase.setup_s = median(runner.setup_s());
  phase.setup_samples = runner.setup_s().size();
  phase.warmup_s = runner.warmup_s();
  if (!opt.trace) phase.peak_rss_mb = runner.heaviest_peak_rss_mb();
  return phase;
}

void record_transport_reference(const std::string& workload, Reference& ref) {
  // Record each reference family from one run of its 4-way config; the
  // counters do not depend on the thread count.
  const neutral::ProblemDeck deck = transport_deck(workload);
  const auto world = neutral::build_world(deck);
  neutral::batch::BatchEngine engine(engine_options());
  for (const Config& c : kConfigs) {
    if (c.threads != 4 && c.kind == Kind::kPlain) continue;
    const SimulationConfig cfg = make_config(deck, c, false);
    RunResult r;
    std::int32_t rounds = 0;
    std::int64_t migrations = 0;
    if (c.kind == Kind::kPlain) {
      r = neutral::Simulation(cfg, world).run();
    } else if (c.kind == Kind::kShard) {
      neutral::batch::ShardOptions shard;
      shard.shards = 4;
      shard.threads_per_shard = 1;
      auto rep = neutral::batch::run_sharded(engine, cfg, shard);
      NEUTRAL_REQUIRE(rep.ok, rep.error);
      r = std::move(rep.merged);
    } else {
      neutral::batch::DomainOptions dom;
      dom.rows = 2;
      dom.cols = 2;
      auto rep = neutral::batch::run_domains(engine, cfg, dom);
      NEUTRAL_REQUIRE(rep.ok, rep.error);
      r = std::move(rep.merged);
      rounds = rep.rounds;
      migrations = rep.migrations;
    }
    NEUTRAL_REQUIRE(r.budget.conserved(), "reference run not conserved");
    const std::string p = workload + "." + c.ref + ".";
    const auto& n = r.counters;
    ref[p + "tally_total"] = format_double(r.budget.tally_total);
    ref[p + "tally_checksum"] = format_double(r.tally_checksum);
    ref[p + "facets"] = std::to_string(n.facets);
    ref[p + "collisions"] = std::to_string(n.collisions);
    ref[p + "censuses"] = std::to_string(n.censuses);
    ref[p + "xs_lookups"] = std::to_string(n.xs_lookups);
    ref[p + "rng_draws"] = std::to_string(n.rng_draws);
    ref[p + "tally_flushes"] = std::to_string(n.tally_flushes);
    ref[p + "population"] = std::to_string(r.population);
    if (c.scheme == Scheme::kOverEvents) {
      ref[p + "iterations"] = std::to_string(r.kernel_times.iterations);
    }
    if (c.kind == Kind::kDomain) {
      ref[p + "rounds"] = std::to_string(rounds);
      ref[p + "migrations"] = std::to_string(migrations);
    }
  }
}

}  // namespace bench
