// neutral_bench — the repository benchmark.  See benchmark/README.md.
//
//   neutral_bench --workload csp|scatter --seed N --seconds S
//                 --trace 0|1 [--reference benchmark/reference.txt]
//                 [--golden-dir tests/golden] [--out-dir .bench_build/out]
//                 [--inject METRIC:FRACTION]
//   neutral_bench --record-reference benchmark/reference.txt
//
// A run measures the workload's deck through the transport layers for
// kTransportShare of S seconds, then neutrald's serving stack on the golden
// decks for the rest.  It prints one row per metric (name, value, unit,
// sample count) and, as the last line,
// {"correct","attempted","failed","metrics"}.  --trace 0 gives every
// end-to-end metric; --trace 1 every per-layer one.
// Exit status: 0 when a result was printed, 2 on a usage or set-up error.
#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "util/error.h"

namespace {

/// Share of a run's seconds that samples transport; serving gets the rest.
constexpr double kTransportShare = 0.45;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "neutral_bench: %s (see benchmark/README.md)\n",
               why.c_str());
  std::exit(2);
}

void make_dirs(const std::string& path) {
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      ::mkdir(path.substr(0, i).c_str(), 0755);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's dynamic one, under which a
  // freed 8 MB tally raises the threshold and later tallies are carved from
  // (and retained by) whichever thread's arena allocated them: peak RSS
  // then varied by 20% run to run with allocator history.  Fixed, every
  // large array is a fresh mapping returned on free, as in a one-solve
  // process, and peak_rss_mb tracks the program's live peak.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  bench::Options opt;
  std::string record_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--reference") {
        opt.reference_path = value;
      } else if (flag == "--golden-dir") {
        opt.golden_dir = value;
      } else if (flag == "--out-dir") {
        opt.out_dir = value;
      } else if (flag == "--inject") {
        const std::size_t colon = value.find(':');
        if (colon == std::string::npos) usage("--inject wants METRIC:FRACTION");
        opt.inject_metric = value.substr(0, colon);
        opt.inject_fraction = std::stod(value.substr(colon + 1));
      } else if (flag == "--record-reference") {
        record_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }

  try {
    if (!record_path.empty()) {
      bench::Reference ref;
      bench::record_transport_reference("csp", ref);
      bench::record_transport_reference("scatter", ref);
      bench::record_serve_reference(opt, ref);
      bench::save_reference(ref, record_path);
      std::printf("wrote %zu reference entries to %s\n", ref.size(),
                  record_path.c_str());
      return 0;
    }
    if (opt.workload != "csp" && opt.workload != "scatter") {
      usage("--workload must be csp or scatter");
    }
    if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
    make_dirs(opt.out_dir);
    const bench::Reference ref = bench::load_reference(opt.reference_path);
    bench::Report report;
    report.note(bench::host_line());
    const bench::StealMeter steal;
    const bench::PhaseResult transport = bench::run_transport(
        opt, kTransportShare * opt.seconds, ref, report);
    const bench::PhaseResult serve = bench::run_serve(
        opt, (1.0 - kTransportShare) * opt.seconds, ref, report);
    const double steal_pct = steal.percent();
    const double warmup_s = transport.warmup_s + serve.warmup_s;
    if (opt.trace) {
      report.metric("host.warmup_s", "s", warmup_s, 1);
      report.metric("host.steal_pct", "%", steal_pct, 1);
      // Failed and refused operations are the result line's `failed` (a
      // refusal fails its operation); this is how many were checked.
      report.metric("ops.checked", "count",
                    static_cast<double>(report.attempted()), 1);
    } else {
      // Set-up of both phases: a cold world build plus the first Simulation
      // of the workload's deck, and a cold daemon answering its first ping
      // and building the golden worlds.
      report.metric("setup_s", "s", transport.setup_s + serve.setup_s,
                    std::min(transport.setup_samples, serve.setup_samples));
      report.metric("peak_rss_mb", "MB",
                    std::max(transport.peak_rss_mb, serve.peak_rss_mb), 1);
    }
    if (serve.refused > 0) {
      report.note("refused submissions: " + std::to_string(serve.refused));
    }
    char line[128];
    std::snprintf(line, sizeof(line), "run: warmup_s=%.3f steal_pct=%.2f",
                  warmup_s, steal_pct);
    report.note(line);
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "neutral_bench: %s\n", e.what());
    return 2;
  }
  return 0;
}
