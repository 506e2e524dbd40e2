// The serving phase of every workload: neutrald's serving stack, driven
// over loopback.  It is the same traffic in every workload (the golden
// decks, not the workload's own), so that every run reports the serving
// metrics alongside its transport ones.
//
// An in-process NeutralServer (the daemon's whole serving core: event
// loop, frames, submission queue, executor, batch engine and world cache)
// is fed the three tests/golden decks, 5-19 ms jobs at one thread, so the
// network, frame, queue, dispatch and cache layers do the work and the
// kernels do little.  A fixed share of the traffic, in a seeded order, uses
// the same layers differently:
//   * 10% fresh-geometry decks (one of kVariants region placements) whose
//     worlds overflow the cache's byte budget, so they build and evict;
//   * 10% 4-shard submissions that fan out through the engine.
//
// Served jobs are pinned to one OpenMP thread (EngineOptions::
// threads_per_job = 1): at the daemon default of 4 threads per tiny job,
// the per-submission team spawn made 4-client throughput wander by 25%.
// The daemon-default spawn is therefore not measured here (README.md).
//
// Three timed phases:
//   1. closed loop, 1 client: submit -> wait latency of >= kMinGolden
//      golden-deck submissions, the other traffic interleaved;
//   2. closed loop, 4 clients on 4 connections: completed submissions/s;
//   3. open loop, seeded Poisson arrivals at kOpenLoopRate over 4
//      connections, each latency timed from when the request was due.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/world_cache.h"
#include "bench.h"
#include "core/world.h"
#include "io/deck_io.h"
#include "io/results_io.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/json.h"
#include "util/error.h"

namespace bench {
namespace {

using neutral::net::NeutralClient;
using neutral::net::RemoteResult;
using neutral::net::SubmitRequest;

constexpr const char* kGoldenNames[] = {"golden_csp", "golden_scatter",
                                        "golden_stream"};
constexpr int kVariants = 8;
constexpr std::size_t kMinGolden = 160;
constexpr double kOpenLoopRate = 20.0;  ///< req/s, about a third of req_per_s
constexpr int kConnections = 4;
constexpr int kSetupRepeats = 5;
constexpr double kThinkMs = 4.0;
/// Cache budget in worlds: the 3 golden worlds plus one fresh geometry,
/// so every fresh-geometry build evicts.
constexpr double kCacheWorlds = 4.5;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  NEUTRAL_REQUIRE(in.good(), "cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A deck the traffic sends, with the result the daemon must return.
struct Deck {
  std::string name;
  std::string text;
  double checksum = 0.0;
  std::uint64_t events = 0;
};

enum class Kind { kGolden, kVariant, kShard };

struct Request {
  Kind kind = Kind::kGolden;
  int index = 0;
};

/// The request stream: blocks of kBlock requests with exact shares — 80%
/// golden decks (8 of each), 10% fresh geometry (a seeded pick of the
/// variants), 10% 4-shard golden decks (one of each) — in a seeded order.
/// Exact shares per block keep throughput and tail latency from moving
/// with the luck of an i.i.d. mix.
class Traffic {
 public:
  explicit Traffic(std::uint64_t seed) : rng_(seed) {}

  Request next() {
    if (block_.empty()) refill();
    const Request r = block_.back();
    block_.pop_back();
    return r;
  }

  /// Closed-loop think time, uniform in [0, kThinkMs).  Without it each
  /// request starts in lock step with the 4 ms kernel timer tick that
  /// releases the previous reply, and latencies snap to a few tick
  /// multiples (48, 56, 64 ms ...) whose quantiles jump between runs.
  std::chrono::microseconds think() {
    return std::chrono::microseconds(
        static_cast<std::int64_t>(uniform_(rng_) * kThinkMs * 1000.0));
  }

 private:
  static constexpr int kBlock = 30;

  void refill() {
    for (int g = 0; g < 3; ++g) {
      for (int i = 0; i < 8; ++i) block_.push_back({Kind::kGolden, g});
      block_.push_back({Kind::kShard, g});
      block_.push_back(
          {Kind::kVariant, static_cast<int>(uniform_(rng_) * kVariants) %
                               kVariants});
    }
    std::shuffle(block_.begin(), block_.end(), rng_);
  }

  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
  std::vector<Request> block_;
};

/// Fresh geometry k: golden_csp with its dense square moved off the
/// golden position (y 15..35 instead of 40..60), so no variant shares a
/// world fingerprint with a golden deck or another variant.
neutral::ProblemDeck variant_deck(const std::string& golden_csp_text, int k) {
  neutral::ProblemDeck deck = neutral::parse_deck(golden_csp_text);
  deck.name = "variant" + std::to_string(k);
  NEUTRAL_REQUIRE(!deck.regions.empty(), "golden_csp lost its region");
  deck.regions[0].x0 = 10.0 + 8.0 * k;
  deck.regions[0].x1 = deck.regions[0].x0 + 20.0;
  deck.regions[0].y0 = 15.0;
  deck.regions[0].y1 = 35.0;
  return deck;
}

/// One server on an ephemeral loopback port and its serve() thread; drained
/// and joined on destruction.
class ServerHandle {
 public:
  explicit ServerHandle(neutral::net::ServerOptions options)
      : server_(std::make_unique<neutral::net::NeutralServer>(
            std::move(options))) {
    port_ = server_->start();
    thread_ = std::thread([this] { server_->serve(); });
  }
  ~ServerHandle() {
    server_->request_shutdown();
    thread_.join();
  }
  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;

  [[nodiscard]] NeutralClient connect() const {
    return NeutralClient("127.0.0.1", port_);
  }

 private:
  std::unique_ptr<neutral::net::NeutralServer> server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// What one request returned, for the split.
struct Timing {
  Request request;
  std::uint64_t id = 0;
  std::string label;
  Clock::time_point start{}, submitted{}, done{};
  double job_s = 0.0;  ///< row seconds: engine wall incl. world acquisition
  bool ok = false;
};

class Serve {
 public:
  Serve(const Options& opt, const Reference& ref, Report& report)
      : opt_(opt), ref_(ref), report_(report), tracer_(opt.trace) {
    for (const char* name : kGoldenNames) {
      const std::string base = opt.golden_dir + "/" + name;
      const neutral::ExpectedResults e =
          neutral::load_results(base + ".results");
      golden_.push_back(Deck{name, read_file(base + ".params"),
                             e.tally_checksum,
                             e.facets + e.collisions + e.censuses});
      shard_.push_back(Deck{name, golden_.back().text,
                            ref_double(ref_, "serve." + std::string(name) +
                                                 ".shard4.checksum"),
                            ref_u64(ref_, "serve." + std::string(name) +
                                              ".shard4.events")});
    }
    for (int k = 0; k < kVariants; ++k) {
      const std::string key = "serve.variant" + std::to_string(k);
      variant_.push_back(
          Deck{"variant" + std::to_string(k),
               neutral::format_deck(variant_deck(golden_[0].text, k)),
               ref_double(ref_, key + ".checksum"),
               ref_u64(ref_, key + ".events")});
    }
    const auto world = neutral::build_world(neutral::parse_deck(golden_[0].text));
    cache_bytes_ = static_cast<std::uint64_t>(
        kCacheWorlds * static_cast<double>(world->footprint_bytes()));
  }

  neutral::net::ServerOptions server_options(bool daemon_trace) const {
    neutral::net::ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    options.engine.threads_per_job = 1;
    options.engine.cache.max_bytes = cache_bytes_;
    if (daemon_trace) options.trace_path = daemon_trace_path();
    return options;
  }

  std::string daemon_trace_path() const {
    return opt_.out_dir + "/" + opt_.workload + "-" +
           std::to_string(opt_.seed) + ".daemon.jsonl";
  }

  const Deck& deck(const Request& r) const {
    switch (r.kind) {
      case Kind::kVariant: return variant_[static_cast<std::size_t>(r.index)];
      case Kind::kShard: return shard_[static_cast<std::size_t>(r.index)];
      case Kind::kGolden: break;
    }
    return golden_[static_cast<std::size_t>(r.index)];
  }

  /// Submit, wait and check one request; a refusal or failed check counts
  /// as a failed operation.
  Timing request(NeutralClient& client, const Request& r) {
    Timing t;
    t.request = r;
    const Deck& d = deck(r);
    SubmitRequest req;
    req.deck_text = d.text;
    req.threads = 1;
    if (r.kind == Kind::kShard) req.shards = 4;
    t.label = "r" + std::to_string(next_label_.fetch_add(1));
    req.label = t.label;
    std::string why;
    t.start = Clock::now();
    try {
      t.id = client.submit(req);
      t.submitted = Clock::now();
      const RemoteResult res = client.wait(t.id);
      t.done = Clock::now();
      if (!res.ok() || res.rows.size() != 1) {
        why = "status " + res.status + " " + res.error;
      } else {
        const auto& row = res.rows.front();
        t.job_s = row.seconds;
        if (row.checksum != d.checksum) {
          why = "checksum " + format_double(row.checksum) + " != " +
                format_double(d.checksum);
        } else if (row.events != d.events) {
          why = "events " + std::to_string(row.events) +
                " != " + std::to_string(d.events);
        }
      }
    } catch (const std::exception& e) {
      t.done = Clock::now();
      why = e.what();
      if (why.find("refused:") != std::string::npos) refused_.fetch_add(1);
    }
    t.ok = why.empty();
    {
      std::lock_guard<std::mutex> lock(report_mutex_);
      report_.check(t.ok, "serve/" + d.name + ": " + why);
    }
    return t;
  }

  /// Connect from a load-generator thread; a failure is a failed operation
  /// instead of an exception escaping the thread.
  std::optional<NeutralClient> connect(const ServerHandle& server) {
    try {
      return server.connect();
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(report_mutex_);
      report_.check(false, std::string("serve/connect: ") + e.what());
      return std::nullopt;
    }
  }

  double latency_ms(const Timing& t) const {
    return 1e3 * seconds_between(t.start, t.done);
  }

  /// Cold daemon: start to first answered ping, plus the first (building)
  /// submission of each golden deck.
  void setup() {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const auto t0 = Clock::now();
      ServerHandle server(server_options(false));
      NeutralClient client = server.connect();
      client.ping();
      for (int g = 0; g < 3; ++g) request(client, {Kind::kGolden, g});
      setup_s_.push_back(seconds_since(t0));
    }
  }

  /// Rounds of one request per golden deck until three consecutive round
  /// times agree within 10% (at least 1 s).
  void warm(NeutralClient& client) {
    const auto t0 = Clock::now();
    std::vector<double> rounds;
    while (seconds_since(t0) < 4.0) {
      const auto r0 = Clock::now();
      for (int g = 0; g < 3; ++g) request(client, {Kind::kGolden, g});
      rounds.push_back(seconds_since(r0));
      if (rounds.size() >= 3 && seconds_since(t0) >= 1.0) {
        const std::vector<double> last(rounds.end() - 3, rounds.end());
        const auto [lo, hi] = std::minmax_element(last.begin(), last.end());
        if ((*hi - *lo) / median(last) < 0.10) break;
      }
    }
    warmup_s_ += seconds_since(t0);
  }

  /// Phase 1: one closed-loop client.
  std::vector<Timing> closed_loop_one(NeutralClient& client, double budget_s,
                                      std::size_t min_golden,
                                      std::uint64_t salt) {
    Traffic traffic(opt_.seed * 1000003u + salt);
    std::vector<Timing> out;
    std::size_t golden = 0;
    const auto t0 = Clock::now();
    while (golden < min_golden || seconds_since(t0) < budget_s) {
      std::this_thread::sleep_for(traffic.think());
      out.push_back(request(client, traffic.next()));
      golden += out.back().request.kind == Kind::kGolden;
    }
    return out;
  }

  /// Phase 2: kConnections closed-loop clients; completed requests/s.
  double closed_loop_many(ServerHandle& server, double budget_s) {
    std::atomic<std::uint64_t> completed{0};
    const auto t0 = Clock::now();
    const auto until = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(budget_s));
    std::vector<std::thread> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        std::optional<NeutralClient> client = connect(server);
        if (!client) return;
        Traffic traffic(opt_.seed * 1000003u + 100 + c);
        while (Clock::now() < until) {
          if (request(*client, traffic.next()).ok) completed.fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    return static_cast<double>(completed.load()) / seconds_since(t0);
  }

  /// Phase 3: open loop.  Returns (latencies from due time, lateness) ms.
  std::pair<std::vector<double>, std::vector<double>> open_loop(
      ServerHandle& server, double budget_s) {
    std::mt19937_64 rng(opt_.seed * 1000003u + 200);
    std::exponential_distribution<double> gap(kOpenLoopRate);
    std::vector<double> due;
    for (double t = gap(rng); t < budget_s; t += gap(rng)) due.push_back(t);
    std::vector<Request> mix;
    Traffic traffic(opt_.seed * 1000003u + 300);
    for (std::size_t i = 0; i < due.size(); ++i) mix.push_back(traffic.next());

    std::vector<double> latency(due.size(), 0.0);
    std::vector<double> late(due.size(), 0.0);
    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> senders;
    for (int c = 0; c < kConnections; ++c) {
      senders.emplace_back([&] {
        std::optional<NeutralClient> client = connect(server);
        if (!client) return;
        for (std::size_t k = next.fetch_add(1); k < due.size();
             k = next.fetch_add(1)) {
          const auto due_at =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[k]));
          std::this_thread::sleep_until(due_at);
          const Timing t = request(*client, mix[k]);
          late[k] = 1e3 * seconds_between(due_at, t.start);
          latency[k] = 1e3 * seconds_between(due_at, t.done);
        }
      });
    }
    for (std::thread& t : senders) t.join();
    return {latency, late};
  }

  void untraced(double seconds) {
    setup();
    ServerHandle server(server_options(false));
    NeutralClient client = server.connect();
    warm(client);

    std::vector<double> lat;
    for (const Timing& t : closed_loop_one(client, 0.3 * seconds,
                                           kMinGolden, 1)) {
      if (t.request.kind == Kind::kGolden) lat.push_back(latency_ms(t));
    }
    report_.metric("req.p50_ms", "ms", quantile(lat, 0.5), lat.size());
    report_.metric("req.p95_ms", "ms", quantile(lat, 0.95), lat.size());

    const double rate = closed_loop_many(server, 0.25 * seconds);
    report_.metric("req_per_s", "1/s", rate, 1);

    const auto [load, late] = open_loop(server, 0.5 * seconds);
    report_.metric("load.p95_ms", "ms", quantile(load, 0.95), load.size());
  }

  void traced(double seconds);

  [[nodiscard]] double warmup_s() const { return warmup_s_; }
  [[nodiscard]] std::uint64_t refused() const { return refused_.load(); }
  [[nodiscard]] const std::vector<double>& setup_s() const { return setup_s_; }

 private:
  /// Engine queue wait per submission label, from the daemon's own trace.
  std::map<std::string, double> daemon_queue_waits() const {
    std::map<std::string, double> waits;
    std::ifstream in(daemon_trace_path());
    std::string line;
    while (std::getline(in, line)) {
      const neutral::obs::JsonValue v = neutral::obs::parse_json(line);
      const auto* event = v.find("event");
      const auto* label = v.find("label");
      const auto* wait = v.find("queue_wait_s");
      if (event && label && wait && event->string == "completed") {
        waits[label->string] = wait->number;
      }
    }
    return waits;
  }

  const Options& opt_;
  const Reference& ref_;
  Report& report_;
  std::mutex report_mutex_;
  Tracer tracer_;
  std::vector<Deck> golden_, shard_, variant_;
  std::uint64_t cache_bytes_ = 0;
  std::atomic<std::uint64_t> next_label_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::vector<double> setup_s_;
  double warmup_s_ = 0.0;
};

/// Median wall time of `fn` per call, over `reps` batches of `batch` calls.
template <class Fn>
double per_call_s(Fn&& fn, int reps, int batch) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i) fn();
    v.push_back(seconds_since(t0) / batch);
  }
  return median(v);
}

double field(const neutral::net::Fields& f, const std::string& key) {
  const auto it = f.find(key);
  return it == f.end() ? 0.0 : std::stod(it->second);
}

void Serve::traced(double seconds) {
  setup();

  // Untraced reference latency for the tracing overhead.
  std::vector<double> plain_golden;
  {
    ServerHandle server(server_options(false));
    NeutralClient client = server.connect();
    warm(client);
    for (const Timing& t : closed_loop_one(client, 0.15 * seconds, 60, 1)) {
      if (t.request.kind == Kind::kGolden) plain_golden.push_back(latency_ms(t));
    }
  }

  ServerHandle server(server_options(true));
  NeutralClient client = server.connect();
  warm(client);

  // Calls into the frame, deck and cache layers, timed from outside.
  const double ping_s = per_call_s([&] { client.ping(); }, 30, 1);
  const neutral::net::Fields frame{{"op", "submit"},
                                   {"deck", golden_[0].text},
                                   {"threads", "1"},
                                   {"label", "r0"}};
  const std::string line = neutral::net::encode_frame(frame);
  const double encode_s = per_call_s(
      [&] { (void)neutral::net::encode_frame(frame); }, 50, 20);
  const double decode_s = per_call_s(
      [&] { (void)neutral::net::decode_frame(line); }, 50, 20);
  const double parse_s = per_call_s(
      [&] { (void)neutral::parse_deck(golden_[0].text); }, 50, 20);
  std::vector<double> miss_s;
  std::vector<double> hit_s;
  for (const Deck& d : golden_) {
    const neutral::ProblemDeck deck = neutral::parse_deck(d.text);
    neutral::batch::WorldCache cache;
    const auto t0 = Clock::now();
    (void)cache.acquire(deck);
    miss_s.push_back(seconds_since(t0));
    hit_s.push_back(per_call_s([&] { (void)cache.acquire(deck); }, 20, 20));
  }

  // Phase 1 under the daemon's trace and benchmark-side spans.
  const neutral::net::Fields before = client.metrics();
  const auto w0 = Clock::now();
  const std::vector<Timing> timings =
      closed_loop_one(client, 0.3 * seconds, kMinGolden, 1);
  const double window_s = seconds_since(w0);
  const neutral::net::Fields after = client.metrics();

  const auto waits = daemon_queue_waits();
  std::vector<double> lat, submit_ms, queue_ms, job_ms, result_ms;
  for (const Timing& t : timings) {
    const int root = tracer_.add("request", "client", t.id, -1, t.start, t.done);
    tracer_.add("NeutralClient::submit", "net", t.id, root, t.start,
                t.submitted);
    const int wait = tracer_.add("NeutralClient::wait", "net", t.id, root,
                                 t.submitted, t.done);
    if (t.request.kind != Kind::kGolden || !t.ok) continue;
    const auto it = waits.find(t.label);
    const double q = it == waits.end() ? 0.0 : it->second;
    // The daemon reports durations, not clock readings: lay queue wait and
    // job wall end to end, ending when the wait call returned.
    const auto job_start =
        t.done - std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(t.job_s));
    const auto queue_start =
        job_start - std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(q));
    tracer_.add("engine queue", "queue", t.id, wait, queue_start, job_start);
    tracer_.add("engine job", "engine", t.id, wait, job_start, t.done);
    const double l = latency_ms(t);
    const double s = 1e3 * seconds_between(t.start, t.submitted);
    lat.push_back(l);
    submit_ms.push_back(s);
    queue_ms.push_back(1e3 * q);
    job_ms.push_back(1e3 * t.job_s);
    result_ms.push_back(l - s - 1e3 * q - 1e3 * t.job_s);
  }
  const double hits = field(after, "neutral_world_cache_hits_total") -
                      field(before, "neutral_world_cache_hits_total");
  const double misses = field(after, "neutral_world_cache_misses_total") -
                        field(before, "neutral_world_cache_misses_total");
  const double busy = field(after, "neutral_job_wall_seconds_sum") -
                      field(before, "neutral_job_wall_seconds_sum");

  const auto [load, late] = open_loop(server, 0.2 * seconds);

  const std::size_t n = lat.size();
  report_.metric("net.latency_ms", "ms", median(lat), n);
  report_.metric("net.submit_ms", "ms", median(submit_ms), n);
  report_.metric("queue.wait_ms", "ms", median(queue_ms), n);
  report_.metric("engine.job_ms", "ms", median(job_ms), n);
  report_.metric("net.result_ms", "ms", median(result_ms), n);
  report_.metric("net.ping_us", "us", 1e6 * ping_s, 30);
  report_.metric("frame.encode_us", "us", 1e6 * encode_s, 50);
  report_.metric("frame.decode_us", "us", 1e6 * decode_s, 50);
  report_.metric("deck.parse_us", "us", 1e6 * parse_s, 50);
  report_.metric("cache.hit_ratio", "ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0,
                 static_cast<std::size_t>(hits + misses));
  report_.metric("cache.hit_us", "us", 1e6 * median(hit_s), hit_s.size());
  report_.metric("cache.miss_ms", "ms", 1e3 * median(miss_s), miss_s.size());
  report_.metric("exec.busy_ratio", "ratio", busy / window_s, 1);
  report_.metric("load.late_ms", "ms", quantile(late, 0.95), late.size());
  report_.metric("trace.serve_overhead_pct", "%",
                 100.0 * (median(lat) / median(plain_golden) - 1.0),
                 plain_golden.size());

  const std::string path = opt_.out_dir + "/" + opt_.workload + "-" +
                           std::to_string(opt_.seed) + ".serve.spans.jsonl";
  tracer_.write(path);
  report_.note("spans: " + path + "  daemon trace: " + daemon_trace_path());
}

}  // namespace

PhaseResult run_serve(const Options& opt, double seconds,
                      const Reference& ref, Report& report) {
  reset_peak_rss();
  Serve serve(opt, ref, report);
  if (opt.trace) {
    serve.traced(seconds);
  } else {
    serve.untraced(seconds);
  }
  PhaseResult phase;
  phase.setup_s = median(serve.setup_s());
  phase.setup_samples = serve.setup_s().size();
  phase.warmup_s = serve.warmup_s();
  phase.refused = serve.refused();
  phase.peak_rss_mb = peak_rss_mb();
  return phase;
}

void record_serve_reference(const Options& opt, Reference& ref) {
  // The served rows the traffic checks beyond tests/golden: 4-shard golden
  // submissions and the fresh-geometry variants, as served at one thread.
  neutral::net::ServerOptions options;
  options.host = "127.0.0.1";
  options.engine.threads_per_job = 1;
  ServerHandle server(options);
  NeutralClient client = server.connect();
  auto record = [&](const std::string& key, const SubmitRequest& req) {
    const RemoteResult res = client.wait(client.submit(req));
    NEUTRAL_REQUIRE(res.ok() && res.rows.size() == 1,
                    key + ": " + res.status + " " + res.error);
    ref[key + ".checksum"] = format_double(res.rows.front().checksum);
    ref[key + ".events"] = std::to_string(res.rows.front().events);
  };
  std::string csp_text;
  for (int g = 0; g < 3; ++g) {
    SubmitRequest req;
    req.deck_text = read_file(opt.golden_dir + "/" + kGoldenNames[g] +
                              ".params");
    if (g == 0) csp_text = req.deck_text;
    req.threads = 1;
    req.shards = 4;
    record("serve." + std::string(kGoldenNames[g]) + ".shard4", req);
  }
  for (int k = 0; k < kVariants; ++k) {
    SubmitRequest req;
    req.deck_text = neutral::format_deck(variant_deck(csp_text, k));
    req.threads = 1;
    record("serve.variant" + std::to_string(k), req);
  }
}

}  // namespace bench
