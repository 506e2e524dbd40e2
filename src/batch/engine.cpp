#include "batch/engine.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "batch/queue.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/host_info.h"
#include "runtime/timer.h"
#include "util/error.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace neutral::batch {

namespace {

/// The engine-level series, resolved once per run() (registry lookups are
/// name-keyed; the hot paths only ever touch the cached pointers).
struct EngineMetrics {
  obs::Counter* jobs_ok = nullptr;
  obs::Counter* jobs_failed = nullptr;
  obs::Counter* jobs_timed_out = nullptr;
  obs::Counter* jobs_cancelled = nullptr;
  obs::Histogram* job_wall = nullptr;
  obs::Histogram* job_events_per_second = nullptr;
  obs::Counter* ev_facets = nullptr;
  obs::Counter* ev_collisions = nullptr;
  obs::Counter* ev_censuses = nullptr;
  obs::Counter* ev_rng_draws = nullptr;
  obs::Counter* ev_xs_lookups = nullptr;
  obs::Counter* ev_tally_flushes = nullptr;

  explicit EngineMetrics(obs::MetricsRegistry* m) {
    if (m == nullptr) return;
    jobs_ok = &m->counter("neutral_jobs_ok_total", "jobs that completed");
    jobs_failed =
        &m->counter("neutral_jobs_failed_total",
                    "jobs that failed (excluding timed-out/cancelled)");
    jobs_timed_out = &m->counter("neutral_jobs_timed_out_total",
                                 "jobs that hit a QueuePolicy deadline");
    jobs_cancelled = &m->counter("neutral_jobs_cancelled_total",
                                 "jobs cancelled unrun (sibling failed)");
    job_wall = &m->histogram("neutral_job_wall_seconds",
                             "per-job wall clock incl. world acquisition",
                             {1e-3, 20});
    job_events_per_second =
        &m->histogram("neutral_job_events_per_second",
                      "per-job transport throughput", {1e3, 24});
    ev_facets = &m->counter("neutral_events_facets_total",
                            "facet crossings across all jobs");
    ev_collisions = &m->counter("neutral_events_collisions_total",
                                "collisions across all jobs");
    ev_censuses = &m->counter("neutral_events_censuses_total",
                              "census events across all jobs");
    ev_rng_draws =
        &m->counter("neutral_events_rng_draws_total", "RNG draws");
    ev_xs_lookups = &m->counter("neutral_events_xs_lookups_total",
                                "cross-section lookups");
    ev_tally_flushes = &m->counter("neutral_events_tally_flushes_total",
                                   "tally deposit flushes");
  }

  void note(const JobOutcome& outcome) const {
    if (jobs_ok == nullptr) return;
    if (outcome.ok) {
      jobs_ok->add();
      job_wall->observe(outcome.seconds);
      job_events_per_second->observe(outcome.result.events_per_second());
      const EventCounters& c = outcome.result.counters;
      ev_facets->add(c.facets);
      ev_collisions->add(c.collisions);
      ev_censuses->add(c.censuses);
      ev_rng_draws->add(c.rng_draws);
      ev_xs_lookups->add(c.xs_lookups);
      ev_tally_flushes->add(c.tally_flushes);
    } else if (outcome.cancelled) {
      jobs_cancelled->add();
    } else if (outcome.timed_out) {
      jobs_timed_out->add();
    } else {
      jobs_failed->add();
    }
  }
};

const char* terminal_event(const JobOutcome& outcome) {
  if (outcome.ok) return "completed";
  if (outcome.cancelled) return "cancelled";
  if (outcome.timed_out) return "timed_out";
  return "failed";
}

/// run()'s shared mutable state: the outcome table and the per-group job
/// countdowns, written by every worker and by the producer.  A class (not
/// a lambda closing over locals) so the lock relationship is expressed in
/// annotations the thread-safety analysis checks.
class RunRecorder {
 public:
  RunRecorder(BatchReport& report, JobQueue& queue,
              const EngineMetrics& metrics, obs::TraceLog* trace,
              const BatchEngine::CompletionCallback& on_complete,
              std::unordered_map<std::uint64_t, std::size_t> slot_of,
              std::unordered_map<std::uint64_t, std::size_t> group_remaining,
              std::vector<std::uint64_t> group_by_slot)
      : report_(report),
        queue_(queue),
        metrics_(metrics),
        trace_(trace),
        on_complete_(on_complete),
        slot_of_(std::move(slot_of)),
        group_by_slot_(std::move(group_by_slot)),
        group_remaining_(std::move(group_remaining)) {}

  /// Submission-order slot of a job id.  slot_of_ is immutable after
  /// construction, so workers may index per-slot arrays without the lock.
  [[nodiscard]] std::size_t slot(std::uint64_t job_id) const {
    return slot_of_.at(job_id);
  }

  /// Record one outcome (and its metrics/trace/callback side effects)
  /// under the lock.  The last outcome of a group evicts its cancellation
  /// tombstone: every job of the group is accounted for, so no push can
  /// resurrect it.
  void record(JobOutcome&& outcome) NEUTRAL_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const std::size_t slot = slot_of_.at(outcome.job_id);
    report_.jobs[slot] = std::move(outcome);
    const JobOutcome& done = report_.jobs[slot];
    metrics_.note(done);
    if (trace_ != nullptr) {
      obs::TraceEvent event;
      event.event = terminal_event(done);
      event.job_id = done.job_id;
      event.group = group_by_slot_[slot];
      event.label = done.label;
      event.worker = done.worker;
      if (done.worker >= 0) {
        event.queue_wait_s = done.queue_wait_seconds;
        event.run_wall_s = done.seconds;
      }
      event.detail = done.error;
      trace_->record(event);
    }
    if (on_complete_) on_complete_(report_.jobs[slot]);
    const std::uint64_t group = group_by_slot_[slot];
    if (group != 0 && --group_remaining_.at(group) == 0) {
      queue_.forget_group(group);
    }
  }

 private:
  Mutex mutex_;
  /// Only the jobs table is worker-shared; run() touches the report's
  /// scalar fields strictly before the pool spawns and after it joins.
  BatchReport& report_ NEUTRAL_GUARDED_BY(mutex_);
  JobQueue& queue_;
  const EngineMetrics& metrics_;
  obs::TraceLog* const trace_;
  const BatchEngine::CompletionCallback& on_complete_;
  const std::unordered_map<std::uint64_t, std::size_t> slot_of_;
  const std::vector<std::uint64_t> group_by_slot_;
  std::unordered_map<std::uint64_t, std::size_t> group_remaining_
      NEUTRAL_GUARDED_BY(mutex_);
};

}  // namespace

std::size_t BatchReport::completed() const {
  std::size_t n = 0;
  for (const JobOutcome& j : jobs) n += j.ok ? 1 : 0;
  return n;
}

std::size_t BatchReport::failed() const { return jobs.size() - completed(); }

std::size_t BatchReport::cancelled() const {
  std::size_t n = 0;
  for (const JobOutcome& j : jobs) n += j.cancelled ? 1 : 0;
  return n;
}

std::size_t BatchReport::timed_out() const {
  std::size_t n = 0;
  for (const JobOutcome& j : jobs) n += j.timed_out ? 1 : 0;
  return n;
}

std::uint64_t BatchReport::total_events() const {
  std::uint64_t n = 0;
  for (const JobOutcome& j : jobs) {
    if (j.ok) n += j.result.counters.total_events();
  }
  return n;
}

double BatchReport::events_per_second() const {
  return wall_seconds > 0.0
             ? static_cast<double>(total_events()) / wall_seconds
             : 0.0;
}

PhaseProfiler::Report BatchReport::phase_totals() const {
  PhaseProfiler::Report total;
  for (const JobOutcome& j : jobs) {
    if (j.ok) total += j.result.phases;
  }
  return total;
}

namespace {

/// An engine-level registry also observes the world cache unless the
/// caller pointed the cache somewhere else explicitly.
EngineOptions with_cache_metrics(EngineOptions options) {
  if (options.metrics != nullptr && options.cache.metrics == nullptr) {
    options.cache.metrics = options.metrics;
  }
  return options;
}

}  // namespace

BatchEngine::BatchEngine(EngineOptions options)
    : options_(with_cache_metrics(options)),
      hw_concurrency_(probe_host().logical_cpus),
      cache_(options_.cache) {}

std::pair<std::int32_t, std::int32_t> BatchEngine::thread_budget(
    std::size_t n_jobs) const {
  std::int32_t workers = options_.workers;
  if (workers <= 0) {
    workers = std::min<std::int32_t>(
        hw_concurrency_, static_cast<std::int32_t>(std::max<std::size_t>(
                             n_jobs, 1)));
  }
  workers = std::max<std::int32_t>(workers, 1);

  // workers x threads_per_job <= hw_concurrency: fill the node, never
  // oversubscribe it.
  const std::int32_t budget = std::max<std::int32_t>(
      1, hw_concurrency_ / workers);
  std::int32_t threads = options_.threads_per_job;
  threads = threads <= 0 ? budget : std::min(threads, budget);
  return {workers, threads};
}

std::size_t BatchEngine::queue_depth(std::int32_t workers) const {
  return options_.queue_capacity > 0
             ? options_.queue_capacity
             : std::max<std::size_t>(2 * static_cast<std::size_t>(workers),
                                     16);
}

BatchReport BatchEngine::run(std::vector<Job> jobs,
                             const CompletionCallback& on_complete) {
  BatchReport report;
  const auto [workers, threads_per_job] = thread_budget(jobs.size());
  report.workers = workers;
  report.threads_per_job = threads_per_job;
  report.jobs.resize(jobs.size());
  if (jobs.empty()) return report;

  // Slot outcomes by submission order, keyed by job id; count each group's
  // jobs so the queue's cancellation tombstone can be evicted the moment
  // the group's last job is accounted for (a long-lived deployment would
  // otherwise leak one tombstone per cancelled group).
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  std::unordered_map<std::uint64_t, std::size_t> group_remaining;
  std::vector<std::uint64_t> group_by_slot(jobs.size(), 0);
  slot_of.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    NEUTRAL_REQUIRE(slot_of.emplace(jobs[i].id, i).second,
                    "duplicate job id in batch submission");
    report.jobs[i].job_id = jobs[i].id;
    report.jobs[i].label = jobs[i].label;
    group_by_slot[i] = jobs[i].group;
    if (jobs[i].group != 0) ++group_remaining[jobs[i].group];
  }

  JobQueue queue(queue_depth(workers), options_.policy, options_.metrics);
  const WorldCache::Stats cache_before = cache_.stats();
  const EngineMetrics metrics(options_.metrics);
  obs::TraceLog* const trace = options_.trace;
  RunRecorder recorder(report, queue, metrics, trace, on_complete,
                       std::move(slot_of), std::move(group_remaining),
                       std::move(group_by_slot));
  // Written by the producer before each push, read by the worker that pops
  // the job — the queue mutex orders the two, so no per-slot atomics.
  std::vector<std::chrono::steady_clock::time_point> submitted_at(
      jobs.size());
  WallTimer wall;

  auto cancelled_outcome = [](std::uint64_t id, std::string label,
                              SimulationConfig config, std::string error) {
    JobOutcome outcome;
    outcome.job_id = id;
    outcome.label = std::move(label);
    outcome.config = std::move(config);
    outcome.ok = false;
    outcome.cancelled = true;
    outcome.error = std::move(error);
    return outcome;
  };

  // One job from pop to recorded outcome, on a pool thread or the caller.
  auto run_job = [&](Job& job, std::int32_t worker_id) {
    JobOutcome outcome;
    outcome.job_id = job.id;
    outcome.label = job.label;
    outcome.worker = worker_id;
    outcome.queue_wait_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      submitted_at[recorder.slot(job.id)])
            .count();
    if (trace != nullptr) {
      obs::TraceEvent event;
      event.event = "started";
      event.job_id = job.id;
      event.group = job.group;
      event.label = job.label;
      event.worker = worker_id;
      event.queue_wait_s = outcome.queue_wait_seconds;
      trace->record(event);
    }
    WallTimer timer;
    if (std::chrono::steady_clock::now() > job.deadline) {
      // Expired while queued (max_queue_wait): completes as timed_out
      // without wasting the pool on a result nobody is waiting for.
      outcome.ok = false;
      outcome.timed_out = true;
      outcome.error = "timed out waiting in queue (max_queue_wait)";
      outcome.config = job.config;
    } else {
      try {
        if (job.work) {
          // Custom work owns its own state and threading (including any
          // run-wall deadline its configs carry).
          outcome.result = job.work();
          outcome.config = job.config;
          outcome.ok = true;
        } else {
          SimulationConfig config = job.config;
          if (config.threads <= 0) config.threads = threads_per_job;
          if (options_.profile) config.profile = true;
          if (options_.policy.max_run_wall.count() > 0) {
            config.deadline = std::min(
                config.deadline, std::chrono::steady_clock::now() +
                                     options_.policy.max_run_wall);
          }
          std::shared_ptr<const World> world =
              options_.reuse_worlds
                  ? cache_.acquire(config.deck, job.fingerprint,
                                   &outcome.world_cache_hit)
                  : build_world(config.deck);
          Simulation sim(std::move(config), std::move(world));
          outcome.result = sim.run();
          outcome.config = sim.config();
          outcome.ok = true;
        }
      } catch (const TimeoutError& e) {
        outcome.ok = false;
        outcome.timed_out = true;
        outcome.error = e.what();
        outcome.config = job.config;
      } catch (const std::exception& e) {
        outcome.ok = false;
        outcome.error = e.what();
        outcome.config = job.config;
      }
    }
    outcome.seconds = timer.seconds();

    const bool failed = !outcome.ok;
    const std::uint64_t failed_id = outcome.job_id;
    const std::uint64_t group = job.group;
    // Cancel BEFORE recording the failure: record() evicts the group's
    // tombstone when it accounts the group's last job, so the tombstone
    // must already exist by then — the reverse order would re-insert it
    // after the eviction and leak it.
    std::vector<Job> cancelled;
    if (failed && group != 0 && options_.cancel_failed_groups) {
      cancelled = queue.cancel_pending(group);
    }
    recorder.record(std::move(outcome));
    for (Job& sibling : cancelled) {
      recorder.record(cancelled_outcome(
          sibling.id, std::move(sibling.label), std::move(sibling.config),
          "cancelled: sibling job " + std::to_string(failed_id) +
              " failed"));
    }
  };

  auto worker_loop = [&](std::int32_t worker_id) {
    while (std::optional<Job> job = queue.pop()) run_job(*job, worker_id);
  };

  // The caller is worker 0, so the pool holds at most workers - 1 threads
  // (none beyond the job count): a one-job run creates no thread at all.
  const std::int32_t busy_workers = static_cast<std::int32_t>(
      std::min<std::size_t>(static_cast<std::size_t>(workers), jobs.size()));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(busy_workers - 1));
  for (std::int32_t w = 1; w < busy_workers; ++w) {
    pool.emplace_back(worker_loop, w);
  }

  // Submit from this thread, which never blocks on the bounded queue: when
  // it is full, the caller runs the head job itself and then pushes on.
  // That single rule keeps back-pressure and cannot deadlock, even with no
  // pool thread to make room.  Only this thread pushes, so the room seen
  // here is still there at the push below.
  for (Job& job : jobs) {
    while (queue.size() >= queue.capacity()) {
      if (std::optional<Job> head =
              queue.pop_until(std::chrono::steady_clock::now())) {
        run_job(*head, 0);
      }
    }
    const std::uint64_t id = job.id;
    const std::uint64_t group = job.group;
    std::string label = job.label;
    SimulationConfig config = job.config;
    if (options_.policy.max_queue_wait.count() > 0 &&
        job.deadline == std::chrono::steady_clock::time_point::max()) {
      job.deadline =
          std::chrono::steady_clock::now() + options_.policy.max_queue_wait;
    }
    if (trace != nullptr) {
      obs::TraceEvent event;
      event.event = "submitted";
      event.job_id = id;
      event.group = group;
      event.label = label;
      trace->record(event);
    }
    submitted_at[recorder.slot(id)] = std::chrono::steady_clock::now();
    if (queue.push(std::move(job)) == PushOutcome::kAccepted) {
      if (trace != nullptr) {
        obs::TraceEvent event;
        event.event = "queued";
        event.job_id = id;
        event.group = group;
        event.label = label;
        trace->record(event);
      }
      continue;
    }
    // There was room and the queue closes only after this loop, so the one
    // refusal left is a group cancelled mid-submission (the queue remembers
    // poisoned groups).  Every job still gets exactly one outcome, which is
    // what lets record() evict group tombstones safely.
    recorder.record(cancelled_outcome(
        id, std::move(label), std::move(config),
        "cancelled: submission refused, group " + std::to_string(group) +
            " already failed"));
  }
  queue.close();
  worker_loop(0);
  for (std::thread& t : pool) t.join();

  report.wall_seconds = wall.seconds();
  const WorldCache::Stats cache_after = cache_.stats();
  report.cache.hits = cache_after.hits - cache_before.hits;
  report.cache.misses = cache_after.misses - cache_before.misses;
  report.cache.evictions = cache_after.evictions - cache_before.evictions;
  report.cache.resident_worlds = cache_after.resident_worlds;
  report.cache.resident_bytes = cache_after.resident_bytes;
  return report;
}

}  // namespace neutral::batch
