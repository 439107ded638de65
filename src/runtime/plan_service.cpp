#include "runtime/plan_service.h"

#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/stats.h"

namespace wagg::runtime {

using util::Clock;
using util::ms_since;

namespace {

// SplitMix64-style mixing; order-sensitive because the accumulator feeds
// back into every step.
void digest_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
}

std::uint64_t plan_digest(const core::PlanResult& plan) {
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  for (const auto parent : plan.tree.parent) {
    digest_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(parent)));
  }
  for (const auto& slot : plan.scheduling.schedule.slots) {
    digest_mix(h, 0xffffffffffffffffULL);  // slot boundary marker
    for (const auto link : slot) digest_mix(h, link);
  }
  digest_mix(h, plan.scheduling.slots_split);
  digest_mix(h, plan.scheduling.colors_before_repair);
  digest_mix(h, plan.verified() ? 1 : 0);
  return h;
}

std::uint64_t trace_digest(const dynamic::DynamicPlanner& planner,
                           std::span<const dynamic::EpochReport> reports) {
  std::uint64_t h = 0xbb67ae8584caa73bULL;
  for (const auto& report : reports) {
    digest_mix(h, report.epoch);
    digest_mix(h, report.slots);
    digest_mix(h, report.dirty_links);
    digest_mix(h, report.full_replan ? 1 : 0);
    digest_mix(h, report.valid ? 1 : 0);
  }
  const auto& snapshot = planner.snapshot();
  for (const auto& slot : snapshot.schedule.slots) {
    digest_mix(h, 0xffffffffffffffffULL);
    for (const auto link : slot) digest_mix(h, link);
  }
  return h;
}

/// Runs a churn-session request to completion on the calling thread.
void execute_session_request(const PlanRequest& request,
                             PlanOutcome& outcome) {
  dynamic::DynamicOptions options;
  options.config = request.config;
  options.audit = request.audit;
  dynamic::DynamicPlanner planner(request.points, options);

  // Serving sessions ship the actual transmit powers every epoch; the
  // planner's slot ledger already holds the vector that certified each
  // slot in repair, so shipping it is an embedding, not a Perron solve.
  const bool materialize_powers =
      request.config.power_mode == core::PowerMode::kGlobal;
  if (materialize_powers) (void)planner.slot_powers();

  std::vector<dynamic::EpochReport> reports;
  reports.reserve(request.trace.size() + 1);
  reports.push_back(planner.last_report());
  for (const auto& epoch_mutations : request.trace) {
    (void)planner.apply(epoch_mutations);
    if (materialize_powers) (void)planner.slot_powers();
    reports.push_back(planner.last_report());
  }

  outcome.ok = true;
  outcome.epochs = reports.size();
  bool all_valid = true;
  for (const auto& report : reports) {
    const bool epoch_valid =
        report.valid &&
        (!report.audited || (report.audit_valid && report.audit_power_valid &&
                             report.audit_tree_match));
    if (epoch_valid) ++outcome.epochs_valid;
    all_valid = all_valid && epoch_valid;
    if (report.epoch > 0 && report.full_replan) ++outcome.full_replans;
    // Fold epoch timings into the batch stage summaries: the incremental
    // stages map onto their closest static counterparts, audit onto verify.
    outcome.timings.tree_ms += report.timings.mst_ms();
    outcome.mst_update_ms += report.timings.mst_update_ms;
    outcome.orient_ms += report.timings.orient_ms;
    outcome.timings.conflict_ms += report.timings.conflict_ms();
    outcome.conflict_maintain_ms += report.timings.conflict_maintain_ms;
    outcome.conflict_query_ms += report.timings.conflict_query_ms;
    outcome.timings.coloring_ms += report.timings.recolor_ms;
    outcome.timings.repair_ms += report.timings.repair_ms;
    outcome.timings.power_ms += report.timings.power_ms;
    outcome.timings.verify_ms += report.timings.audit_ms;
  }
  const auto& final_report = reports.back();
  const auto& snapshot = planner.snapshot();
  outcome.num_points = snapshot.points.size();
  outcome.num_links = snapshot.links.size();
  outcome.slots = final_report.slots;
  outcome.rate = final_report.rate;
  outcome.verified = all_valid;
  outcome.digest = trace_digest(planner, reports);
}

StageSummary summarize_stage(const util::Samples& samples) {
  StageSummary summary;
  if (samples.empty()) return summary;
  // One quantile implementation for every latency table in the repo: the
  // registry histograms' snapshot row (log-bucketed p50/p95 with documented
  // relative error; mean and max exact).
  const obs::SummaryRow row =
      obs::HistogramSnapshot::of(samples.values()).row();
  summary.p50 = row.p50;
  summary.p95 = row.p95;
  summary.mean = row.mean;
  summary.max = row.max;
  return summary;
}

/// The service's registry handles, resolved once (see PlannerMetrics in
/// dynamic_planner.cpp for the pattern).
struct ServiceMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& requests = reg.counter("service.requests");
  obs::Counter& failures = reg.counter("service.request_failures");
  /// Workers currently executing a request — sampled worker utilization.
  obs::Gauge& busy_workers = reg.gauge("service.busy_workers");
  /// Enqueue-to-start wait: batch requests AND session epochs land here,
  /// so batch and serve latency are comparable in one metric.
  obs::Histogram& queue_ms = reg.histogram("service.queue_ms");
  obs::Histogram& request_ms = reg.histogram("service.request_ms");
  // ---- session serving ----
  obs::Gauge& sessions_active = reg.gauge("service.sessions_active");
  /// Epoch tasks enqueued (or blocked waiting for mailbox space) but not
  /// yet started, summed across sessions.
  obs::Gauge& session_queue_depth = reg.gauge("service.session_queue_depth");
  obs::Counter& session_epochs = reg.counter("service.session_epochs");
  obs::Counter& mailbox_rejects = reg.counter("service.mailbox_rejects");
  obs::Histogram& session_epoch_ms = reg.histogram("service.session_epoch_ms");
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics metrics;
  return metrics;
}

// ---- SessionId packing: slot index low 32 bits, generation high 32 ----

constexpr std::uint32_t id_slot(PlanService::SessionId id) noexcept {
  return static_cast<std::uint32_t>(id & 0xffffffffULL);
}

constexpr std::uint32_t id_generation(PlanService::SessionId id) noexcept {
  return static_cast<std::uint32_t>(id >> 32);
}

constexpr PlanService::SessionId make_session_id(
    std::uint32_t slot, std::uint32_t generation) noexcept {
  return (static_cast<PlanService::SessionId>(generation) << 32) |
         static_cast<PlanService::SessionId>(slot);
}

Executor::Options executor_options(const ServiceOptions& options) {
  Executor::Options exec;
  exec.num_workers = options.num_workers;
  exec.num_stripes = options.num_stripes;
  exec.default_queue_capacity = options.session_mailbox_capacity;
  return exec;
}

}  // namespace

std::string to_string(SessionStatus status) {
  switch (status) {
    case SessionStatus::kOk:
      return "ok";
    case SessionStatus::kUnknownSession:
      return "unknown_session";
    case SessionStatus::kClosedSession:
      return "closed_session";
    case SessionStatus::kMailboxFull:
      return "mailbox_full";
    case SessionStatus::kShutdown:
      return "shutdown";
    case SessionStatus::kSessionLimit:
      return "session_limit";
    case SessionStatus::kPlannerError:
      return "planner_error";
  }
  return "unknown";
}

std::uint64_t snapshot_digest(const dynamic::DynamicPlanner& planner) {
  const auto& snapshot = planner.snapshot();
  std::uint64_t h = 0x3c6ef372fe94f82bULL;
  digest_mix(h, planner.epoch());
  digest_mix(h,
             static_cast<std::uint64_t>(static_cast<std::int64_t>(snapshot.sink)));
  for (const auto id : snapshot.ids) {
    digest_mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(id)));
  }
  for (const auto& slot : snapshot.schedule.slots) {
    digest_mix(h, 0xffffffffffffffffULL);
    for (const auto link : slot) digest_mix(h, link);
  }
  return h;
}

PlanOutcome execute_request(const PlanRequest& request,
                            std::size_t request_index, bool keep_plan) {
  PlanOutcome outcome;
  outcome.request_index = request_index;
  outcome.seed = request.seed;
  outcome.tags = request.tags;
  outcome.num_points = request.points.size();

  obs::Span span("request");
  auto& metrics = service_metrics();
  const auto start = Clock::now();
  try {
    if (!request.trace.empty()) {
      execute_session_request(request, outcome);
      outcome.total_ms = ms_since(start);
      metrics.requests.add();
      metrics.request_ms.record(outcome.total_ms);
      return outcome;
    }
    core::StageTimings timings;
    auto plan = core::plan_aggregation(request.points, request.config,
                                       &timings);
    outcome.ok = true;
    outcome.num_links = plan.tree.links.size();
    outcome.slots = plan.schedule().length();
    outcome.colors_before_repair = plan.scheduling.colors_before_repair;
    outcome.slots_split = plan.scheduling.slots_split;
    outcome.rate = plan.rate();
    outcome.verified = plan.verified();
    outcome.digest = plan_digest(plan);
    outcome.timings = timings;
    if (keep_plan) {
      outcome.plan =
          std::make_shared<const core::PlanResult>(std::move(plan));
    }
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
  } catch (...) {
    outcome.ok = false;
    outcome.error = "unknown error";
  }
  outcome.total_ms = ms_since(start);
  metrics.requests.add();
  if (!outcome.ok) metrics.failures.add();
  metrics.request_ms.record(outcome.total_ms);
  return outcome;
}

BatchStats summarize(const std::vector<PlanOutcome>& outcomes,
                     double wall_ms) {
  BatchStats stats;
  stats.total = outcomes.size();
  stats.wall_ms = wall_ms;

  util::Samples tree, conflict, coloring, repair, verify, power, queue, total;
  util::Samples conflict_maintain, conflict_query;
  util::Samples mst_update, orient;
  for (const auto& outcome : outcomes) {
    // Queue wait is a service property, not a planning property: failed
    // requests waited too, so they count.
    queue.add(outcome.queue_ms);
    if (outcome.ok) {
      ++stats.succeeded;
      tree.add(outcome.timings.tree_ms);
      conflict.add(outcome.timings.conflict_ms);
      if (outcome.epochs > 0) {
        // Only churn sessions maintain a conflict index / incremental MST;
        // static plans would dilute the splits with structural zeros.
        conflict_maintain.add(outcome.conflict_maintain_ms);
        conflict_query.add(outcome.conflict_query_ms);
        mst_update.add(outcome.mst_update_ms);
        orient.add(outcome.orient_ms);
        // outcome.epochs counts the initial full plan; throughput counts
        // the incremental advances only.
        stats.session_epochs += outcome.epochs - 1;
      }
      coloring.add(outcome.timings.coloring_ms);
      repair.add(outcome.timings.repair_ms);
      verify.add(outcome.timings.verify_ms);
      power.add(outcome.timings.power_ms);
      total.add(outcome.total_ms);
    } else {
      ++stats.failed;
    }
  }
  stats.tree = summarize_stage(tree);
  stats.mst_update = summarize_stage(mst_update);
  stats.orient = summarize_stage(orient);
  stats.conflict = summarize_stage(conflict);
  stats.conflict_maintain = summarize_stage(conflict_maintain);
  stats.conflict_query = summarize_stage(conflict_query);
  stats.coloring = summarize_stage(coloring);
  stats.repair = summarize_stage(repair);
  stats.verify = summarize_stage(verify);
  stats.power = summarize_stage(power);
  stats.queue = summarize_stage(queue);
  stats.total_latency = summarize_stage(total);
  if (wall_ms > 0.0) {
    stats.plans_per_sec = static_cast<double>(stats.total) * 1000.0 / wall_ms;
    stats.session_epochs_per_sec =
        static_cast<double>(stats.session_epochs) * 1000.0 / wall_ms;
  }
  return stats;
}

PlanService::PlanService(ServiceOptions options)
    : options_(options), executor_(executor_options(options)) {}

PlanService::~PlanService() {
  // Drain while every member is still alive: queued session tasks touch
  // slots_ and sessions_mutex_ (open-failure release path), which are
  // destroyed before executor_ would be.
  executor_.shutdown();
}

// ------------------------------------------------------------------ batches

BatchResult PlanService::run(const std::vector<PlanRequest>& requests) {
  BatchResult result;
  result.outcomes.resize(requests.size());
  const auto start = Clock::now();
  if (!requests.empty()) {
    // Completion latch shared by every request task. Notify under the lock:
    // run() may destroy the state the instant the predicate turns true.
    struct BatchState {
      util::Mutex mutex;
      util::CondVar done;
      std::size_t remaining WAGG_GUARDED_BY(mutex) = 0;
    };
    auto state = std::make_shared<BatchState>();
    {
      // The fresh state is not shared yet, but the analysis has no notion
      // of "unpublished" — lock for its benefit (uncontended).
      util::MutexLock lock(state->mutex);
      state->remaining = requests.size();
    }

    // One ephemeral single-slot queue per request: requests spread round-
    // robin across all stripes and interleave fairly with live sessions
    // (one task per acquisition), instead of one mega-queue serializing the
    // batch behind a single drainer.
    std::vector<std::shared_ptr<Executor::SerialQueue>> queues;
    queues.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto queue = executor_.make_queue(1);
      const SubmitResult submitted = queue->try_submit([this, &requests,
                                                       &result, state, start,
                                                       i] {
        auto& metrics = service_metrics();
        const double queue_ms = ms_since(start);
        metrics.queue_ms.record(queue_ms);
        metrics.busy_workers.add(1.0);
        // Planning runs unlocked; each task writes only its own slot.
        result.outcomes[i] =
            execute_request(requests[i], i, options_.keep_plans);
        result.outcomes[i].queue_ms = queue_ms;
        metrics.busy_workers.add(-1.0);
        {
          util::MutexLock lock(state->mutex);
          --state->remaining;
        }
        state->done.notify_all();
      });
      if (submitted != SubmitResult::kAccepted) {
        // Executor shutting down (service destruction racing a batch):
        // account the slot as failed instead of hanging the latch.
        result.outcomes[i].request_index = i;
        result.outcomes[i].ok = false;
        result.outcomes[i].error =
            "service rejected request: " + to_string(submitted);
        util::MutexLock lock(state->mutex);
        --state->remaining;
      }
      queues.push_back(std::move(queue));
    }
    util::MutexLock lock(state->mutex);
    while (state->remaining != 0) state->done.wait(state->mutex);
  }
  result.stats = summarize(result.outcomes, ms_since(start));
  return result;
}

// ----------------------------------------------------------------- sessions

PlanService::Resolved PlanService::resolve(SessionId id) const {
  const std::uint32_t slot = id_slot(id);
  const std::uint32_t generation = id_generation(id);
  util::MutexLock lock(sessions_mutex_);
  if (slot >= slots_.size() || generation > slots_[slot].generation ||
      generation == 0) {
    return {SessionStatus::kUnknownSession, nullptr};  // never issued
  }
  const Slot& entry = slots_[slot];
  if (generation < entry.generation || !entry.session) {
    // The id was real once; the slot moved on (or the session closed).
    return {SessionStatus::kClosedSession, nullptr};
  }
  return {SessionStatus::kOk, entry.session};
}

PlanService::Resolved PlanService::allocate_session() {
  util::MutexLock lock(sessions_mutex_);
  if (open_sessions_ >= options_.max_sessions) {
    return {SessionStatus::kSessionLimit, nullptr};
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  auto session = std::make_shared<Session>();
  session->slot = slot;
  session->generation = ++slots_[slot].generation;
  session->queue = executor_.make_queue(options_.session_mailbox_capacity);
  slots_[slot].session = session;
  ++open_sessions_;
  service_metrics().sessions_active.add(1.0);
  return {SessionStatus::kOk, std::move(session)};
}

void PlanService::release_session(const std::shared_ptr<Session>& session) {
  util::MutexLock lock(sessions_mutex_);
  Slot& entry = slots_[session->slot];
  // Idempotent across racing closers: only the one that still owns the slot
  // frees it.
  if (entry.session != session) return;
  entry.session = nullptr;
  free_slots_.push_back(session->slot);
  --open_sessions_;
  service_metrics().sessions_active.add(-1.0);
}

PlanService::SessionId PlanService::open_session(
    const geom::Pointset& initial, const dynamic::DynamicOptions& options) {
  // Plan the initial epoch before taking a slot: constructor exceptions
  // (malformed input) propagate without leaking admission capacity.
  auto planner = std::make_shared<dynamic::DynamicPlanner>(initial, options);
  Resolved allocated = allocate_session();
  if (allocated.status != SessionStatus::kOk) {
    throw std::runtime_error("PlanService: session limit reached (" +
                             std::to_string(options_.max_sessions) + ")");
  }
  {
    util::MutexLock lock(allocated.session->mutex);
    allocated.session->planner = std::move(planner);
  }
  return make_session_id(allocated.session->slot,
                         allocated.session->generation);
}

std::future<OpenOutcome> PlanService::open_session_async(
    geom::Pointset initial, const dynamic::DynamicOptions& options) {
  auto promise = std::make_shared<std::promise<OpenOutcome>>();
  auto future = promise->get_future();

  Resolved allocated = allocate_session();
  if (allocated.status != SessionStatus::kOk) {
    OpenOutcome outcome;
    outcome.status = allocated.status;
    outcome.error = "session limit reached";
    promise->set_value(std::move(outcome));
    return future;
  }
  auto session = std::move(allocated.session);
  const SessionId id = make_session_id(session->slot, session->generation);

  // The initial full plan is the session's FIRST queue task: opens
  // parallelize across the pool, and epochs submitted before the open
  // resolves simply queue behind it in order.
  const SubmitResult submitted = session->queue->try_submit(
      [this, session, id, initial = std::move(initial), options, promise] {
        auto& metrics = service_metrics();
        OpenOutcome outcome;
        outcome.id = id;
        metrics.busy_workers.add(1.0);
        try {
          auto planner =
              std::make_shared<dynamic::DynamicPlanner>(initial, options);
          util::MutexLock lock(session->mutex);
          session->planner = std::move(planner);
        } catch (const std::exception& e) {
          outcome.status = SessionStatus::kPlannerError;
          outcome.error = e.what();
        } catch (...) {
          outcome.status = SessionStatus::kPlannerError;
          outcome.error = "unknown error";
        }
        metrics.busy_workers.add(-1.0);
        if (outcome.status != SessionStatus::kOk) {
          {
            util::MutexLock lock(session->mutex);
            session->open_failed = true;
            session->open_error = outcome.error;
          }
          // A failed open self-closes: queued epochs resolve kPlannerError,
          // the slot frees for the next open.
          session->queue->close();
          release_session(session);
        }
        promise->set_value(std::move(outcome));
      });
  if (submitted != SubmitResult::kAccepted) {
    release_session(session);
    OpenOutcome outcome;
    outcome.status = SessionStatus::kShutdown;
    outcome.error = "service shutting down";
    promise->set_value(std::move(outcome));
  }
  return future;
}

void PlanService::submit_epoch_task(SessionId id, dynamic::ChurnTrace epochs,
                                    std::function<void(EpochOutcome)> done,
                                    OnFull on_full) {
  auto& metrics = service_metrics();
  Resolved resolved = resolve(id);
  if (resolved.status != SessionStatus::kOk) {
    EpochOutcome outcome;
    outcome.status = resolved.status;
    outcome.error = "PlanService: " + to_string(resolved.status) +
                    " for session id " + std::to_string(id);
    done(std::move(outcome));
    return;
  }
  auto session = std::move(resolved.session);

  // Count the entry as queued for the whole enqueue-to-start window —
  // including a blocking submit's wait for mailbox space — so the gauge
  // never dips negative when the task starts before the accept returns.
  metrics.session_queue_depth.add(1.0);
  const auto enqueue_time = Clock::now();
  // The task copies `done` (rather than moving) so admission failures below
  // can still resolve the caller's callback.
  Executor::Task task = [this, session, epochs = std::move(epochs),
                         enqueue_time, done] {
    run_epoch_task(session, epochs, enqueue_time, done);
  };
  const SubmitResult submitted =
      on_full == OnFull::kBlock
          ? session->queue->submit_blocking(std::move(task))
          : session->queue->try_submit(std::move(task));
  if (submitted == SubmitResult::kAccepted) return;

  metrics.session_queue_depth.add(-1.0);
  EpochOutcome outcome;
  switch (submitted) {
    case SubmitResult::kQueueFull:
      outcome.status = SessionStatus::kMailboxFull;
      metrics.mailbox_rejects.add();
      {
        util::MutexLock lock(session->mutex);
        ++session->rejects;
      }
      break;
    case SubmitResult::kClosed:
      outcome.status = SessionStatus::kClosedSession;
      break;
    default:
      outcome.status = SessionStatus::kShutdown;
      break;
  }
  outcome.error = "PlanService: " + to_string(outcome.status) +
                  " for session id " + std::to_string(id);
  done(std::move(outcome));
}

void PlanService::run_epoch_task(
    const std::shared_ptr<Session>& session, const dynamic::ChurnTrace& epochs,
    util::Clock::time_point enqueue_time,
    const std::function<void(EpochOutcome)>& done) {
  auto& metrics = service_metrics();
  metrics.session_queue_depth.add(-1.0);

  EpochOutcome outcome;
  outcome.queue_ms = ms_since(enqueue_time);
  // Satellite: session mailbox waits land in the SAME histogram as batch
  // queue waits, so one metric compares batch and serve latency.
  metrics.queue_ms.record(outcome.queue_ms);

  std::shared_ptr<dynamic::DynamicPlanner> planner;
  {
    util::MutexLock lock(session->mutex);
    if (session->open_failed) {
      outcome.status = SessionStatus::kPlannerError;
      outcome.error = "session open failed: " + session->open_error;
    } else {
      // Set by the open task, which the serial queue ran before us.
      planner = session->planner;
    }
  }
  if (outcome.status != SessionStatus::kOk) {
    done(std::move(outcome));
    return;
  }

  obs::Span span("session_epoch");
  metrics.busy_workers.add(1.0);
  const auto start = Clock::now();
  std::size_t applied = 0;
  try {
    // The serial queue is the session's mutual exclusion: at most one task
    // of this queue runs at a time, so the planner needs no lock here.
    for (const auto& mutations : epochs) {
      (void)planner->apply(std::span<const dynamic::Mutation>(mutations));
      ++applied;
    }
    outcome.report = planner->last_report();
  } catch (const std::invalid_argument& e) {
    outcome.status = SessionStatus::kPlannerError;
    outcome.invalid_argument = true;
    outcome.error = e.what();
  } catch (const std::exception& e) {
    outcome.status = SessionStatus::kPlannerError;
    outcome.error = e.what();
  } catch (...) {
    outcome.status = SessionStatus::kPlannerError;
    outcome.error = "unknown error";
  }
  outcome.epoch_ms = ms_since(start);
  metrics.busy_workers.add(-1.0);
  metrics.session_epochs.add(applied);
  metrics.session_epoch_ms.record(outcome.epoch_ms);
  {
    util::MutexLock lock(session->mutex);
    session->epochs += applied;
    session->epoch_ms.add(outcome.epoch_ms);
    session->wait_ms.add(outcome.queue_ms);
  }
  done(std::move(outcome));
}

std::future<EpochOutcome> PlanService::submit_epoch(
    SessionId id, std::vector<dynamic::Mutation> mutations, OnFull on_full) {
  dynamic::ChurnTrace trace;
  trace.push_back(std::move(mutations));
  auto promise = std::make_shared<std::promise<EpochOutcome>>();
  auto future = promise->get_future();
  submit_epoch_task(id, std::move(trace),
                    [promise](EpochOutcome outcome) {
                      promise->set_value(std::move(outcome));
                    },
                    on_full);
  return future;
}

void PlanService::submit_epoch(SessionId id,
                               std::vector<dynamic::Mutation> mutations,
                               std::function<void(EpochOutcome)> done,
                               OnFull on_full) {
  dynamic::ChurnTrace trace;
  trace.push_back(std::move(mutations));
  submit_epoch_task(id, std::move(trace), std::move(done), on_full);
}

std::future<EpochOutcome> PlanService::submit_epochs(SessionId id,
                                                     dynamic::ChurnTrace epochs,
                                                     OnFull on_full) {
  auto promise = std::make_shared<std::promise<EpochOutcome>>();
  auto future = promise->get_future();
  submit_epoch_task(id, std::move(epochs),
                    [promise](EpochOutcome outcome) {
                      promise->set_value(std::move(outcome));
                    },
                    on_full);
  return future;
}

dynamic::EpochReport PlanService::advance_session(
    SessionId id, std::span<const dynamic::Mutation> mutations) {
  auto future = submit_epoch(
      id, std::vector<dynamic::Mutation>(mutations.begin(), mutations.end()),
      OnFull::kBlock);
  EpochOutcome outcome = future.get();
  if (outcome.status == SessionStatus::kOk) return outcome.report;
  // Historic contract: lifecycle misuse and planner-rejected mutations both
  // surface as std::invalid_argument from the synchronous API.
  if (outcome.invalid_argument ||
      outcome.status == SessionStatus::kUnknownSession ||
      outcome.status == SessionStatus::kClosedSession) {
    throw std::invalid_argument(outcome.error);
  }
  throw std::runtime_error(outcome.error);
}

std::shared_ptr<const dynamic::DynamicPlanner> PlanService::session(
    SessionId id) const {
  Resolved resolved = resolve(id);
  if (resolved.status != SessionStatus::kOk) {
    throw std::invalid_argument("PlanService: " + to_string(resolved.status) +
                                " for session id " + std::to_string(id));
  }
  util::MutexLock lock(resolved.session->mutex);
  if (!resolved.session->planner) {
    throw std::runtime_error(
        "PlanService: session open still in flight for id " +
        std::to_string(id) + " (wait on the open future first)");
  }
  return resolved.session->planner;
}

std::uint64_t PlanService::session_digest(SessionId id) const {
  return snapshot_digest(*session(id));
}

SessionStats PlanService::session_stats(SessionId id) const {
  Resolved resolved = resolve(id);
  if (resolved.status != SessionStatus::kOk) {
    throw std::invalid_argument("PlanService: " + to_string(resolved.status) +
                                " for session id " + std::to_string(id));
  }
  SessionStats stats;
  stats.queue_depth = resolved.session->queue->depth();
  util::MutexLock lock(resolved.session->mutex);
  stats.epochs = resolved.session->epochs;
  stats.mailbox_rejects = resolved.session->rejects;
  stats.latency = summarize_stage(resolved.session->epoch_ms);
  stats.wait = summarize_stage(resolved.session->wait_ms);
  if (!resolved.session->epoch_ms.empty()) {
    stats.p99_ms =
        obs::HistogramSnapshot::of(resolved.session->epoch_ms.values())
            .quantile(99.0);
  }
  if (!resolved.session->wait_ms.empty()) {
    stats.wait_p99_ms =
        obs::HistogramSnapshot::of(resolved.session->wait_ms.values())
            .quantile(99.0);
  }
  return stats;
}

SessionStatus PlanService::close_session(SessionId id) {
  Resolved resolved = resolve(id);
  if (resolved.status != SessionStatus::kOk) return resolved.status;
  // Graceful: stop new submits first (late submit_epoch calls resolve
  // kClosedSession), drain what was already accepted, then free the slot.
  // Must not be called from inside this session's own epoch callback — the
  // drain would wait on the running task.
  resolved.session->queue->close();
  resolved.session->queue->wait_drained();
  release_session(resolved.session);
  return SessionStatus::kOk;
}

std::size_t PlanService::num_sessions() const {
  util::MutexLock lock(sessions_mutex_);
  return open_sessions_;
}

}  // namespace wagg::runtime
