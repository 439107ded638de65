// serve-small: many small PlanService sessions on a 3-worker executor, fed
// by one generator thread (the main thread).
//
// A round opens every session (the set-up sample), runs a warm-up prefix of
// epochs (untimed), then two timed phases on the same sessions:
//   - closed loop: every session keeps exactly one epoch in flight and
//     submits its next epoch when the previous one completes (128 clients).
//     Completed epochs over the phase's wall time give epochs_per_s; each
//     epoch's submit-to-done latency gives epoch_ms_p50 (each round's
//     median, averaged over rounds) and epoch_ms_tail.
//   - open loop: epochs are sent at a fixed offered rate, whatever the
//     service does, to the sessions in a seeded round-robin order. Latency is
//     timed from each epoch's due time to its completion callback; the share
//     of epochs within the latency limit is slo_met_frac. Its percentiles
//     are reported too, but unbounded: on a shared 4-vCPU host they follow
//     the host's scheduling stalls more than the program (see README.md).
// Every round replays the same inputs, so every round must produce the same
// reports; the first round defines the deterministic outputs and runs the
// checkpoints and the synchronous digest replay, outside the timed phases.

#include <algorithm>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common.h"
#include "conflict/conflict_index.h"
#include "core/planner.h"
#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "runtime/plan_service.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using namespace wagg;

struct ServeWorkload {
  std::size_t sessions = 128;
  std::size_t workers = 3;
  std::size_t n = 256;       ///< nodes per session, uniform family
  double churn_rate = 0.05;  ///< mixed add/remove/move per node per epoch
  core::PowerMode mode = core::PowerMode::kOblivious;
  std::size_t warmup_epochs = 3;  ///< per session per round, closed loop
  std::size_t closed_epochs = 10;
  std::size_t open_epochs = 10;  ///< per session per round, open loop
  /// Offered load of the open-loop phase, epochs per second over all
  /// sessions: about half the closed-loop capacity of a 4-core host.
  double offered_rate = 1400.0;
  double latency_limit_ms = 50.0;  ///< slo_met_frac counts epochs within it
  /// Percentile reported as a tail: each phase gives 1280 latency samples
  /// a round, so even one round leaves 64 beyond it. p99 is not used: on a
  /// shared host its closed-loop value moves by half between host states
  /// (55-62 ms vs 85-106 ms on identical code), p95 by about a tenth.
  double tail_p = 95.0;
  std::size_t replay_sessions = 4;  ///< replayed on a synchronous planner
};

const ServeWorkload kServe{};

enum class Phase { kWarmup, kClosed, kOpen };

/// What one submitted epoch produced, filled by its completion callback.
struct EpochRecord {
  Clock::time_point due;   ///< open loop: scheduled send time
  Clock::time_point sent;  ///< submit_epoch called
  Clock::time_point done;  ///< completion callback ran
  runtime::SessionStatus status = runtime::SessionStatus::kOk;
  std::string error;
  dynamic::EpochReport report;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  conflict::ConflictIndexStats before;  ///< traced epochs only
  conflict::ConflictIndexStats after;

  [[nodiscard]] bool ok() const {
    return status == runtime::SessionStatus::kOk && report.valid;
  }
};

/// Counts a phase's outstanding epochs: completion callbacks count down on
/// executor workers while the generator waits.
class Pending {
 public:
  void reset(std::size_t count) {
    std::lock_guard lock(mutex_);
    remaining_ = count;
  }
  void count_down() {
    std::lock_guard lock(mutex_);
    if (--remaining_ == 0) done_.notify_all();
  }
  void wait() {
    std::unique_lock lock(mutex_);
    done_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_;
  std::size_t remaining_ = 0;
};

class ServeRun {
 public:
  ServeRun(const ServeWorkload& w, const RunOptions& options)
      : w_(w),
        options_(options),
        epochs_per_session_(w.warmup_epochs + w.closed_epochs +
                            w.open_epochs),
        service_(runtime::ServiceOptions{.num_workers = w.workers}) {
    dyn_.config = workload::mode_config(w.mode);
    dynamic::ChurnParams params;
    params.epochs = epochs_per_session_;
    params.rate = w.churn_rate;
    std::uint64_t digest = 0;
    for (std::size_t s = 0; s < w.sessions; ++s) {
      const std::uint64_t seed = options.seed * 1000003ULL + s;
      points_.push_back(workload::make_family("uniform", w.n, seed));
      traces_.push_back(
          dynamic::make_churn_trace(points_.back(), params, seed));
      hash_mix(digest, digest_inputs(points_.back(), traces_.back()));
    }
    result_.fingerprint.trace_digest = digest;
    order_.resize(w.sessions);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::mt19937_64 rng(options.seed);
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  RunResult run();

 private:
  [[nodiscard]] std::size_t index(std::size_t s, std::size_t e) const {
    return s * epochs_per_session_ + e;
  }
  [[nodiscard]] bool traced(std::size_t e) const {
    const std::size_t open_begin = w_.warmup_epochs + w_.closed_epochs;
    return options_.trace && e >= open_begin && (e - open_begin) % 2 == 0;
  }
  bool open_sessions();
  void close_sessions();
  void submit(std::size_t s, std::size_t e, Phase phase);
  void on_done(std::size_t s, std::size_t e, Phase phase,
               runtime::EpochOutcome outcome);
  /// Closed loop over epochs [begin, end) of every session; returns the
  /// phase's wall time in ms.
  double closed_loop(std::size_t begin, std::size_t end, Phase phase);
  /// Open loop over epochs [begin, end) at the offered rate.
  void open_loop(std::size_t begin, std::size_t end);
  void checkpoint_all(std::size_t epoch);
  void replay_and_compare();
  void check_round(std::size_t round);
  void finish(std::size_t rounds);

  const ServeWorkload& w_;
  const RunOptions& options_;
  const std::size_t epochs_per_session_;
  dynamic::DynamicOptions dyn_;
  std::vector<geom::Pointset> points_;
  std::vector<dynamic::ChurnTrace> traces_;
  std::vector<std::size_t> order_;  ///< open-loop session order

  std::vector<runtime::PlanService::SessionId> ids_;
  std::vector<std::shared_ptr<const dynamic::DynamicPlanner>> planners_;
  /// Each session's conflict-index stats after its last epoch; touched only
  /// by that session's callbacks, which its serial queue orders.
  std::vector<conflict::ConflictIndexStats> last_stats_;
  std::vector<EpochRecord> records_;
  Pending pending_;

  RunResult result_;
  SpanLog log_;
  std::vector<EpochKey> first_keys_;
  std::vector<std::uint64_t> first_digests_;
  std::vector<double> setup_ms_;
  double closed_ms_ = 0.0;
  std::size_t closed_done_ = 0;
  std::vector<double> closed_latency_ms_;  ///< submit -> done, ok epochs
  std::vector<double> closed_round_p50_ms_;  ///< each round's median of it
  std::vector<double> latency_ms_;  ///< open loop, due -> done, ok epochs
  std::vector<double> traced_latency_ms_;
  std::vector<double> untraced_latency_ms_;
  std::vector<double> slo_flags_;
  std::vector<double> late_ms_;  ///< open loop, due -> sent
  std::size_t rejects_ = 0;
  std::vector<double> drift_;
  std::vector<double> scratch_repair_ms_;
  std::vector<double> scratch_plan_ms_;
  double slots_sum_ = 0.0;
  std::size_t slots_count_ = 0;

  /// Declared last, so it is destroyed first: its destructor drains every
  /// queued epoch while the state the callbacks write is still alive.
  runtime::PlanService service_;
};

bool ServeRun::open_sessions() {
  const auto start = Clock::now();
  std::vector<std::future<runtime::OpenOutcome>> opening;
  opening.reserve(w_.sessions);
  for (std::size_t s = 0; s < w_.sessions; ++s) {
    opening.push_back(service_.open_session_async(points_[s], dyn_));
  }
  ids_.clear();
  bool ok = true;
  for (auto& f : opening) {
    ++result_.attempted;
    const auto outcome = f.get();
    if (outcome.status != runtime::SessionStatus::kOk) {
      result_.fail("open_session_async: " + runtime::to_string(outcome.status) +
                   " " + outcome.error);
      ok = false;
    }
    ids_.push_back(outcome.id);
  }
  setup_ms_.push_back(ms_between(start, Clock::now()));
  if (!ok) return false;
  planners_.clear();
  last_stats_.clear();
  for (const auto id : ids_) {
    planners_.push_back(service_.session(id));
    last_stats_.push_back(planners_.back()->conflict_index().stats());
    if (!planners_.back()->last_report().valid) {
      result_.fail("initial session plan is not valid");
      ok = false;
    }
  }
  if (options_.trace) {
    log_.add({"setup", 0, 0, log_.next_op(), log_.ns(start),
              log_.ns(Clock::now()), {{"sessions", double(w_.sessions)}}});
  }
  return ok;
}

void ServeRun::close_sessions() {
  planners_.clear();
  for (const auto id : ids_) {
    const auto status = service_.close_session(id);
    if (status != runtime::SessionStatus::kOk) {
      result_.fail("close_session: " + runtime::to_string(status));
    }
  }
  ids_.clear();
}

void ServeRun::submit(std::size_t s, std::size_t e, Phase phase) {
  records_[index(s, e)].sent = Clock::now();
  service_.submit_epoch(
      ids_[s], traces_[s][e],
      [this, s, e, phase](runtime::EpochOutcome outcome) {
        on_done(s, e, phase, std::move(outcome));
      },
      runtime::OnFull::kReject);
}

void ServeRun::on_done(std::size_t s, std::size_t e, Phase phase,
                       runtime::EpochOutcome outcome) {
  auto& r = records_[index(s, e)];
  r.done = Clock::now();
  r.status = outcome.status;
  r.error = std::move(outcome.error);
  r.report = outcome.report;
  r.queue_ms = outcome.queue_ms;
  r.exec_ms = outcome.epoch_ms;
  if (options_.trace && outcome.status == runtime::SessionStatus::kOk) {
    // This callback runs inside the session's serial task, so reading the
    // planner here races with nothing.
    r.before = last_stats_[s];
    r.after = planners_[s]->conflict_index().stats();
    last_stats_[s] = r.after;
  }
  const std::size_t closed_end = w_.warmup_epochs + w_.closed_epochs;
  const bool chain = (phase == Phase::kWarmup && e + 1 < w_.warmup_epochs) ||
                     (phase == Phase::kClosed && e + 1 < closed_end);
  if (chain) submit(s, e + 1, phase);
  pending_.count_down();
}

double ServeRun::closed_loop(std::size_t begin, std::size_t end, Phase phase) {
  pending_.reset(w_.sessions * (end - begin));
  const auto start = Clock::now();
  for (std::size_t s = 0; s < w_.sessions; ++s) submit(s, begin, phase);
  pending_.wait();
  return ms_between(start, Clock::now());
}

void ServeRun::open_loop(std::size_t begin, std::size_t end) {
  const std::size_t total = w_.sessions * (end - begin);
  pending_.reset(total);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / w_.offered_rate));
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t j = 0; j < total; ++j) {
    const std::size_t s = order_[j % w_.sessions];
    const std::size_t e = begin + j / w_.sessions;
    const auto due = start + interval * static_cast<long>(j);
    // Sleep, not spin: a spinning generator would take a whole core from
    // the 3 workers on a 4-core host. Wake-up lateness is part of the
    // latency (timed from the due time) and shows in runtime.gen_late_ms.
    std::this_thread::sleep_until(due);
    records_[index(s, e)].due = due;
    submit(s, e, Phase::kOpen);
  }
  pending_.wait();
}

void ServeRun::checkpoint_all(std::size_t epoch) {
  for (const auto& planner : planners_) {
    ++result_.attempted;
    const auto c = run_checkpoint(*planner, dyn_.config);
    if (!c.ok()) {
      result_.fail("checkpoint at epoch " + std::to_string(epoch) + ": " +
                   c.describe());
    }
    drift_.push_back(c.drift());
    scratch_repair_ms_.push_back(c.scratch_stages.repair_ms);
    scratch_plan_ms_.push_back(c.scratch_ms());
    if (options_.trace) trace_checkpoint(log_, c, static_cast<double>(epoch));
  }
}

void ServeRun::replay_and_compare() {
  for (std::size_t k = 0; k < w_.replay_sessions; ++k) {
    const std::size_t s = order_[k];
    ++result_.attempted;
    dynamic::DynamicPlanner replay(points_[s], dyn_);
    for (const auto& mutations : traces_[s]) (void)replay.apply(mutations);
    if (runtime::snapshot_digest(replay) != service_.session_digest(ids_[s])) {
      result_.fail("session " + std::to_string(s) +
                   ": session_digest differs from a synchronous replay");
    }
  }
}

void ServeRun::check_round(std::size_t round) {
  const std::size_t timed_begin = w_.warmup_epochs;
  for (std::size_t s = 0; s < w_.sessions; ++s) {
    for (std::size_t e = 0; e < epochs_per_session_; ++e) {
      const auto& r = records_[index(s, e)];
      ++result_.attempted;
      if (!r.ok()) {
        result_.fail("session " + std::to_string(s) + " epoch " +
                     std::to_string(e + 1) + ": " +
                     runtime::to_string(r.status) +
                     (r.status == runtime::SessionStatus::kOk
                          ? " but valid=false"
                          : " " + r.error));
      }
      const EpochKey key(r.report);
      if (round == 0) {
        first_keys_.push_back(key);
        auto& f = result_.fingerprint;
        f.dirty_links += key.dirty_links;
        f.oracle_calls += key.oracle_calls;
        f.full_replans += key.full_replan ? 1 : 0;
        if (e >= timed_begin) {
          slots_sum_ += static_cast<double>(key.slots);
          ++slots_count_;
        }
      } else if (!(key == first_keys_[index(s, e)])) {
        result_.fail("round " + std::to_string(round + 1) + " session " +
                     std::to_string(s) + " epoch " + std::to_string(e + 1) +
                     " diverged from the first round on the same inputs");
      }
    }
    const auto digest = service_.session_digest(ids_[s]);
    if (round == 0) {
      first_digests_.push_back(digest);
      hash_mix(result_.fingerprint.plan_digest, digest);
    } else if (digest != first_digests_[s]) {
      result_.fail("round " + std::to_string(round + 1) + " session " +
                   std::to_string(s) + " ended on a different plan");
    }
  }

  // Closed-loop latency: submit to completion, 1 epoch in flight a session.
  const std::size_t open_begin = w_.warmup_epochs + w_.closed_epochs;
  std::vector<double> round_latency_ms;
  for (std::size_t s = 0; s < w_.sessions; ++s) {
    for (std::size_t e = w_.warmup_epochs; e < open_begin; ++e) {
      const auto& r = records_[index(s, e)];
      if (r.ok()) round_latency_ms.push_back(ms_between(r.sent, r.done));
    }
  }
  closed_round_p50_ms_.push_back(median(round_latency_ms));
  closed_latency_ms_.insert(closed_latency_ms_.end(), round_latency_ms.begin(),
                            round_latency_ms.end());

  // Open-loop latency and SLO bookkeeping, plus the traced spans.
  for (std::size_t s = 0; s < w_.sessions; ++s) {
    for (std::size_t e = open_begin; e < epochs_per_session_; ++e) {
      const auto& r = records_[index(s, e)];
      const double latency = ms_between(r.due, r.done);
      late_ms_.push_back(ms_between(r.due, r.sent));
      if (r.status == runtime::SessionStatus::kMailboxFull) ++rejects_;
      slo_flags_.push_back(r.ok() && latency <= w_.latency_limit_ms ? 1.0
                                                                    : 0.0);
      if (!r.ok()) continue;
      latency_ms_.push_back(latency);
      if (!options_.trace) continue;
      (traced(e) ? traced_latency_ms_ : untraced_latency_ms_)
          .push_back(latency);
      if (!traced(e)) continue;
      const auto op = log_.next_op();
      const auto root =
          log_.add({"epoch", 0, 0, op, log_.ns(r.due), log_.ns(r.done),
                    {{"session", double(s)},
                     {"epoch", double(e + 1)},
                     {"latency_ms", latency},
                     {"gen_late_ms", ms_between(r.due, r.sent)}}});
      Span call{"PlanService::submit_epoch", 0, root, op, log_.ns(r.sent),
                log_.ns(r.done),
                {{"queue_ms", r.queue_ms}, {"exec_ms", r.exec_ms}}};
      add_report_fields(call, r.report, r.before, r.after);
      log_.add(std::move(call));
    }
  }
}

RunResult ServeRun::run() {
  const double budget_ms = options_.seconds * 1000.0;
  const auto run_start = Clock::now();
  const std::size_t closed_begin = w_.warmup_epochs;
  const std::size_t open_begin = closed_begin + w_.closed_epochs;
  std::size_t rounds = 0;
  double open_ms = 0.0;
  while (true) {
    records_.assign(w_.sessions * epochs_per_session_, EpochRecord{});
    if (!open_sessions()) break;
    (void)closed_loop(0, closed_begin, Phase::kWarmup);
    closed_ms_ += closed_loop(closed_begin, open_begin, Phase::kClosed);
    closed_done_ += w_.sessions * w_.closed_epochs;
    const auto open_start = Clock::now();
    open_loop(open_begin, epochs_per_session_);
    open_ms += ms_between(open_start, Clock::now());
    if (rounds == 0) {
      checkpoint_all(epochs_per_session_);
      replay_and_compare();
    }
    check_round(rounds);
    close_sessions();
    ++rounds;
    if (!result_.correct || closed_ms_ + open_ms >= budget_ms ||
        ms_between(run_start, Clock::now()) > 120'000.0) {
      break;
    }
  }
  finish(rounds);
  return std::move(result_);
}

void ServeRun::finish(std::size_t rounds) {
  auto& f = result_.fingerprint;
  f.slots_mean = slots_count_ ? slots_sum_ / double(slots_count_) : 0.0;
  f.slot_drift = mean(drift_);
  const double slo_met = mean(slo_flags_);
  result_.end_to_end = {
      {"epochs_per_s",
       closed_ms_ > 0 ? double(closed_done_) / (closed_ms_ / 1000.0) : 0.0,
       "1/s"},
      {"epoch_ms_p50", mean(closed_round_p50_ms_), "ms"},
      {"epoch_ms_tail", percentile(closed_latency_ms_, w_.tail_p), "ms"},
      {"slots_mean", f.slots_mean, "slots"},
      {"slot_drift", f.slot_drift, "ratio"},
      {"setup_s", median(setup_ms_) / 1000.0, "s"},
      {"slo_met_frac", slo_met, "fraction"},
  };

  std::ostringstream line;
  const auto add_note = [&] {
    result_.notes.push_back(line.str());
    line.str("");
  };
  line << "instance: " << w_.sessions << " PlanService sessions on "
       << w_.workers << " executor workers + 1 generator thread; per session "
       << "uniform family, n=" << w_.n << ", " << w_.churn_rate * 100
       << "% mixed churn, power " << core::to_string(w_.mode);
  add_note();
  line << "rounds " << rounds << "; per session per round " << w_.warmup_epochs
       << " warm-up epochs (untimed), " << w_.closed_epochs
       << " closed-loop epochs (1 in flight per session), " << w_.open_epochs
       << " open-loop epochs at " << format_number(w_.offered_rate)
       << " epochs/s offered (fixed spacing, seeded round-robin order)";
  add_note();
  for (const auto& m : result_.end_to_end) {
    line << m.name << " " << format_number(m.value) << " " << m.unit;
    if (m.name == "epochs_per_s") {
      line << " (closed loop: " << closed_done_ << " epochs in "
           << format_number(closed_ms_ / 1000.0) << " s)";
    } else if (m.name == "epoch_ms_p50") {
      line << " (closed loop, " << w_.sessions
           << " clients, submit to completion: median of each round's "
           << w_.sessions * w_.closed_epochs << " samples, mean over "
           << closed_round_p50_ms_.size() << " rounds)";
    } else if (m.name == "epoch_ms_tail") {
      line << " (closed loop, p" << format_number(w_.tail_p) << " of "
           << closed_latency_ms_.size() << " samples, "
           << count_beyond(closed_latency_ms_, w_.tail_p) << " beyond)";
    } else if (m.name == "slot_drift") {
      line << " (mean over " << drift_.size()
           << " session checkpoints at the end of the first round)";
    } else if (m.name == "setup_s") {
      line << " (opening all sessions; median of " << setup_ms_.size() << ")";
    } else if (m.name == "slo_met_frac") {
      line << " (open-loop epochs ok and within "
           << format_number(w_.latency_limit_ms) << " ms)";
    }
    add_note();
  }
  line << "failed_frac "
       << format_number(result_.attempted ? double(result_.failed) /
                                                double(result_.attempted)
                                          : 0.0)
       << " fraction (" << result_.failed << " of " << result_.attempted
       << " operations incl. opens, checkpoints and replays)";
  add_note();
  line << "slo_miss_frac " << format_number(1.0 - slo_met) << " fraction";
  add_note();
  line << "open-loop latency (due time to completion, unbounded): p50 "
       << format_number(median(latency_ms_)) << " ms, p"
       << format_number(w_.tail_p) << " "
       << format_number(percentile(latency_ms_, w_.tail_p)) << " ms of "
       << latency_ms_.size() << " samples ("
       << count_beyond(latency_ms_, w_.tail_p) << " beyond); generator late "
       << format_number(mean(late_ms_)) << " ms mean";
  add_note();

  if (!options_.trace) return;

  LayerSums sums;
  double exec_sum = 0.0;
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<double> late_ms;
  for (const auto& span : log_.spans()) {
    const std::string_view name = span.name;
    if (name == "epoch") {
      late_ms.push_back(span.field("gen_late_ms"));
    } else if (name == "PlanService::submit_epoch") {
      sums.ops += 1;
      sums.add(span);
      queue_ms.push_back(span.field("queue_ms"));
      exec_ms.push_back(span.field("exec_ms"));
      exec_sum += span.field("exec_ms");
    }
  }
  result_.per_layer = library_layers(sums, mean(scratch_repair_ms_),
                                     mean(scratch_plan_ms_), false);
  const double p50_untraced = median(untraced_latency_ms_);
  const double ops = std::max(sums.ops, 1.0);
  result_.per_layer.insert(
      result_.per_layer.end(),
      {{"runtime.queue_ms_p50", median(queue_ms), "ms", true},
       {"runtime.queue_ms_tail", percentile(queue_ms, w_.tail_p), "ms", true},
       {"runtime.exec_ms_p50", median(exec_ms), "ms", true},
       {"runtime.mailbox_rejects", double(rejects_), "count", true},
       {"runtime.gen_late_ms", mean(late_ms), "ms", true},
       {"runtime.latency_ms_p50", median(latency_ms_), "ms", true},
       {"runtime.latency_ms_tail", percentile(latency_ms_, w_.tail_p), "ms",
        true},
       {"trace.overhead_frac",
        p50_untraced > 0
            ? (median(traced_latency_ms_) - p50_untraced) / p50_untraced
            : 0.0,
        "fraction", true},
       {"trace.op_ms", exec_sum / ops, "ms", true},
       {"trace.unattributed_ms", (exec_sum - sums.layer_ms()) / ops, "ms",
        true}});
  line << "traced run: every other open-loop epoch traced ("
       << traced_latency_ms_.size() << " traced, "
       << untraced_latency_ms_.size()
       << " untraced); layer values are means per traced epoch; the "
          "operation is the epoch's execution on a worker (exec_ms)";
  add_note();
  if (!options_.out_dir.empty()) {
    const std::string path = options_.out_dir + "/spans-serve-small-seed" +
                             std::to_string(options_.seed) + ".json";
    log_.write_chrome_json(path);
    line << "spans written to " << path;
    add_note();
  }
}

}  // namespace

RunResult run_serve(const RunOptions& options) {
  ServeRun run(kServe, options);
  return run.run();
}

}  // namespace perfbench
