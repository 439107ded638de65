// churn-global and churn-noisy: one DynamicPlanner session at a time,
// replaying seeded churn traces round after round until the timed window is
// full.
//
// The seed generates a few instances, each with its own churn trace; rounds
// cycle through them, so one run's figures do not hang on one instance. A
// round constructs a fresh planner (the set-up sample), applies a warm-up
// prefix of epochs (untimed) and then the timed epochs. A round replays the
// same inputs every time its instance comes up, so it must produce the same
// reports: the first round on each instance defines the deterministic
// outputs (slots_mean, slot_drift, dirty links, oracle calls, full replans)
// and later rounds are checked against it. Checkpoints run in those first
// rounds only, outside the timed window.

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
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

struct ChurnWorkload {
  const char* name;
  const char* why;
  std::size_t n;
  double churn_rate;  ///< mixed add/remove/move, per node per epoch
  core::PowerMode mode;
  double noise;
  /// The operation is apply() followed by slot_powers() (global mode: a
  /// schedule cannot be deployed without its powers).
  bool slot_powers;
  std::size_t instances;      ///< generated per seed; rounds cycle them
  std::size_t warmup_epochs;  ///< per round, excluded from timing
  std::size_t timed_epochs;   ///< per round
  /// Epoch numbers (1 = first epoch after construction) at which the first
  /// round compares against a from-scratch plan and verifies the snapshot.
  std::vector<std::size_t> checkpoints;
  double tail_p;            ///< percentile reported as epoch_ms_tail
  double latency_limit_ms;  ///< slo_met_frac counts operations within it
};

const ChurnWorkload kChurnGlobal{
    "churn-global",
    "repair and per-slot power materialization dominate the epoch",
    2048, 0.01, core::PowerMode::kGlobal, 0.0, true,
    6, 5, 40, {25, 45}, 95.0, 100.0};

const ChurnWorkload kChurnNoisy{
    "churn-noisy",
    "noise > 0 forces the full-replan fallback every epoch",
    1024, 0.01, core::PowerMode::kUniform, 1e-9, false,
    6, 5, 60, {35, 65}, 95.0, 100.0};

const ChurnWorkload& find_workload(const std::string& name) {
  if (name == kChurnGlobal.name) return kChurnGlobal;
  if (name == kChurnNoisy.name) return kChurnNoisy;
  throw std::invalid_argument("not a churn workload: " + name);
}

}  // namespace

bool is_churn_workload(const std::string& name) {
  return name == kChurnGlobal.name || name == kChurnNoisy.name;
}

RunResult run_churn(const RunOptions& options) {
  const ChurnWorkload& w = find_workload(options.workload);
  RunResult result;

  // ---- inputs: generated from the seed, outside every timed window ----
  dynamic::ChurnParams params;
  params.epochs = w.warmup_epochs + w.timed_epochs;
  params.rate = w.churn_rate;
  std::vector<geom::Pointset> instances;
  std::vector<dynamic::ChurnTrace> traces;
  for (std::size_t k = 0; k < w.instances; ++k) {
    const std::uint64_t seed = options.seed * 1000003ULL + k;
    instances.push_back(workload::make_family("uniform", w.n, seed));
    traces.push_back(dynamic::make_churn_trace(instances.back(), params, seed));
    hash_mix(result.fingerprint.trace_digest,
             digest_inputs(instances.back(), traces.back()));
  }

  dynamic::DynamicOptions dyn;
  dyn.config = workload::mode_config(w.mode);
  dyn.config.sinr.noise = w.noise;

  SpanLog log;
  std::vector<double> setup_ms;
  std::vector<double> op_ms;         // every timed operation
  std::vector<double> round_ms;      // the current round's timed operations
  std::vector<double> round_p50_ms;  // each round's median operation
  std::vector<double> traced_ms;     // trace run: the traced half
  std::vector<double> untraced_ms;   // trace run: the untraced half
  std::vector<double> slo_flags;     // 1 = met the latency limit
  std::vector<double> drift;         // incremental / scratch slots
  std::vector<double> scratch_repair_ms;
  std::vector<double> scratch_plan_ms;
  std::vector<std::vector<EpochKey>> first_keys(w.instances);
  std::vector<std::uint64_t> first_digests(w.instances);
  double timed_ms = 0.0;
  double slots_sum = 0.0;
  const double budget_ms = options.seconds * 1000.0;
  const auto run_start = Clock::now();
  std::size_t rounds = 0;
  bool stop = false;

  const auto checkpoint = [&](const dynamic::DynamicPlanner& planner,
                              std::size_t epoch) {
    ++result.attempted;
    const auto c = run_checkpoint(planner, dyn.config);
    if (!c.ok()) {
      result.fail("checkpoint at epoch " + std::to_string(epoch) + ": " +
                  c.describe());
    }
    drift.push_back(c.drift());
    scratch_repair_ms.push_back(c.scratch_stages.repair_ms);
    scratch_plan_ms.push_back(c.scratch_ms());
    if (options.trace) trace_checkpoint(log, c, static_cast<double>(epoch));
  };

  for (; !stop; ++rounds) {
    const std::size_t k = rounds % w.instances;
    const bool first = rounds < w.instances;  // first round on instance k
    round_ms.clear();
    const auto& trace = traces[k];
    auto& keys = first_keys[k];
    // ---- set-up: construction (+ the first slot_powers for global) ----
    const auto s0 = Clock::now();
    std::unique_ptr<dynamic::DynamicPlanner> planner;
    ++result.attempted;
    try {
      planner = std::make_unique<dynamic::DynamicPlanner>(instances[k], dyn);
      if (w.slot_powers) (void)planner->slot_powers();
    } catch (const std::exception& e) {
      result.fail(std::string("planner construction threw: ") + e.what());
      break;
    }
    const auto s1 = Clock::now();
    setup_ms.push_back(ms_between(s0, s1));
    if (!planner->last_report().valid) {
      result.fail("initial plan is not valid");
      break;
    }
    if (options.trace) {
      log.add({"setup", 0, 0, log.next_op(), log.ns(s0), log.ns(s1), {}});
    }

    for (std::size_t e = 0; e < trace.size(); ++e) {
      const bool timed = e >= w.warmup_epochs;
      const bool traced =
          options.trace && timed && (e - w.warmup_epochs) % 2 == 0;
      const auto before = traced ? planner->conflict_index().stats()
                                 : conflict::ConflictIndexStats{};
      dynamic::EpochReport applied;  // as apply() returned it
      dynamic::EpochReport report;   // after slot_powers() too
      Clock::time_point t0;
      Clock::time_point t1;
      Clock::time_point t2;
      ++result.attempted;
      try {
        t0 = Clock::now();
        applied = planner->apply(trace[e]);
        t1 = Clock::now();
        if (w.slot_powers) (void)planner->slot_powers();
        t2 = Clock::now();
        report = planner->last_report();
      } catch (const std::exception& ex) {
        result.fail("epoch " + std::to_string(e + 1) + " threw: " + ex.what());
        stop = true;
        break;
      }
      if (!report.valid) {
        result.fail("epoch " + std::to_string(e + 1) + " returned valid=false");
      }
      const double ms = ms_between(t0, t2);

      if (first) {
        keys.emplace_back(report);
        result.fingerprint.dirty_links += report.dirty_links;
        result.fingerprint.oracle_calls += report.oracle_calls;
        result.fingerprint.full_replans += report.full_replan ? 1 : 0;
        if (timed) slots_sum += static_cast<double>(report.slots);
      } else if (!(EpochKey(report) == keys[e])) {
        result.fail("round " + std::to_string(rounds + 1) + " epoch " +
                    std::to_string(e + 1) +
                    " diverged from the first round on the same inputs");
      }

      if (timed) {
        timed_ms += ms;
        op_ms.push_back(ms);
        round_ms.push_back(ms);
        slo_flags.push_back(report.valid && ms <= w.latency_limit_ms ? 1.0
                                                                     : 0.0);
        if (options.trace) (traced ? traced_ms : untraced_ms).push_back(ms);
      }
      if (traced) {
        const auto after = planner->conflict_index().stats();
        const auto op = log.next_op();
        const auto root = log.add({"op", 0, 0, op, log.ns(t0), log.ns(t2),
                                   {{"epoch", double(e + 1)}}});
        Span apply{"DynamicPlanner::apply", 0, root, op, log.ns(t0),
                   log.ns(t1), {}};
        add_report_fields(apply, applied, before, after);
        log.add(std::move(apply));
        if (w.slot_powers) {
          log.add({"DynamicPlanner::slot_powers", 0, root, op, log.ns(t1),
                   log.ns(t2),
                   {{"power_ms", report.timings.power_ms},
                    {"power_slots_cached", double(report.power_slots_cached)},
                    {"power_slots_computed",
                     double(report.power_slots_computed)}}});
        }
      }
      if (first && std::find(w.checkpoints.begin(), w.checkpoints.end(),
                              e + 1) != w.checkpoints.end()) {
        checkpoint(*planner, e + 1);
      }
    }
    if (stop) break;
    round_p50_ms.push_back(median(round_ms));
    const auto digest = runtime::snapshot_digest(*planner);
    if (first) {
      first_digests[k] = digest;
      hash_mix(result.fingerprint.plan_digest, digest);
    } else if (digest != first_digests[k]) {
      result.fail("round " + std::to_string(rounds + 1) +
                  " ended on a different plan than the first on its instance");
    }
    stop = rounds + 1 >= w.instances &&
           (timed_ms >= budget_ms ||
            ms_between(run_start, Clock::now()) > 120'000.0);
  }

  // ---- end-to-end metrics ----
  auto& f = result.fingerprint;
  f.slots_mean = slots_sum / static_cast<double>(w.timed_epochs * w.instances);
  f.slot_drift = mean(drift);
  const double seconds = timed_ms / 1000.0;
  const double tail = percentile(op_ms, w.tail_p);
  const double slo_met = mean(slo_flags);
  result.end_to_end = {
      {"epochs_per_s", seconds > 0 ? double(op_ms.size()) / seconds : 0.0,
       "1/s"},
      {"epoch_ms_p50", mean(round_p50_ms), "ms"},
      {"epoch_ms_tail", tail, "ms"},
      {"slots_mean", f.slots_mean, "slots"},
      {"slot_drift", f.slot_drift, "ratio"},
      {"setup_s", median(setup_ms) / 1000.0, "s"},
      {"slo_met_frac", slo_met, "fraction"},
  };

  std::ostringstream line;
  const auto add_note = [&](std::ostringstream& s) {
    result.notes.push_back(s.str());
    s.str("");
  };
  line << "instances: " << w.instances << " per seed, uniform family, n="
       << w.n << ", "
       << w.churn_rate * 100 << "% mixed churn, power "
       << core::to_string(w.mode) << ", noise " << format_number(w.noise)
       << "; operation = apply()" << (w.slot_powers ? " + slot_powers()" : "")
       << "; why: " << w.why;
  add_note(line);
  line << "rounds " << rounds << ", epochs per round "
       << w.warmup_epochs << " warm-up (untimed) + " << w.timed_epochs
       << " timed; timed operations " << op_ms.size() << " in "
       << format_number(seconds) << " s";
  add_note(line);
  for (const auto& m : result.end_to_end) {
    line << m.name << " " << format_number(m.value) << " " << m.unit;
    if (m.name == "epoch_ms_p50") {
      line << " (median of each round's " << w.timed_epochs
           << " timed operations, mean over " << round_p50_ms.size()
           << " rounds; median of all " << op_ms.size() << " samples "
           << format_number(median(op_ms)) << " ms)";
    } else if (m.name == "epoch_ms_tail") {
      line << " (p" << format_number(w.tail_p) << " of " << op_ms.size()
           << " samples, " << count_beyond(op_ms, w.tail_p) << " beyond)";
    } else if (m.name == "slot_drift") {
      line << " (mean over checkpoint epochs";
      for (const auto c : w.checkpoints) line << " " << c;
      line << " of each instance: incremental slots / core::plan_aggregation "
              "slots)";
    } else if (m.name == "setup_s") {
      line << " (median of " << setup_ms.size() << " set-ups)";
    } else if (m.name == "slo_met_frac") {
      line << " (limit " << format_number(w.latency_limit_ms) << " ms)";
    }
    add_note(line);
  }
  line << "failed_frac "
       << format_number(result.attempted
                            ? double(result.failed) / double(result.attempted)
                            : 0.0)
       << " fraction (" << result.failed << " of " << result.attempted
       << " operations incl. set-ups and checkpoints)";
  add_note(line);
  line << "slo_miss_frac " << format_number(1.0 - slo_met) << " fraction";
  add_note(line);

  if (!options.trace) return result;

  // ---- per-layer metrics, from the traced operations' spans ----
  LayerSums sums;
  double op_sum_ms = 0.0;
  for (const auto& span : log.spans()) {
    const std::string_view name = span.name;
    if (name == "op") {
      sums.ops += 1;
      op_sum_ms += span.ms();
    } else if (name == "DynamicPlanner::apply" ||
               name == "DynamicPlanner::slot_powers") {
      sums.add(span);
    }
  }
  const double op_mean_ms = sums.ops > 0 ? op_sum_ms / sums.ops : 0.0;
  const double unattributed_ms =
      sums.ops > 0 ? (op_sum_ms - sums.layer_ms()) / sums.ops : 0.0;
  const double p50_untraced = median(untraced_ms);
  result.per_layer = library_layers(sums, mean(scratch_repair_ms),
                                    mean(scratch_plan_ms), w.slot_powers);
  for (const char* name :
       {"runtime.queue_ms_p50", "runtime.queue_ms_tail", "runtime.exec_ms_p50",
        "runtime.gen_late_ms", "runtime.latency_ms_p50",
        "runtime.latency_ms_tail"}) {
    result.per_layer.push_back({name, 0.0, "ms", false});
  }
  result.per_layer.push_back({"runtime.mailbox_rejects", 0.0, "count", false});
  result.per_layer.push_back(
      {"trace.overhead_frac",
       p50_untraced > 0 ? (median(traced_ms) - p50_untraced) / p50_untraced
                        : 0.0,
       "fraction", true});
  result.per_layer.push_back({"trace.op_ms", op_mean_ms, "ms", true});
  result.per_layer.push_back(
      {"trace.unattributed_ms", unattributed_ms, "ms", true});
  line << "traced run: every other timed operation traced (" << traced_ms.size()
       << " traced, " << untraced_ms.size()
       << " untraced); layer values are means per traced operation";
  add_note(line);
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/spans-" + w.name + "-seed" +
                             std::to_string(options.seed) + ".json";
    log.write_chrome_json(path);
    line << "spans written to " << path;
    add_note(line);
  }
  return result;
}

}  // namespace perfbench
