// Perf observatory suite driver: runs the canonical scenario matrix with
// warmup + median-of-k timing, captures the full obs::Registry snapshot per
// scenario, and emits a versioned `wagg-bench-v1` trajectory file that the
// comparator gates future runs against.
//
//   ./wagg_bench                                  # full matrix, stdout only
//   ./wagg_bench --repeat=5 --warmup=1 --out=BENCH_2026-08-08.json
//   ./wagg_bench --quick                          # small matrix (CI smoke)
//   ./wagg_bench --profile-out=profile.txt        # per-stage self-time tables
//   ./wagg_bench --compare old.json new.json      # noise-aware verdicts
//   ./wagg_bench --compare old.json new.json --portable-only
//   ./wagg_bench --profile trace.json             # offline span profile
//
// The matrix: static batch families, churn sessions at n x rate (including
// grow:/shrink: size-varying schedules), and a PlanService session-
// throughput row. Per churn scenario the suite also runs one untimed
// profiled repeat and checks the per-stage identity: each stage's exclusive
// span ms/epoch must equal the mean EpochTimings field it bills within 1%
// (2 us floor) — the span tree and the timing fields read one stage clock,
// so a mismatch means a stage is billed outside its span.
//
// Every run also gates the 1%-churn scenarios: zero full replans,
// conflict_share <= 0.45, mst_share <= 0.9, epoch_share (mean epoch over
// the session's construction epoch) <= 1/1.4, and a tracing-disabled
// overhead of at most 2% of the epoch. A failed gate exits nonzero.
//
// --compare exits nonzero when any gated metric regressed beyond its
// noise tolerance (median +/- MAD-derived band, direction-aware; see
// obs/bench.h). --portable-only gates only the hardware-portable ratio
// metrics — the mode for comparing against a baseline recorded on
// different hardware.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <ctime>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "conflict/conflict_index.h"
#include "core/planner.h"
#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "mst/mst.h"
#include "obs/bench.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/plan_service.h"
#include "util/args.h"
#include "util/clock.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/workload.h"

namespace wagg {
namespace {

/// Keeps a computed value observable without linking google-benchmark.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Per-stage identity: span ms/epoch vs the EpochTimings field it bills.
constexpr double kStageIdentityTolerance = 0.01;
constexpr double kStageIdentityFloorMs = 0.002;
// 1%-churn gates. With the diff-maintained row cache the conflict layer
// runs at ~0.2x the from-scratch rebuild baseline; losing the cache puts it
// back at ~0.5-0.75x, reinstating the O(n) rebuild at >= 1.5x, so 0.45 fails
// both with ~2x headroom. The dynamic-tree engine runs at a small fraction
// of a from-scratch euclidean_mst, while a per-mutation O(n) engine sits
// above 0.9.
constexpr double kMaxConflictShare = 0.45;
constexpr double kMaxMstShare = 0.9;
/// An incremental epoch must beat the session's construction epoch (a
/// full plan of the same instance) by at least 1.4x.
constexpr double kMaxEpochShare = 1.0 / 1.4;
/// Disabled tracing may cost at most this fraction of an epoch.
constexpr double kMaxTraceOverhead = 0.02;

struct SuiteOptions {
  std::size_t repeats = 5;
  std::size_t warmup = 1;
  bool quick = false;
  std::string out_path;
  std::string profile_out;
  std::string label;
  std::size_t top_k = 12;
};

// --------------------------------------------------------------- scenarios

struct ChurnSpec {
  std::string family = "uniform";
  std::size_t n = 1024;
  double rate = 0.01;
  double grow = 0.0;
  double shrink = 0.0;
  std::size_t epochs = 8;

  /// The steady low-churn shape the share and full-replan gates apply to.
  [[nodiscard]] bool gated() const {
    return rate == 0.01 && grow == 0.0 && shrink == 0.0;
  }

  [[nodiscard]] std::string name() const {
    std::ostringstream out;
    out << "churn/" << family << "/n" << n;
    if (grow > 0.0) {
      out << "/grow" << util::format_double(grow, 3);
    } else if (shrink > 0.0) {
      out << "/shrink" << util::format_double(shrink, 3);
    } else {
      out << "/r" << util::format_double(rate, 3);
    }
    return out.str();
  }
};

/// One reported EpochTimings stage; the stage span of the same name bills
/// it.
struct StageField {
  const char* name;
  double dynamic::EpochTimings::*ms;
};

const std::vector<StageField>& stage_fields() {
  using T = dynamic::EpochTimings;
  static const std::vector<StageField> fields = {
      {"mst_update", &T::mst_update_ms},
      {"orient", &T::orient_ms},
      {"conflict_maintain", &T::conflict_maintain_ms},
      {"conflict_query", &T::conflict_query_ms},
      {"recolor", &T::recolor_ms},
      {"repair", &T::repair_ms},
  };
  return fields;
}

struct ChurnRepeat {
  double epoch_ms = 0.0;
  dynamic::EpochTimings mean;  ///< per-epoch mean of every stage field
  std::size_t dirty_links = 0;
  std::size_t epochs = 0;
  std::size_t full_replans = 0;
  bool valid = true;
};

/// Applies the whole trace to a fresh-session planner, returning per-epoch
/// mean stage costs. The caller owns registry windowing.
ChurnRepeat run_churn_epochs(dynamic::DynamicPlanner& planner,
                             const dynamic::ChurnTrace& trace) {
  ChurnRepeat result;
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    result.epoch_ms += report.timings.incremental_ms();
    for (const auto& stage : stage_fields()) {
      result.mean.*stage.ms += report.timings.*stage.ms;
    }
    result.dirty_links += report.dirty_links;
    result.valid = result.valid && report.valid;
    if (report.full_replan) ++result.full_replans;
    ++result.epochs;
  }
  const auto epochs = static_cast<double>(std::max<std::size_t>(1,
                                                                result.epochs));
  result.epoch_ms /= epochs;
  for (const auto& stage : stage_fields()) result.mean.*stage.ms /= epochs;
  return result;
}

/// Best-of-k from-scratch Euclidean MST (cone-star Prim) wall clock — the
/// per-epoch tree bill of a non-incremental engine, and the denominator of
/// the portable mst_share.
double emst_baseline_ms(const geom::Pointset& points) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = util::Clock::now();
    const auto edges = mst::euclidean_mst(points);
    do_not_optimize(edges.size());
    best = std::min(best, util::ms_since(start));
  }
  return best;
}

/// Best-of-k from-scratch conflict walk answering `queries` rows (a
/// transient ConflictIndex over the snapshot, then its row walk) — the
/// index-free per-epoch bill, and the denominator of conflict_share.
double scratch_rows_baseline_ms(const dynamic::DynamicPlanner& planner,
                                const core::PlannerConfig& config,
                                std::size_t avg_dirty) {
  const auto& links = planner.snapshot().links;
  const auto spec = core::spec_for_mode(config);
  std::vector<std::size_t> queries(
      std::min(links.size(), std::max<std::size_t>(1, avg_dirty)));
  for (std::size_t i = 0; i < queries.size(); ++i) queries[i] = i;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = util::Clock::now();
    const auto rows =
        conflict::ConflictIndex::of(links).neighbors(links, spec, queries);
    do_not_optimize(rows.size());
    best = std::min(best, util::ms_since(start));
  }
  return best;
}

struct ScenarioRun {
  obs::BenchScenario scenario;
  std::string profile_table;
  /// One line per failed gate (stage identity, shares, overhead).
  std::vector<std::string> gate_failures;
  bool valid = true;
};

/// Per-call cost of a span on a disabled tracer: what instrumentation left
/// in the hot path costs when nobody traces.
double disabled_span_ms() {
  constexpr int kReps = 1'000'000;
  const auto start = util::Clock::now();
  for (int i = 0; i < kReps; ++i) {
    obs::Span probe("overhead-probe");
    do_not_optimize(probe);
  }
  return util::ms_since(start) / kReps;
}

ScenarioRun run_churn_scenario(const ChurnSpec& spec,
                               const SuiteOptions& suite) {
  ScenarioRun run;
  run.scenario.name = spec.name();
  run.scenario.kind = "churn";

  dynamic::ChurnParams params;
  params.epochs = spec.epochs;
  params.rate = spec.rate;
  params.grow_rate = spec.grow;
  params.shrink_rate = spec.shrink;
  const auto points = workload::make_family(spec.family, spec.n, 3);
  const auto trace = dynamic::make_churn_trace(points, params, 17);

  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);

  for (std::size_t i = 0; i < suite.warmup; ++i) {
    dynamic::DynamicPlanner planner(points, options);
    const auto warm = run_churn_epochs(planner, trace);
    do_not_optimize(warm.epoch_ms);
  }

  std::vector<ChurnRepeat> measured;
  std::vector<double> emst_baselines, rows_baselines, construction_ms;
  for (std::size_t i = 0; i < suite.repeats; ++i) {
    auto planner = std::make_unique<dynamic::DynamicPlanner>(points, options);
    construction_ms.push_back(
        planner->last_report().timings.incremental_ms());
    // Window the registry on the mutation epochs (the construction full
    // plan would dominate the histograms).
    obs::Registry::global().reset();
    measured.push_back(run_churn_epochs(*planner, trace));
    run.valid = run.valid && measured.back().valid;
    // Measure the from-scratch baselines inside the repeat, seconds from
    // the incremental numbers they normalize: a host-regime shift then
    // scales both sides of each share and cancels. One late measurement
    // (the old shape) bakes a single denominator sample into every
    // repeat, hiding its run-to-run noise from the MAD entirely.
    const std::size_t avg_dirty =
        measured.back().dirty_links /
        std::max<std::size_t>(1, measured.back().epochs);
    emst_baselines.push_back(emst_baseline_ms(planner->snapshot().points));
    rows_baselines.push_back(
        scratch_rows_baseline_ms(*planner, options.config, avg_dirty));
  }
  run.scenario.registry = obs::Registry::global().snapshot();

  const auto column = [&measured](auto getter) {
    std::vector<double> values;
    values.reserve(measured.size());
    for (const auto& repeat : measured) values.push_back(getter(repeat));
    return values;
  };
  const auto add_ms = [&run, &column](const std::string& name, auto getter) {
    run.scenario.metrics.emplace(
        name, obs::BenchMetric::of(column(getter), "ms"));
  };
  add_ms("epoch_ms", [](const ChurnRepeat& r) { return r.epoch_ms; });
  for (const auto& stage : stage_fields()) {
    add_ms(std::string(stage.name) + "_ms",
           [&stage](const ChurnRepeat& r) { return r.mean.*stage.ms; });
  }

  // Portable ratios: per-epoch incremental stage cost over an in-process
  // from-scratch baseline measured on the same host, same build, same
  // instant — the only numbers a baseline recorded on other hardware can
  // fairly gate. Each repeat carries its own baseline sample (see the
  // repeat loop), so the ratio's MAD reflects denominator noise too.
  std::vector<double> mst_share, conflict_share, epoch_share;
  std::size_t full_replans = 0;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    const auto& r = measured[i];
    full_replans += r.full_replans;
    // The construction epoch is a full plan of the same instance, clocked
    // by the same stage spans: the free from-scratch denominator.
    epoch_share.push_back(construction_ms[i] > 0.0
                              ? r.epoch_ms / construction_ms[i]
                              : 0.0);
    mst_share.push_back(emst_baselines[i] > 0.0
                            ? r.mean.mst_ms() / emst_baselines[i]
                            : 0.0);
    conflict_share.push_back(rows_baselines[i] > 0.0
                                 ? r.mean.conflict_ms() / rows_baselines[i]
                                 : 0.0);
  }
  run.scenario.metrics.emplace(
      "mst_share",
      obs::BenchMetric::of(std::move(mst_share), "ratio",
                           /*higher_is_better=*/false, /*portable=*/true));
  run.scenario.metrics.emplace(
      "conflict_share",
      obs::BenchMetric::of(std::move(conflict_share), "ratio",
                           /*higher_is_better=*/false, /*portable=*/true));
  run.scenario.metrics.emplace(
      "epoch_share",
      obs::BenchMetric::of(std::move(epoch_share), "ratio",
                           /*higher_is_better=*/false, /*portable=*/true));
  const auto& metrics = run.scenario.metrics;
  const auto fail = [&run](std::ostringstream& message) {
    run.gate_failures.push_back(message.str());
  };
  if (spec.gated()) {
    const auto gate_share = [&](const char* name, double limit,
                                const char* why) {
      const double value = metrics.at(name).median;
      if (value > limit) {
        std::ostringstream message;
        message << name << " " << util::format_double(value, 4) << " > "
                << util::format_double(limit, 4) << " — " << why;
        fail(message);
      }
    };
    gate_share("conflict_share", kMaxConflictShare,
               "the conflict index is no longer O(dirty)");
    gate_share("mst_share", kMaxMstShare,
               "tree updates are no longer localized");
    gate_share("epoch_share", kMaxEpochShare,
               "an epoch no longer beats a full plan by 1.4x");
    if (full_replans != 0) {
      std::ostringstream message;
      message << full_replans << " low-churn epochs re-planned every link";
      fail(message);
    }
  }

  // Untimed profiled repeat: collapse the epoch span tree into the
  // per-stage self-time table and check that each stage's exclusive span
  // time per epoch equals the mean EpochTimings field it bills.
  {
    auto& tracer = obs::Tracer::global();
    tracer.enable();
    dynamic::DynamicPlanner planner(points, options);
    tracer.clear();  // window the trace on mutation epochs
    const auto profiled = run_churn_epochs(planner, trace);
    tracer.disable();
    const std::uint64_t spans = tracer.recorded_events();
    const std::uint64_t dropped = tracer.dropped_events();
    const auto profile = obs::profile_global_tracer();
    tracer.clear();
    run.profile_table = profile.table(suite.top_k);
    if (profile.malformed_spans != 0 || dropped != 0 ||
        profile.root_count != profiled.epochs) {
      std::ostringstream message;
      message << "span profile unusable: " << profile.malformed_spans
              << " malformed, " << dropped << " dropped, "
              << profile.root_count << " roots for " << profiled.epochs
              << " epochs";
      fail(message);
    }
    for (const auto& stage : stage_fields()) {
      double span_ms = 0.0;
      for (const auto& row : profile.rows) {
        if (row.name == stage.name) span_ms += row.exclusive_per_root_ms;
      }
      const double field_ms = profiled.mean.*stage.ms;
      if (std::abs(span_ms - field_ms) >
          std::max(kStageIdentityTolerance * field_ms,
                   kStageIdentityFloorMs)) {
        std::ostringstream message;
        message << "stage identity broken: " << stage.name << " spans "
                << util::format_double(span_ms, 4) << " ms/epoch vs "
                << stage.name << "_ms " << util::format_double(field_ms, 4);
        fail(message);
      }
    }
    // Priced, not timed: epoch wall clocks are far noisier than 2%, so the
    // gate multiplies the spans one epoch opens by the disabled-span cost.
    if (spec.gated() && profiled.epochs > 0) {
      const double per_epoch = static_cast<double>(spans) /
                               static_cast<double>(profiled.epochs);
      const double overhead_ms = per_epoch * disabled_span_ms();
      const double budget_ms =
          kMaxTraceOverhead * metrics.at("epoch_ms").median;
      if (overhead_ms > budget_ms) {
        std::ostringstream message;
        message << "disabled tracing costs "
                << util::format_double(overhead_ms, 5) << " ms/epoch ("
                << util::format_double(per_epoch, 1) << " spans) > "
                << util::format_double(budget_ms, 5)
                << " — the disabled span path is no longer one relaxed load";
        fail(message);
      }
    }
  }
  return run;
}

ScenarioRun run_static_scenario(const std::string& family, std::size_t n,
                                const SuiteOptions& suite) {
  ScenarioRun run;
  run.scenario.name = "static/" + family + "/n" + std::to_string(n);
  run.scenario.kind = "static";

  runtime::PlanRequest request;
  request.points = workload::make_family(family, n, 3);
  request.config = workload::mode_config(core::PowerMode::kGlobal);

  const auto once = [&request]() {
    return runtime::execute_request(request, 0);
  };
  for (std::size_t i = 0; i < suite.warmup; ++i) {
    do_not_optimize(once().total_ms);
  }
  std::vector<double> plan_ms, tree_ms, conflict_ms;
  obs::Registry::global().reset();
  for (std::size_t i = 0; i < suite.repeats; ++i) {
    const auto outcome = once();
    run.valid = run.valid && outcome.ok;
    plan_ms.push_back(outcome.total_ms);
    tree_ms.push_back(outcome.timings.tree_ms);
    conflict_ms.push_back(outcome.timings.conflict_ms);
  }
  run.scenario.registry = obs::Registry::global().snapshot();
  run.scenario.metrics.emplace("plan_ms",
                               obs::BenchMetric::of(std::move(plan_ms), "ms"));
  run.scenario.metrics.emplace("tree_ms",
                               obs::BenchMetric::of(std::move(tree_ms), "ms"));
  run.scenario.metrics.emplace(
      "conflict_ms", obs::BenchMetric::of(std::move(conflict_ms), "ms"));
  return run;
}

ScenarioRun run_service_scenario(std::size_t sessions, std::size_t n,
                                 std::size_t epochs,
                                 const SuiteOptions& suite) {
  ScenarioRun run;
  run.scenario.name = "service/sessions" + std::to_string(sessions) + "/n" +
                      std::to_string(n);
  run.scenario.kind = "service";

  // A batch of churn-session requests over the worker pool: the serving-
  // shaped scenario. Throughput reads from the BatchStats session hooks.
  std::vector<runtime::PlanRequest> requests;
  requests.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    runtime::PlanRequest request;
    request.points = workload::make_family("uniform", n, 3 + s);
    request.config = workload::mode_config(core::PowerMode::kGlobal);
    dynamic::ChurnParams params;
    params.epochs = epochs;
    params.rate = 0.02;
    request.trace = dynamic::make_churn_trace(request.points, params, 17 + s);
    request.seed = s;
    request.tags = "session=" + std::to_string(s);
    requests.push_back(std::move(request));
  }

  runtime::PlanService service;
  for (std::size_t i = 0; i < suite.warmup; ++i) {
    do_not_optimize(service.run(requests).stats.wall_ms);
  }
  std::vector<double> epochs_per_sec, plans_per_sec, wall_ms, request_p95;
  bool last_ok = true;
  for (std::size_t i = 0; i < suite.repeats; ++i) {
    obs::Registry::global().reset();
    const auto result = service.run(requests);
    last_ok = result.stats.failed == 0;
    run.valid = run.valid && last_ok;
    epochs_per_sec.push_back(result.stats.session_epochs_per_sec);
    plans_per_sec.push_back(result.stats.plans_per_sec);
    wall_ms.push_back(result.stats.wall_ms);
    request_p95.push_back(result.stats.total_latency.p95);
  }
  run.scenario.registry = obs::Registry::global().snapshot();
  // Pool-dispatch wall clocks: repeats inside one process share a scheduler
  // regime, and the regime itself drifts between processes by 10-20% on a
  // contended host, so the within-run MAD understates run-to-run noise.
  // Declare that floor in the schema; a real serving regression clears it.
  constexpr double kDispatchNoiseFloor = 0.25;
  const auto stamped = [](std::vector<double> values, const char* unit,
                          bool higher_is_better) {
    auto metric = obs::BenchMetric::of(std::move(values), unit,
                                       higher_is_better);
    metric.min_rel = kDispatchNoiseFloor;
    return metric;
  };
  run.scenario.metrics.emplace(
      "epochs_per_sec",
      stamped(std::move(epochs_per_sec), "per_sec", /*higher_is_better=*/true));
  run.scenario.metrics.emplace(
      "plans_per_sec",
      stamped(std::move(plans_per_sec), "per_sec", /*higher_is_better=*/true));
  run.scenario.metrics.emplace(
      "wall_ms",
      stamped(std::move(wall_ms), "ms", /*higher_is_better=*/false));
  run.scenario.metrics.emplace(
      "request_p95_ms",
      stamped(std::move(request_p95), "ms", /*higher_is_better=*/false));
  return run;
}

ScenarioRun run_serve_scenario(std::size_t sessions, std::size_t n,
                               std::size_t epochs,
                               const SuiteOptions& suite) {
  ScenarioRun run;
  run.scenario.name = "serve/sessions" + std::to_string(sessions) + "/n" +
                      std::to_string(n);
  run.scenario.kind = "serve";

  // The session-parallel runtime scenario: long-lived sessions pinned to
  // executor serial queues, epochs submitted through the async API at max
  // rate. Unlike service/ (whole churn traces as batch requests) this
  // measures the striped-executor serving path itself: open fan-out,
  // mailbox handoff per epoch, and submit-to-done latency.
  std::ostringstream spec_text;
  spec_text << "name=serve families=uniform sizes=" << n
            << " modes=oblivious reps=1 seed=3 sessions=" << sessions
            << " churn=epochs:" << epochs << ",rate:0.02";
  const auto spec = workload::WorkloadSpec::parse(spec_text.str());
  const auto requests = spec.expand();

  dynamic::DynamicOptions options;
  options.config = requests.front().config;
  runtime::PlanService service;

  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t remaining = 0;
    std::size_t errors = 0;
    util::Samples latency_ms;
  };
  struct ServeRepeat {
    double epochs_per_sec = 0.0;
    double epoch_p99_ms = 0.0;
    double open_ms = 0.0;
    bool ok = true;
  };
  const auto one_repeat = [&]() {
    ServeRepeat repeat;
    const auto open_start = util::Clock::now();
    std::vector<std::future<runtime::OpenOutcome>> opens;
    opens.reserve(sessions);
    for (const auto& request : requests) {
      opens.push_back(service.open_session_async(request.points, options));
    }
    std::vector<runtime::PlanService::SessionId> ids;
    ids.reserve(sessions);
    for (auto& open : opens) {
      const auto outcome = open.get();
      repeat.ok = repeat.ok && outcome.status == runtime::SessionStatus::kOk;
      if (outcome.status == runtime::SessionStatus::kOk) {
        ids.push_back(outcome.id);
      }
    }
    repeat.open_ms = util::ms_since(open_start);
    if (!repeat.ok) return repeat;

    Latch latch;
    latch.remaining = sessions * epochs;
    const auto start = util::Clock::now();
    for (std::size_t e = 0; e < epochs; ++e) {
      for (std::size_t s = 0; s < sessions; ++s) {
        service.submit_epoch(
            ids[s], requests[s].trace[e],
            [&latch](runtime::EpochOutcome outcome) {
              std::lock_guard<std::mutex> lock(latch.mutex);
              if (outcome.status != runtime::SessionStatus::kOk) {
                ++latch.errors;
              } else {
                latch.latency_ms.add(outcome.queue_ms + outcome.epoch_ms);
              }
              if (--latch.remaining == 0) latch.cv.notify_all();
            },
            runtime::OnFull::kBlock);
      }
    }
    {
      std::unique_lock<std::mutex> lock(latch.mutex);
      latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
    }
    const double wall_ms = util::ms_since(start);
    for (const auto id : ids) (void)service.close_session(id);
    repeat.ok = repeat.ok && latch.errors == 0;
    if (wall_ms > 0.0) {
      repeat.epochs_per_sec =
          static_cast<double>(sessions * epochs) * 1000.0 / wall_ms;
    }
    if (!latch.latency_ms.empty()) {
      repeat.epoch_p99_ms =
          obs::HistogramSnapshot::of(latch.latency_ms.values())
              .quantile(99.0);
    }
    return repeat;
  };

  for (std::size_t i = 0; i < suite.warmup; ++i) {
    do_not_optimize(one_repeat().epochs_per_sec);
  }
  std::vector<double> epochs_per_sec, epoch_p99_ms, open_ms;
  obs::Registry::global().reset();
  for (std::size_t i = 0; i < suite.repeats; ++i) {
    const auto repeat = one_repeat();
    run.valid = run.valid && repeat.ok;
    epochs_per_sec.push_back(repeat.epochs_per_sec);
    epoch_p99_ms.push_back(repeat.epoch_p99_ms);
    open_ms.push_back(repeat.open_ms);
  }
  run.scenario.registry = obs::Registry::global().snapshot();
  // Same pool-dispatch noise floor as service/: scheduler-regime drift
  // between processes dominates the within-run MAD.
  constexpr double kDispatchNoiseFloor = 0.25;
  const auto stamped = [](std::vector<double> values, const char* unit,
                          bool higher_is_better) {
    auto metric =
        obs::BenchMetric::of(std::move(values), unit, higher_is_better);
    metric.min_rel = kDispatchNoiseFloor;
    return metric;
  };
  run.scenario.metrics.emplace(
      "epochs_per_sec",
      stamped(std::move(epochs_per_sec), "per_sec", /*higher_is_better=*/true));
  run.scenario.metrics.emplace(
      "epoch_p99_ms",
      stamped(std::move(epoch_p99_ms), "ms", /*higher_is_better=*/false));
  run.scenario.metrics.emplace(
      "open_ms", stamped(std::move(open_ms), "ms", /*higher_is_better=*/false));
  return run;
}

// ------------------------------------------------------------------- suite

std::string today_iso_date() {
  const std::time_t now = std::time(nullptr);
  std::tm parts{};
  localtime_r(&now, &parts);
  char buffer[16];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%d", &parts);
  return buffer;
}

int run_suite(const SuiteOptions& suite) {
  obs::BenchTrajectory trajectory;
  trajectory.date = today_iso_date();
  trajectory.label = suite.label;
  trajectory.repeats = suite.repeats;
  trajectory.warmup = suite.warmup;

  std::vector<ChurnSpec> churn;
  std::vector<std::pair<std::string, std::size_t>> statics;
  std::size_t service_sessions = 8, service_n = 256, service_epochs = 10;
  std::size_t serve_sessions = 256, serve_n = 256, serve_epochs = 8;
  if (suite.quick) {
    // The CI-smoke matrix: same scenario SHAPES, small sizes.
    churn = {
        {"uniform", 256, 0.01, 0.0, 0.0, 6},
        {"uniform", 256, 0.05, 0.0, 0.0, 6},
        {"uniform", 256, 0.02, 0.02, 0.0, 6},
        {"uniform", 256, 0.02, 0.0, 0.02, 6},
    };
    // n2048 puts the from-scratch tree and conflict builds under the
    // same-host back-to-back gate.
    statics = {{"uniform", 128}, {"cluster", 128}, {"uniform", 2048}};
    service_sessions = 4;
    service_n = 128;
    service_epochs = 6;
    serve_sessions = 64;
    serve_n = 128;
    serve_epochs = 6;
  } else {
    for (const std::size_t n : {1024u, 2048u, 8192u}) {
      for (const double rate : {0.01, 0.05}) {
        churn.push_back({"uniform", n, rate, 0.0, 0.0, n > 4096 ? 4u : 8u});
      }
    }
    churn.push_back({"uniform", 1024, 0.02, 0.02, 0.0, 8});
    churn.push_back({"uniform", 1024, 0.02, 0.0, 0.02, 8});
    statics = {{"uniform", 256}, {"uniform", 1024}, {"uniform", 2048},
               {"uniform", 8192}, {"cluster", 256}, {"annulus", 256}};
  }

  bool all_valid = true;
  bool gates_ok = true;
  std::ostringstream profiles;
  const auto ingest = [&](ScenarioRun run) {
    std::cout << "scenario " << run.scenario.name << ":";
    for (const auto& [name, metric] : run.scenario.metrics) {
      std::cout << " " << name << "="
                << util::format_double(metric.median, 4);
    }
    std::cout << (run.valid ? "" : "  INVALID") << "\n";
    if (!run.profile_table.empty()) {
      profiles << "== " << run.scenario.name << " ==\n"
               << run.profile_table << "\n";
    }
    for (const auto& failure : run.gate_failures) {
      std::cout << "  GATE FAILED: " << failure << "\n";
    }
    all_valid = all_valid && run.valid;
    gates_ok = gates_ok && run.gate_failures.empty();
    trajectory.scenarios.push_back(std::move(run.scenario));
  };

  std::cout << "wagg_bench: " << (suite.quick ? "quick" : "full")
            << " matrix, repeat=" << suite.repeats
            << " warmup=" << suite.warmup << "\n\n";
  for (const auto& [family, n] : statics) {
    ingest(run_static_scenario(family, n, suite));
  }
  for (const auto& spec : churn) {
    ingest(run_churn_scenario(spec, suite));
  }
  ingest(run_service_scenario(service_sessions, service_n, service_epochs,
                              suite));
  ingest(run_serve_scenario(serve_sessions, serve_n, serve_epochs, suite));

  std::cout << "\nper-stage span profiles (exclusive self time, hottest "
               "first):\n\n"
            << profiles.str();

  if (!suite.out_path.empty()) {
    obs::write_text_file(suite.out_path, trajectory.to_json());
    std::cout << "trajectory: " << suite.out_path << " ("
              << trajectory.scenarios.size() << " scenarios, schema "
              << "wagg-bench-v1)\n";
  }
  if (!suite.profile_out.empty()) {
    obs::write_text_file(suite.profile_out, profiles.str());
    std::cout << "profiles: " << suite.profile_out << "\n";
  }

  if (!all_valid) {
    std::cout << "wagg_bench FAILED: a scenario produced an invalid plan\n";
    return 1;
  }
  if (!gates_ok) {
    std::cout << "wagg_bench FAILED: a stage-identity or churn gate "
                 "failed (see GATE FAILED lines)\n";
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------------- modes

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("wagg_bench: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int run_compare(const std::string& baseline_path,
                const std::string& candidate_path, const util::Args& args) {
  const auto baseline =
      obs::BenchTrajectory::from_json(read_file(baseline_path));
  const auto candidate =
      obs::BenchTrajectory::from_json(read_file(candidate_path));
  obs::CompareOptions options;
  options.min_rel_tolerance =
      args.get_double("min-rel", options.min_rel_tolerance);
  options.mad_multiplier =
      args.get_double("mad-mult", options.mad_multiplier);
  options.min_abs_ms = args.get_double("min-abs-ms", options.min_abs_ms);
  options.portable_only = args.has("portable-only");

  std::cout << "baseline:  " << baseline_path << " (" << baseline.date
            << (baseline.label.empty() ? "" : ", " + baseline.label)
            << ")\ncandidate: " << candidate_path << " (" << candidate.date
            << (candidate.label.empty() ? "" : ", " + candidate.label)
            << ")\n"
            << (options.portable_only
                    ? "gating hardware-portable metrics only\n"
                    : "")
            << "\n";
  const auto report = obs::compare(baseline, candidate, options);
  std::cout << report.table();
  return report.ok() ? 0 : 1;
}

int run_offline_profile(const std::string& trace_path,
                        const util::Args& args) {
  const auto report = obs::profile_chrome_trace(read_file(trace_path));
  std::cout << "profile of " << trace_path << ":\n"
            << report.table(
                   static_cast<std::size_t>(args.get_int("top", 0)));
  return report.malformed_spans == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wagg

int main(int argc, char** argv) {
  using namespace wagg;
  const util::Args args(argc, argv);
  try {
    // Mode flags take positional operands, which util::Args ignores — scan
    // argv directly for them.
    std::vector<std::string> positional;
    bool compare_mode = false;
    bool profile_mode = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg(argv[i]);
      if (arg == "--compare") {
        compare_mode = true;
      } else if (arg == "--profile") {
        profile_mode = true;
      } else if (arg.rfind("--", 0) != 0) {
        positional.push_back(arg);
      }
    }
    if (compare_mode) {
      if (positional.size() != 2) {
        std::cerr << "usage: wagg_bench --compare <baseline.json> "
                     "<candidate.json> [--portable-only] [--min-rel=f] "
                     "[--mad-mult=k] [--min-abs-ms=f]\n";
        return 2;
      }
      return run_compare(positional[0], positional[1], args);
    }
    if (profile_mode) {
      if (positional.size() != 1) {
        std::cerr << "usage: wagg_bench --profile <trace.json> [--top=k]\n";
        return 2;
      }
      return run_offline_profile(positional[0], args);
    }

    SuiteOptions suite;
    suite.repeats = std::max<std::size_t>(
        1, static_cast<std::size_t>(args.get_int("repeat", 5)));
    suite.warmup =
        static_cast<std::size_t>(args.get_int("warmup", 1));
    suite.quick = args.has("quick");
    suite.out_path = args.get("out", "");
    suite.profile_out = args.get("profile-out", "");
    suite.label = args.get("label", "");
    suite.top_k = static_cast<std::size_t>(args.get_int("top", 12));
    return run_suite(suite);
  } catch (const std::exception& e) {
    std::cerr << "wagg_bench: " << e.what() << "\n";
    return 1;
  }
}
