// Dynamic churn driver: open a planning session on a generated instance,
// stream seeded mutations through it, and watch the incremental engine
// replan each epoch.
//
//   ./wagg_churn                                    # defaults below
//   ./wagg_churn --family=cluster --n=512 --epochs=30 --rate=0.05
//   ./wagg_churn --mode=uniform --audit             # cross-check each epoch
//   ./wagg_churn --powers                           # materialize slot powers
//   ./wagg_churn --grow=0.02                        # net growth schedule
//   ./wagg_churn --shrink=0.02                      # net shrink schedule
//   ./wagg_churn --seed=7 --csv
//   ./wagg_churn --trace=out.json --metrics-json=out-metrics.json
//
// Per epoch the driver prints the mutation count, the dirty-link set, how
// many slots were reused untouched vs patched, oracle calls spent, the rate,
// and the incremental wall clock — with --audit also the from-scratch
// replan's wall clock and the validity cross-check.
//
// --trace writes a Chrome trace-event / Perfetto JSON of the session's span
// tree (per-epoch stage slices); --metrics-json writes the obs::Registry
// snapshot (counters + log-bucketed latency histograms). Both metric windows
// cover the mutation epochs — the construction full plan is excluded so the
// histograms describe steady-state incremental cost.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "conflict/conflict_index.h"
#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/args.h"
#include "util/table.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace wagg;
  const util::Args args(argc, argv);
  try {
    const std::string family = args.get("family", "uniform");
    const auto n = static_cast<std::size_t>(args.get_int("n", 256));
    const auto epochs = static_cast<std::size_t>(args.get_int("epochs", 20));
    const double rate = args.get_double("rate", 0.05);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

    dynamic::ChurnParams params;
    params.epochs = epochs;
    params.rate = rate;
    params.grow_rate = args.get_double("grow", 0.0);
    params.shrink_rate = args.get_double("shrink", 0.0);
    params.hotspot_fraction = args.get_double("hotspot", 0.0);
    params.hotspot_radius = args.get_double("hradius", 0.0);
    params.waypoint_speed = args.get_double("speed", 0.0);
    if (args.get("drift", "gauss") == "waypoint") {
      params.drift = dynamic::DriftKind::kWaypoint;
    }
    const auto points = workload::make_family(family, n, seed);
    const auto trace = dynamic::make_churn_trace(points, params, seed);

    dynamic::DynamicOptions options;
    options.config = workload::mode_config(
        workload::power_mode_from_string(args.get("mode", "global")));
    options.audit = args.has("audit");

    // RAII export: if anything below throws mid-session, the guard's
    // destructor still flushes the spans and metrics recorded so far — the
    // postmortem evidence for the very run that died.
    obs::ExportGuard telemetry(args.get("trace", ""),
                               args.get("metrics-json", ""));

    dynamic::DynamicPlanner planner(points, options);
    // Window the registry on the mutation epochs: the construction full plan
    // would otherwise dominate every latency histogram. The trace keeps the
    // construction spans — seeing the initial plan there is useful.
    obs::Registry::global().reset();
    std::cout << "churn session: family=" << family << " n=" << n
              << " rate=" << rate << " epochs=" << epochs
              << " mode=" << core::to_string(options.config.power_mode)
              << (options.audit ? " (audited)" : "") << "\n\n";

    std::vector<std::string> columns = {"epoch", "muts",  "nodes",
                                        "links", "dirty", "slots",
                                        "reused", "patched", "oracle",
                                        "rate",  "incr ms", "mst ms",
                                        "cfl ms", "rc hit", "rc miss"};
    if (options.audit) {
      columns.push_back("full ms");
      columns.push_back("ok");
    }
    util::Table table(columns);

    // Per-epoch conflict row-cache traffic, diffed from the index's
    // cumulative stats around each apply() (the registry holds the same
    // series; diffing here keeps the construction epoch's row honest too).
    auto cache_mark = conflict::ConflictIndexStats{};
    const auto add_row = [&](const dynamic::EpochReport& report) {
      const auto cache = planner.conflict_index().stats();
      auto& row = table.row();
      row.cell(report.epoch)
          .cell(report.mutations_applied)
          .cell(report.num_nodes)
          .cell(report.num_links)
          .cell(report.dirty_links)
          .cell(report.slots)
          .cell(report.reused_slots)
          .cell(report.touched_slots)
          .cell(report.oracle_calls)
          .cell(report.rate, 4)
          .cell(report.timings.incremental_ms(), 2)
          .cell(report.timings.mst_ms(), 2)
          .cell(report.timings.conflict_ms(), 2)
          .cell(cache.row_cache_hits - cache_mark.row_cache_hits)
          .cell(cache.row_cache_misses - cache_mark.row_cache_misses);
      cache_mark = cache;
      if (options.audit) {
        row.cell(report.audit_full_ms, 2)
            .cell(report.audit_valid && report.audit_power_valid &&
                          report.audit_tree_match &&
                          report.audit_store_match && report.audit_index_match
                      ? "yes"
                      : "NO");
      }
    };

    // --powers: ship per-slot power vectors every epoch, the way a serving
    // deployment would. Each slot ships the vector that certified it in
    // repair; only slots a failed epoch left uncovered are settled afresh.
    const bool powers =
        args.has("powers") &&
        options.config.power_mode == core::PowerMode::kGlobal;
    if (args.has("powers") && !powers) {
      std::cout << "note: --powers ignored — per-slot power vectors exist "
                   "only under --mode=global (fixed-power modes use a "
                   "closed-form assignment)\n";
    }
    if (powers) (void)planner.slot_powers();

    add_row(planner.last_report());
    std::vector<double> epoch_times;  // per-epoch incremental_ms
    epoch_times.reserve(trace.size());
    double incremental_ms = 0.0;
    double full_ms = 0.0;
    double mst_update_ms = 0.0;
    double orient_ms = 0.0;
    double conflict_maintain_ms = 0.0;
    double conflict_query_ms = 0.0;
    double power_ms = 0.0;
    std::size_t power_cached = 0;
    std::size_t power_computed = 0;
    std::size_t certificate_hits = 0;
    std::size_t certificate_misses = 0;
    std::size_t full_replans = 0;
    bool all_valid = true;
    for (const auto& epoch_mutations : trace) {
      (void)planner.apply(epoch_mutations);
      if (powers) (void)planner.slot_powers();
      const auto report = planner.last_report();
      add_row(report);
      epoch_times.push_back(report.timings.incremental_ms());
      incremental_ms += report.timings.incremental_ms();
      full_ms += report.audit_full_ms;
      mst_update_ms += report.timings.mst_update_ms;
      orient_ms += report.timings.orient_ms;
      conflict_maintain_ms += report.timings.conflict_maintain_ms;
      conflict_query_ms += report.timings.conflict_query_ms;
      power_ms += report.timings.power_ms;
      power_cached += report.power_slots_cached;
      power_computed += report.power_slots_computed;
      certificate_hits += report.certificate_hits;
      certificate_misses += report.certificate_misses;
      if (report.full_replan) ++full_replans;
      all_valid = all_valid && report.valid &&
                  (!report.audited || (report.audit_valid &&
                                       report.audit_power_valid &&
                                       report.audit_tree_match &&
                                       report.audit_store_match &&
                                       report.audit_index_match));
    }
    if (args.has("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }

    std::cout << "\nsession: " << epochs << " epochs, "
              << util::format_double(
                     incremental_ms / static_cast<double>(epochs), 2)
              << " ms/epoch incremental";
    if (options.audit && incremental_ms > 0.0) {
      std::cout << ", "
                << util::format_double(full_ms / static_cast<double>(epochs),
                                       2)
                << " ms/epoch full replan ("
                << util::format_double(full_ms / incremental_ms, 1)
                << "x speedup)";
    }
    // Round the split cells FIRST and derive each printed total from the
    // rounded parts — formatting the raw sum independently can disagree with
    // the printed parts by the last digit.
    const auto round2 = [](double v) { return std::round(v * 100.0) / 100.0; };
    const double mst_update_cell =
        round2(mst_update_ms / static_cast<double>(epochs));
    const double orient_cell = round2(orient_ms / static_cast<double>(epochs));
    std::cout << ", mst "
              << util::format_double(mst_update_cell + orient_cell, 2)
              << " ms/epoch (" << util::format_double(mst_update_cell, 2)
              << " update / " << util::format_double(orient_cell, 2)
              << " orient)";
    const double maintain_cell =
        round2(conflict_maintain_ms / static_cast<double>(epochs));
    const double query_cell =
        round2(conflict_query_ms / static_cast<double>(epochs));
    std::cout << ", conflict "
              << util::format_double(maintain_cell + query_cell, 2)
              << " ms/epoch (" << util::format_double(maintain_cell, 2)
              << " maintain / " << util::format_double(query_cell, 2)
              << " query)";
    if (powers) {
      std::cout << ", powers "
                << util::format_double(
                       power_ms / static_cast<double>(epochs), 2)
                << " ms/epoch (" << power_cached << " cached / "
                << power_computed << " computed)";
    }
    std::cout << ", ledger " << certificate_hits << " certificate hits / "
              << certificate_misses << " misses";
    std::cout << ", " << full_replans << " full replans, "
              << (all_valid ? "all epochs valid" : "INVALID EPOCHS") << "\n";

    // Cumulative row-cache economics for the whole session (construction
    // included — its misses are the warmup that later epochs hit against).
    const auto cache = planner.conflict_index().stats();
    const auto served = cache.row_cache_hits + cache.row_cache_misses;
    std::cout << "row cache: " << cache.row_cache_hits << " hits / "
              << cache.row_cache_misses << " misses";
    if (served > 0) {
      std::cout << " ("
                << util::format_double(100.0 *
                                           static_cast<double>(
                                               cache.row_cache_hits) /
                                           static_cast<double>(served),
                                       1)
                << "% hit)";
    }
    std::cout << ", " << cache.row_cache_patches << " patches, "
              << cache.row_cache_invalidations << " invalidations, "
              << cache.row_cache_evictions << " evictions, "
              << cache.rows_cached << " rows live\n";

    if (!epoch_times.empty()) {
      // The one summary-row implementation of the repo (satellite of the
      // telemetry spine): log-bucketed p50/p95, exact mean/max.
      const obs::SummaryRow lat =
          obs::HistogramSnapshot::of(epoch_times).row();
      std::cout << "epoch latency: p50 " << util::format_double(lat.p50, 2)
                << " ms, p95 " << util::format_double(lat.p95, 2)
                << " ms, mean " << util::format_double(lat.mean, 2)
                << " ms, max " << util::format_double(lat.max, 2) << " ms\n";
    }
    telemetry.close();  // happy path: write now so I/O errors still throw
    if (telemetry.wants_trace()) {
      std::cout << "trace: " << args.get("trace", "") << " ("
                << obs::Tracer::global().recorded_events() << " spans, "
                << obs::Tracer::global().dropped_events() << " dropped)\n";
    }
    if (telemetry.wants_metrics()) {
      std::cout << "metrics: " << args.get("metrics-json", "") << "\n";
    }
    return all_valid ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "wagg_churn: " << e.what() << "\n";
    return 1;
  }
}
