// Library-facing helpers shared by the workloads: input digests, the
// untimed checkpoint (from-scratch plan + independent verification), and
// the span fields an EpochReport carries.

#ifndef WAGG_PERFBENCH_COMMON_H
#define WAGG_PERFBENCH_COMMON_H

#include <cstdint>
#include <string>

#include "bench.h"
#include "conflict/conflict_index.h"
#include "core/planner.h"
#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "geom/point.h"

namespace perfbench {

/// The EpochReport fields that must repeat exactly on the same inputs.
struct EpochKey {
  std::size_t slots = 0;
  std::size_t num_links = 0;
  std::size_t dirty_links = 0;
  std::size_t oracle_calls = 0;
  std::size_t reused_slots = 0;
  std::size_t touched_slots = 0;
  std::size_t power_slots_cached = 0;
  std::size_t power_slots_computed = 0;
  bool full_replan = false;

  explicit EpochKey(const wagg::dynamic::EpochReport& r)
      : slots(r.slots),
        num_links(r.num_links),
        dirty_links(r.dirty_links),
        oracle_calls(r.oracle_calls),
        reused_slots(r.reused_slots),
        touched_slots(r.touched_slots),
        power_slots_cached(r.power_slots_cached),
        power_slots_computed(r.power_slots_computed),
        full_replan(r.full_replan) {}

  friend bool operator==(const EpochKey&, const EpochKey&) = default;
};

/// Hash of one generated input: the initial pointset and its churn trace.
[[nodiscard]] std::uint64_t digest_inputs(
    const wagg::geom::Pointset& points, const wagg::dynamic::ChurnTrace& trace);

/// One checkpoint on a planner's current snapshot: a from-scratch
/// core::plan_aggregation on the same points, and schedule::verify_schedule
/// of the incremental schedule with core::oracle_for_mode.
struct Checkpoint {
  bool incremental_verified = false;
  bool scratch_verified = false;
  std::size_t incremental_slots = 0;
  std::size_t scratch_slots = 0;
  wagg::core::StageTimings scratch_stages;
  Clock::time_point start;
  Clock::time_point planned;   ///< plan_aggregation returned
  Clock::time_point verified;  ///< verify_schedule returned

  [[nodiscard]] bool ok() const {
    return incremental_verified && scratch_verified;
  }
  /// Incremental slots over from-scratch slots.
  [[nodiscard]] double drift() const {
    return static_cast<double>(incremental_slots) /
           static_cast<double>(scratch_slots);
  }
  [[nodiscard]] double scratch_ms() const { return ms_between(start, planned); }
  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] Checkpoint run_checkpoint(
    const wagg::dynamic::DynamicPlanner& planner,
    const wagg::core::PlannerConfig& config);

/// Records a checkpoint as a span tree (checkpoint -> plan_aggregation,
/// verify_schedule).
void trace_checkpoint(SpanLog& log, const Checkpoint& checkpoint,
                      double epoch);

/// Span fields of one applied epoch: the EpochReport counts, its
/// EpochTimings stages, and the ConflictIndexStats delta the epoch caused.
void add_report_fields(Span& span, const wagg::dynamic::EpochReport& report,
                       const wagg::conflict::ConflictIndexStats& before,
                       const wagg::conflict::ConflictIndexStats& after);

/// Sums of the per-layer span fields over a set of traced operations.
struct LayerSums {
  double ops = 0;
  double repair = 0, oracle = 0, reused = 0, slots = 0;
  double power = 0, cached = 0, computed = 0;
  double dirty = 0, full = 0, recolor = 0;
  double mst_update = 0, orient = 0, maintain = 0, query = 0;
  double hits = 0, misses = 0;

  /// Adds the stage fields a span carries (absent fields count as 0);
  /// callers count `ops` themselves, one per traced operation.
  void add(const Span& span);
  /// Time the EpochTimings stages account for.
  [[nodiscard]] double layer_ms() const {
    return repair + power + recolor + mst_update + orient + maintain + query;
  }
};

/// The per-layer rows both workload kinds share, from the traced sums.
/// `scratch_repair_ms` / `scratch_plan_ms` are checkpoint means.
[[nodiscard]] std::vector<Metric> library_layers(
    const LayerSums& sums, double scratch_repair_ms, double scratch_plan_ms,
    bool power_worked);

}  // namespace perfbench

#endif  // WAGG_PERFBENCH_COMMON_H
