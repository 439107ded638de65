#ifndef WAGG_CORE_PLANNER_H
#define WAGG_CORE_PLANNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "conflict/fgraph.h"
#include "geom/linkset.h"
#include "geom/point.h"
#include "mst/tree.h"
#include "schedule/ledger.h"
#include "schedule/schedule.h"
#include "schedule/verify.h"
#include "sinr/model.h"
#include "sinr/power.h"

namespace wagg::core {

/// Power-control regime (Sec 2 "Power Assignments").
enum class PowerMode {
  kUniform,    ///< P_0: no power control
  kLinear,     ///< P_1: power ~ l^alpha
  kOblivious,  ///< P_tau, tau in (0,1): local (length-only) power control
  kGlobal,     ///< arbitrary power control (the paper's main setting)
};

[[nodiscard]] std::string to_string(PowerMode mode);

/// Which spanning structure to aggregate over.
enum class TreeKind {
  kMst,      ///< Euclidean MST (the paper's choice)
  kPairing,  ///< matching-hierarchy baseline (Theta(1/log n) rate, [11])
};

/// Order in which the greedy coloring processes links. The paper's appendix
/// (and the inductive-independence argument) use non-increasing length; the
/// prose of Sec 3 says non-decreasing. Both are provided; E3 ablates them.
enum class ColoringOrder { kDecreasingLength, kIncreasingLength };

struct PlannerConfig {
  sinr::SinrParams sinr;
  PowerMode power_mode = PowerMode::kGlobal;
  TreeKind tree = TreeKind::kMst;
  ColoringOrder order = ColoringOrder::kDecreasingLength;
  /// Oblivious power exponent tau (used by kOblivious).
  double tau = 0.5;
  /// Conflict-graph threshold constant gamma.
  double gamma = 2.0;
  /// Exponent of the power-law conflict graph used for kOblivious; must
  /// exceed max(tau, 1-tau) for pairwise affectance to decay.
  double delta = 0.75;
  /// Node index that collects the aggregate.
  std::int32_t sink = 0;

  void validate() const;
};

/// Wall-clock breakdown of one planning run, in milliseconds. Filled by
/// plan_aggregation / schedule_links when the caller passes a non-null
/// pointer; stages a run does not execute (power for fixed-power modes)
/// stay 0. Each field is billed from the obs::StageSpan named after it
/// (`tree`, `conflict`, `coloring`, `repair`, `verify`, `power`), so a
/// trace of the run shows the same intervals.
struct StageTimings {
  double tree_ms = 0.0;      ///< spanning-structure construction
  double conflict_ms = 0.0;  ///< conflict-graph build
  double coloring_ms = 0.0;  ///< greedy coloring
  double repair_ms = 0.0;    ///< exact-SINR slot repair
  double verify_ms = 0.0;    ///< full-schedule verification
  double power_ms = 0.0;     ///< embedding repair's per-slot global powers

  [[nodiscard]] double total_ms() const noexcept {
    return tree_ms + conflict_ms + coloring_ms + repair_ms + verify_ms +
           power_ms;
  }
};

/// Scheduling outcome for a bare link set (no tree semantics attached).
struct LinkScheduleResult {
  conflict::ConflictSpec spec;
  schedule::Schedule schedule;
  /// Aligned with schedule.slots: the ledger powers and load bounds that
  /// certified each slot in repair (kGlobal: the slot's power vector).
  std::vector<schedule::LedgerSlot> certificates;
  schedule::VerificationReport verification;
  /// Colors used by the conflict-graph coloring before repair.
  std::size_t colors_before_repair = 0;
  /// Slots the repair pass had to split (0 when the coloring was clean).
  std::size_t slots_split = 0;
  /// The fixed power assignment (uniform/linear/oblivious); for kGlobal this
  /// holds per-link powers stitched from each link's home slot.
  sinr::PowerAssignment power;

  [[nodiscard]] double rate() const { return schedule.coloring_rate(); }
};

/// Chooses the paper's conflict graph for the given power mode:
/// G_(gamma log) for kGlobal, G^delta_gamma for kOblivious, G_gamma
/// otherwise (uniform/linear have no sublinear guarantee; the constant graph
/// plus repair yields a correct — possibly long — schedule).
[[nodiscard]] conflict::ConflictSpec spec_for_mode(const PlannerConfig& config);

/// The feasibility oracle matching the configured power mode.
[[nodiscard]] schedule::FeasibilityOracle oracle_for_mode(
    const geom::LinkView& links, const PlannerConfig& config);

/// The slot ledger matching the configured power mode — carried powers for
/// kGlobal, pinned to power_for_mode otherwise. Every repair decision goes
/// through it. `links` must outlive the ledger.
[[nodiscard]] schedule::SlotLedger ledger_for_mode(const geom::LinkView& links,
                                                   const PlannerConfig& config);

/// The fixed power assignment for the configured mode (identity powers for
/// kGlobal, whose per-slot powers are computed later).
[[nodiscard]] sinr::PowerAssignment power_for_mode(const geom::LinkView& links,
                                                   const PlannerConfig& config);

/// Colors the conflict graph, repairs, verifies: a complete TDMA schedule
/// for an arbitrary link set under the configured power mode. kGlobal slots
/// are verified exactly under the powers repair certified them with (the
/// cold solve runs only for a slot those powers fail). When `timings` is
/// non-null the conflict/coloring/repair/verify stages are clocked into
/// it.
[[nodiscard]] LinkScheduleResult schedule_links(
    const geom::LinkView& links, const PlannerConfig& config,
    StageTimings* timings = nullptr);

/// Full aggregation plan for a pointset.
struct PlanResult {
  mst::AggregationTree tree;
  LinkScheduleResult scheduling;
  /// For kGlobal: log2 power vector per slot (aligned with schedule slots),
  /// the one that certified the slot in repair.
  std::vector<sinr::PowerAssignment> slot_powers;

  [[nodiscard]] const schedule::Schedule& schedule() const {
    return scheduling.schedule;
  }
  [[nodiscard]] double rate() const { return scheduling.rate(); }
  [[nodiscard]] bool verified() const { return scheduling.verification.ok(); }
};

/// The paper's end-to-end protocol: build the tree (MST by default), choose
/// powers for the mode, color the matching conflict graph, repair and verify.
/// Throws std::invalid_argument on malformed inputs (duplicate points, < 2
/// points, sink out of range). When `timings` is non-null every stage is
/// clocked into it; the plan itself is unaffected.
[[nodiscard]] PlanResult plan_aggregation(const geom::Pointset& points,
                                          const PlannerConfig& config,
                                          StageTimings* timings = nullptr);

}  // namespace wagg::core

#endif  // WAGG_CORE_PLANNER_H
