#ifndef WAGG_CORE_BASELINE_H
#define WAGG_CORE_BASELINE_H

#include "core/planner.h"
#include "mst/tree.h"
#include "schedule/schedule.h"

namespace wagg::core {

/// The classic level-by-level scheduling of the matching-hierarchy tree
/// ([11]-style, the Theta(1/log n) rate / O(log n) latency baseline the
/// paper improves on): each matching level is scheduled independently with
/// the configured power mode and the per-level schedules are concatenated.
/// The resulting length is sum over levels of per-level colors — Omega(log n)
/// even when every level colors in O(1) slots. Each level is one slot
/// through schedule::repair_schedule, so it packs longest link first; like
/// schedule_links it throws std::runtime_error when a singleton is
/// infeasible under the mode's powers.
struct LevelScheduleResult {
  schedule::Schedule schedule;
  int num_levels = 0;
  /// Slots used by each level after repair.
  std::vector<std::size_t> slots_per_level;
  /// The schedule covers every link and every slot passes the mode's
  /// oracle (oracle_for_mode).
  bool verified = false;
};

[[nodiscard]] LevelScheduleResult level_schedule(const mst::PairingTree& tree,
                                                 const PlannerConfig& config);

}  // namespace wagg::core

#endif  // WAGG_CORE_BASELINE_H
