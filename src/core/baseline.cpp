#include "core/baseline.h"

#include <stdexcept>

#include "schedule/repair.h"

namespace wagg::core {

LevelScheduleResult level_schedule(const mst::PairingTree& tree,
                                   const PlannerConfig& config) {
  config.validate();
  const geom::LinkSet& links = tree.tree.links;
  if (tree.level_of_link.size() != links.size()) {
    throw std::invalid_argument("level_schedule: malformed pairing tree");
  }
  LevelScheduleResult result;
  result.num_levels = tree.num_levels;

  // Each matching level is one input slot for repair, which packs it with
  // the mode's slot ledger (levels need no conflict graph: first fit with
  // exact decisions is affordable at their size).
  std::vector<std::vector<std::size_t>> by_level(
      static_cast<std::size_t>(tree.num_levels));
  for (std::size_t i = 0; i < links.size(); ++i) {
    by_level.at(static_cast<std::size_t>(tree.level_of_link[i])).push_back(i);
  }
  auto ledger = ledger_for_mode(links, config);
  for (auto& level_links : by_level) {
    if (level_links.empty()) {
      result.slots_per_level.push_back(0);
      continue;
    }
    schedule::Schedule level;
    level.slots.push_back(std::move(level_links));
    auto repaired = schedule::repair_schedule(links, level, ledger);
    result.slots_per_level.push_back(repaired.schedule.length());
    for (auto& slot : repaired.schedule.slots) {
      result.schedule.slots.push_back(std::move(slot));
    }
  }
  result.verified =
      schedule::verify_schedule(links, result.schedule,
                                oracle_for_mode(links, config))
          .ok();
  return result;
}

}  // namespace wagg::core
