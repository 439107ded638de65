// wagg-lint-fixture: cold-solve expect=2
// Re-solving slots repair already certified (this fixture lints as
// src/bad.cpp): each call outside src/sinr/, schedule/ledger.cpp and
// schedule/verify.cpp is flagged, qualified or not.
#include "sinr/feasibility.h"

namespace wagg::core {

std::vector<sinr::PowerAssignment> powers_again(
    const geom::LinkView& links, const schedule::Schedule& schedule,
    const sinr::SinrParams& params) {
  std::vector<sinr::PowerAssignment> out;
  for (const auto& slot : schedule.slots) {
    const auto pc = sinr::power_control_feasible(links, slot, params);  // 1
    out.push_back(sinr::embed_slot_power(links, slot, pc));
  }
  using sinr::power_control_feasible;
  (void)power_control_feasible (links, schedule.slots[0], params);  // 2
  return out;
}

}  // namespace wagg::core
