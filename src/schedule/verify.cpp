#include "schedule/verify.h"

#include <stdexcept>

namespace wagg::schedule {

FeasibilityOracle fixed_power_oracle(const geom::LinkView& links,
                                     const sinr::SinrParams& params,
                                     sinr::PowerAssignment power,
                                     double tolerance) {
  return [&links, params, power = std::move(power),
          tolerance](std::span<const std::size_t> slot) {
    return sinr::is_feasible(links, slot, params, power, tolerance);
  };
}

FeasibilityOracle power_control_oracle(const geom::LinkView& links,
                                       const sinr::SinrParams& params,
                                       sinr::PowerControlOptions options) {
  return [&links, params, options](std::span<const std::size_t> slot) {
    return sinr::power_control_feasible(links, slot, params, options).feasible;
  };
}

VerificationReport verify_schedule(const geom::LinkView& links,
                                   const Schedule& schedule,
                                   const FeasibilityOracle& oracle) {
  VerificationReport report;
  report.all_slots_feasible = true;
  for (std::size_t s = 0; s < schedule.slots.size(); ++s) {
    if (!oracle(schedule.slots[s])) {
      report.all_slots_feasible = false;
      report.infeasible_slots.push_back(s);
    }
  }
  report.covers_all_links = covers_all_links(schedule, links.size());
  return report;
}

VerificationReport verify_certified(const Schedule& schedule,
                                    std::span<const LedgerSlot> certificates,
                                    const SlotLedger& ledger,
                                    const FeasibilityOracle& fallback) {
  if (certificates.size() != schedule.slots.size()) {
    throw std::invalid_argument(
        "verify_certified: one certificate per slot required");
  }
  VerificationReport report;
  report.all_slots_feasible = true;
  for (std::size_t s = 0; s < schedule.slots.size(); ++s) {
    LedgerSlot exact = certificates[s];
    ledger.reseed(exact);
    const bool certified =
        exact.members == schedule.slots[s] && ledger.certifies(exact);
    if (!certified && !fallback(schedule.slots[s])) {
      report.all_slots_feasible = false;
      report.infeasible_slots.push_back(s);
    }
  }
  report.covers_all_links = covers_all_links(schedule, ledger.links().size());
  return report;
}

}  // namespace wagg::schedule
