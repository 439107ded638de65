#ifndef WAGG_SCHEDULE_VERIFY_H
#define WAGG_SCHEDULE_VERIFY_H

#include <functional>
#include <span>
#include <vector>

#include "geom/linkset.h"
#include "schedule/ledger.h"
#include "schedule/schedule.h"
#include "sinr/feasibility.h"
#include "sinr/model.h"
#include "sinr/power.h"

namespace wagg::schedule {

/// A slot-feasibility oracle: true iff the given links may share a slot.
using FeasibilityOracle =
    std::function<bool(std::span<const std::size_t> slot)>;

/// Oracle for a fixed power assignment (exact SINR check).
[[nodiscard]] FeasibilityOracle fixed_power_oracle(
    const geom::LinkView& links, const sinr::SinrParams& params,
    sinr::PowerAssignment power, double tolerance = 1e-9);

/// Oracle for arbitrary power control (spectral-radius decision + certified
/// power vector, see sinr::power_control_feasible).
[[nodiscard]] FeasibilityOracle power_control_oracle(
    const geom::LinkView& links, const sinr::SinrParams& params,
    sinr::PowerControlOptions options = {});

/// Per-schedule verification result.
struct VerificationReport {
  bool all_slots_feasible = false;
  bool covers_all_links = false;
  /// Indices of slots that failed the oracle.
  std::vector<std::size_t> infeasible_slots;

  [[nodiscard]] bool ok() const noexcept {
    return all_slots_feasible && covers_all_links;
  }
};

/// Verifies every slot of the schedule against the oracle and checks link
/// coverage.
[[nodiscard]] VerificationReport verify_schedule(const geom::LinkView& links,
                                                 const Schedule& schedule,
                                                 const FeasibilityOracle& oracle);

/// Verifies a schedule whose slots carry the certificates repair produced
/// (`certificates[s]` holds slot s's members, powers and bounds): each
/// slot's loads are recomputed exactly under its certified powers
/// (SlotLedger::reseed, O(|slot|^2)), and only a slot those powers do not
/// certify — or whose certificate names other members — falls to
/// `fallback`. Powers that certify a slot satisfy every SINR constraint on
/// it, so this reaches verify_schedule's verdicts with one exact pass per
/// slot instead of a solve.
[[nodiscard]] VerificationReport verify_certified(
    const Schedule& schedule, std::span<const LedgerSlot> certificates,
    const SlotLedger& ledger, const FeasibilityOracle& fallback);

}  // namespace wagg::schedule

#endif  // WAGG_SCHEDULE_VERIFY_H
