// wagg-lint-fixture: cold-solve expect=0
// Negative cases: the ledger's certified powers, a comment or string naming
// power_control_feasible(...), a using-declaration without a call, a
// lookalike identifier, and a justified allow.
#include "schedule/ledger.h"
#include "sinr/feasibility.h"

namespace wagg::core {

// Comments may say power_control_feasible(links, slot, params) freely.
inline const char* kDoc = "power_control_feasible( stays in sinr/";

using sinr::power_control_feasible;

bool power_control_feasible_cached(int slot) { return slot >= 0; }

bool settle_slot(schedule::SlotLedger& ledger, schedule::LedgerSlot& slot) {
  schedule::CertificateCounts counts;
  return ledger.settle(slot, counts);
}

bool cross_check(const geom::LinkView& links,
                 std::span<const std::size_t> slot,
                 const sinr::SinrParams& params) {
  // wagg-lint: allow(cold-solve) an independent check, not a power source
  return sinr::power_control_feasible(links, slot, params).feasible;
}

}  // namespace wagg::core
