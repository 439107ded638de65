#ifndef WAGG_SCHEDULE_REPAIR_H
#define WAGG_SCHEDULE_REPAIR_H

#include "geom/linkset.h"
#include "schedule/ledger.h"
#include "schedule/schedule.h"

namespace wagg::schedule {

/// Outcome of the feasibility-repair pass.
struct RepairResult {
  Schedule schedule;
  /// Aligned with schedule.slots: the ledger powers and load bounds that
  /// certified each output slot (an empty slot's is empty).
  std::vector<LedgerSlot> certificates;
  /// Number of input slots that had to be split.
  std::size_t slots_split = 0;
  /// Schedule length before / after.
  std::size_t length_before = 0;
  std::size_t length_after = 0;
};

/// Makes a schedule exactly SINR-feasible under the ledger's power rule:
/// each non-empty slot is patch_slot(ledger, ledger.unknown(slot), {},
/// false) — one decision on the whole slot in its input order, and when
/// that rejects, first fit in pack_order (each link joins the first
/// sub-slot that admits it, else opens a new one). Empty slots pass
/// through.
///
/// Why this exists: the paper's guarantees hold for "large enough" conflict
/// graph constants gamma; for any concrete gamma a color class can violate
/// the SINR inequalities. Repair restores soundness — every slot of the
/// output passes the oracle — at the cost of a bounded length increase that
/// the benchmarks measure (E3/E9 "repair" columns).
///
/// Precondition: every singleton {link} must be feasible (true under power
/// control, and for fixed powers on interference-limited instances);
/// otherwise std::runtime_error is thrown. `ledger` must be over `links`
/// (std::invalid_argument otherwise).
[[nodiscard]] RepairResult repair_schedule(const geom::LinkView& links,
                                           const Schedule& schedule,
                                           SlotLedger& ledger);

/// The canonical repair packing order: members sorted longest link first,
/// ties by link index. Shared by patch_slot and the dynamic planner so the
/// packing order cannot drift between them.
[[nodiscard]] std::vector<std::size_t> pack_order(
    const geom::LinkView& links, std::span<const std::size_t> members);

/// Outcome of a patch-level (single color class) repair.
struct PatchResult {
  /// Feasible sub-slots covering kept + loose exactly once each, each with
  /// the ledger powers and bounds that certify it.
  std::vector<LedgerSlot> sub_slots;
  /// Feasibility decisions taken (what repair cost scales with); each is a
  /// certificate hit or a miss, so hits + misses == oracle_calls.
  std::size_t oracle_calls = 0;
  CertificateCounts certificates;
  /// Sub-slots that were opened fresh (not grown from `kept`).
  std::size_t slots_opened = 0;
};

/// Patch-level repair of ONE slot whose membership changed, and the only
/// first-fit packer: repair_schedule and the dynamic planner both call it.
/// `kept` holds the slot's surviving links with their ledger powers and
/// load bounds (ledger.unknown(...) when none are known); `loose` are the
/// changed/new links, first-fit inserted longest first into the first
/// sub-slot that admits them, else opening a new sub-slot. Every decision goes through the ledger: an O(|sub-slot|)
/// certificate when the bounds suffice, the exact decision otherwise.
///
/// Policy: an optimistic fast path first tries the whole class (kept +
/// loose) in one decision; with kept empty that is one exact decision on
/// loose in its given order, without bound probes. When members departed
/// since kept was last accepted, pass kept_certified = false: kept is then
/// re-checked once — demoted into the loose set if rejected — before any
/// insertion trusts it.
///
/// Preconditions: kept/loose are disjoint and duplicate-free; every
/// singleton must be feasible (std::runtime_error otherwise).
[[nodiscard]] PatchResult patch_slot(SlotLedger& ledger, LedgerSlot kept,
                                     std::span<const std::size_t> loose,
                                     bool kept_certified = true);

}  // namespace wagg::schedule

#endif  // WAGG_SCHEDULE_REPAIR_H
