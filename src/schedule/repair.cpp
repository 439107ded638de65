#include "schedule/repair.h"

#include <algorithm>
#include <stdexcept>

namespace wagg::schedule {

std::vector<std::size_t> pack_order(const geom::LinkView& links,
                                    std::span<const std::size_t> members) {
  std::vector<std::size_t> ordered(members.begin(), members.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (links.length(a) != links.length(b)) {
                       return links.length(a) > links.length(b);
                     }
                     return a < b;
                   });
  return ordered;
}

RepairResult repair_schedule(const geom::LinkView& links,
                             const Schedule& schedule, SlotLedger& ledger) {
  if (&ledger.links() != &links) {
    throw std::invalid_argument(
        "repair_schedule: the ledger is over a different link set");
  }
  RepairResult result;
  result.length_before = schedule.length();
  for (const auto& slot : schedule.slots) {
    if (slot.empty()) {
      result.schedule.slots.emplace_back();
      result.certificates.emplace_back();
      continue;
    }
    auto patch = patch_slot(ledger, ledger.unknown(slot), {}, false);
    if (patch.sub_slots.size() > 1) ++result.slots_split;
    for (auto& sub : patch.sub_slots) {
      result.schedule.slots.push_back(sub.members);
      result.certificates.push_back(std::move(sub));
    }
  }
  result.length_after = result.schedule.length();
  return result;
}

PatchResult patch_slot(SlotLedger& ledger, LedgerSlot kept,
                       std::span<const std::size_t> loose,
                       bool kept_certified) {
  PatchResult result;
  bool has_kept = !kept.members.empty();
  // Longest-first: the canonical packing order.
  std::vector<std::size_t> ordered = pack_order(ledger.links(), loose);

  // Optimistic fast path: at low churn the whole class usually still fits
  // in one slot, so one decision on (kept + loose) replaces |loose|
  // incremental ones — and certifies the merged membership outright,
  // uncertified kept included. Costs a single extra decision when it misses.
  if (ordered.size() > 1 || (!kept_certified && !ordered.empty())) {
    // With nothing kept there are no bounds to grow: the class goes to one
    // exact decision in its given order, as each slot of repair_schedule.
    LedgerSlot trial = has_kept ? kept : ledger.unknown(loose);
    if (has_kept) {
      // Once the trial is over bound no later insertion brings it back, so
      // the rest join without a probe.
      bool bounded = ledger.certifies(trial);
      for (const std::size_t link : ordered) {
        if (bounded) {
          bounded = ledger.insert(trial, link);
        } else {
          ledger.append(trial, link);
        }
      }
    }
    ++result.oracle_calls;
    if (ledger.settle(trial, result.certificates)) {
      if (!has_kept) ++result.slots_opened;
      result.sub_slots.push_back(std::move(trial));
      return result;
    }
  }

  // Before any insertion trusts an uncertified kept, re-check it once; a
  // rejected kept is demoted into the loose set and repacked.
  if (!kept_certified && has_kept) {
    ++result.oracle_calls;
    if (!ledger.settle(kept, result.certificates)) {
      ordered.insert(ordered.end(), kept.members.begin(), kept.members.end());
      ordered = pack_order(ledger.links(), ordered);
      has_kept = false;
    }
  }
  if (has_kept) result.sub_slots.push_back(std::move(kept));
  for (const std::size_t link : ordered) {
    bool placed = false;
    for (auto& sub : result.sub_slots) {
      ++result.oracle_calls;
      if (ledger.admit(sub, link, result.certificates)) {
        placed = true;
        break;
      }
    }
    if (!placed) {
      LedgerSlot single = ledger.open(link);
      ++result.oracle_calls;
      if (!ledger.settle(single, result.certificates)) {
        throw std::runtime_error(
            "patch_slot: singleton slot infeasible; instance is not "
            "interference-limited under this oracle");
      }
      result.sub_slots.push_back(std::move(single));
      ++result.slots_opened;
    }
  }
  return result;
}

}  // namespace wagg::schedule
