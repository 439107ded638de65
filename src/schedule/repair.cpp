#include "schedule/repair.h"

#include <algorithm>
#include <stdexcept>

#include "sinr/feasibility.h"

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
                             const Schedule& schedule,
                             const FeasibilityOracle& oracle) {
  RepairResult result;
  result.length_before = schedule.length();
  for (const auto& slot : schedule.slots) {
    if (oracle(slot)) {
      result.schedule.slots.push_back(slot);
      continue;
    }
    ++result.slots_split;
    // Re-pack first-fit in non-increasing length order (longest links are
    // the hardest to place; packing them first keeps sub-slot counts low).
    const auto ordered = pack_order(links, slot);
    std::vector<std::vector<std::size_t>> sub_slots;
    std::vector<std::size_t> trial;
    for (std::size_t link : ordered) {
      bool placed = false;
      for (auto& sub : sub_slots) {
        trial = sub;
        trial.push_back(link);
        if (oracle(trial)) {
          sub.push_back(link);
          placed = true;
          break;
        }
      }
      if (!placed) {
        trial = {link};
        if (!oracle(trial)) {
          throw std::runtime_error(
              "repair_schedule: singleton slot infeasible; instance is not "
              "interference-limited under this oracle");
        }
        sub_slots.push_back(std::move(trial));
      }
    }
    for (auto& sub : sub_slots) {
      result.schedule.slots.push_back(std::move(sub));
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
  // Longest-first, matching repair_schedule's packing order.
  std::vector<std::size_t> ordered = pack_order(ledger.links(), loose);

  // Optimistic fast path: at low churn the whole class usually still fits
  // in one slot, so one decision on (kept + loose) replaces |loose|
  // incremental ones — and certifies the merged membership outright,
  // uncertified kept included. Costs a single extra decision when it misses.
  if (ordered.size() > 1 || (!kept_certified && !ordered.empty())) {
    LedgerSlot trial = kept;
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

RepairResult repair_schedule_fixed_power(const geom::LinkView& links,
                                         const Schedule& schedule,
                                         const sinr::SinrParams& params,
                                         const sinr::PowerAssignment& power,
                                         double tolerance) {
  params.validate();
  RepairResult result;
  result.length_before = schedule.length();
  SlotLedger ledger(links, params, power, tolerance);
  CertificateCounts counts;  // exact pinned bounds: every decision is a hit
  std::vector<LedgerSlot> subs;
  for (const auto& slot : schedule.slots) {
    if (sinr::is_feasible(links, slot, params, power, tolerance)) {
      result.schedule.slots.push_back(slot);
      continue;
    }
    ++result.slots_split;
    subs.clear();
    for (const std::size_t link : pack_order(links, slot)) {
      bool placed = false;
      for (auto& sub : subs) {
        if (ledger.admit(sub, link, counts)) {
          placed = true;
          break;
        }
      }
      if (placed) continue;
      // A link no sub-slot admits: its own noise load is its whole load.
      subs.push_back(ledger.open(link));
      if (!ledger.certifies(subs.back())) {
        throw std::runtime_error(
            "repair_schedule_fixed_power: singleton slot infeasible; "
            "instance is not interference-limited under this power");
      }
    }
    for (auto& sub : subs) {
      result.schedule.slots.push_back(std::move(sub.members));
    }
  }
  result.length_after = result.schedule.length();
  return result;
}

}  // namespace wagg::schedule
