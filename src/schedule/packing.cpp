#include "schedule/packing.h"

#include <numeric>

#include "schedule/repair.h"

namespace wagg::schedule {

Schedule ffd_schedule(const geom::LinkView& links, SlotLedger& ledger) {
  if (links.empty()) return Schedule{};
  // Repairing the one-slot schedule IS first-fit-decreasing: repair packs
  // the slot longest first.
  Schedule all;
  all.slots.emplace_back(links.size());
  std::iota(all.slots.front().begin(), all.slots.front().end(),
            std::size_t{0});
  return repair_schedule(links, all, ledger).schedule;
}

}  // namespace wagg::schedule
