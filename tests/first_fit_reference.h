#ifndef WAGG_TESTS_FIRST_FIT_REFERENCE_H
#define WAGG_TESTS_FIRST_FIT_REFERENCE_H

// Reference repair for tests: first fit driven by a slot oracle alone, the
// definition schedule::repair_schedule must reproduce slot for slot. Each
// slot the oracle accepts is kept as is; any other slot is repacked in
// pack_order, each link joining the first sub-slot the oracle still
// accepts with it, else opening a new one.

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "geom/linkset.h"
#include "schedule/repair.h"
#include "schedule/schedule.h"
#include "schedule/verify.h"

namespace wagg::schedule::testing {

inline Schedule oracle_first_fit(const geom::LinkView& links,
                                 const Schedule& schedule,
                                 const FeasibilityOracle& oracle) {
  Schedule out;
  for (const auto& slot : schedule.slots) {
    if (oracle(slot)) {
      out.slots.push_back(slot);
      continue;
    }
    std::vector<std::vector<std::size_t>> subs;
    std::vector<std::size_t> trial;
    for (const std::size_t link : pack_order(links, slot)) {
      bool placed = false;
      for (auto& sub : subs) {
        trial = sub;
        trial.push_back(link);
        if (oracle(trial)) {
          sub.push_back(link);
          placed = true;
          break;
        }
      }
      if (placed) continue;
      trial = {link};
      if (!oracle(trial)) throw std::runtime_error("infeasible singleton");
      subs.push_back(trial);
    }
    for (auto& sub : subs) out.slots.push_back(std::move(sub));
  }
  return out;
}

}  // namespace wagg::schedule::testing

#endif  // WAGG_TESTS_FIRST_FIT_REFERENCE_H
