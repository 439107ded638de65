#ifndef WAGG_SCHEDULE_PACKING_H
#define WAGG_SCHEDULE_PACKING_H

#include "geom/linkset.h"
#include "schedule/ledger.h"
#include "schedule/schedule.h"

namespace wagg::schedule {

/// First-fit-decreasing schedule construction directly against the slot
/// ledger's feasibility rule, with no conflict graph at all: links are
/// processed in non-increasing length order and each joins the first slot
/// that stays feasible with it. This is the natural greedy baseline in the
/// spirit of Kesselheim's capacity framework [16] — the paper's
/// conflict-graph colorings exist to beat/approximate it with local,
/// graph-theoretic decisions. Benchmarked against the planner in E9.
///
/// `ledger` must be over `links`. Throws std::runtime_error if some
/// singleton is infeasible.
[[nodiscard]] Schedule ffd_schedule(const geom::LinkView& links,
                                    SlotLedger& ledger);

}  // namespace wagg::schedule

#endif  // WAGG_SCHEDULE_PACKING_H
