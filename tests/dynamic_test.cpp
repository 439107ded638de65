#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "conflict/conflict_index.h"
#include "conflict/fgraph.h"
#include "core/planner.h"
#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "mst/incremental.h"
#include "mst/mst.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/plan_service.h"
#include "schedule/verify.h"
#include "util/clock.h"
#include "sinr/feasibility.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace wagg::dynamic {
namespace {

/// From-scratch MST weight of the alive points, for exactness checks.
double recomputed_weight(const mst::IncrementalMst& inc) {
  geom::Pointset points;
  for (const auto id : inc.alive_ids()) points.push_back(inc.position(id));
  if (points.size() < 2) return 0.0;
  const auto edges = mst::euclidean_mst(points);
  return mst::total_weight(points, edges);
}

void expect_mst_exact(const mst::IncrementalMst& inc, const char* where) {
  ASSERT_TRUE(mst::is_spanning_tree(inc.num_alive(), inc.compact_edges()))
      << where;
  EXPECT_NEAR(inc.weight(), recomputed_weight(inc),
              1e-9 * std::max(1.0, recomputed_weight(inc)))
      << where;
}

TEST(IncrementalMst, AddMatchesFromScratch) {
  auto points = workload::make_family("uniform", 48, 11);
  mst::IncrementalMst inc(points);
  expect_mst_exact(inc, "initial");
  util::Rng rng(99);
  for (int step = 0; step < 25; ++step) {
    inc.add_point({rng.uniform(0.0, 7.0), rng.uniform(0.0, 7.0)});
    expect_mst_exact(inc, "after add");
  }
}

TEST(IncrementalMst, RemoveAndMoveMatchFromScratch) {
  auto points = workload::make_family("uniform", 64, 5);
  mst::IncrementalMst inc(points);
  util::Rng rng(7);
  for (int step = 0; step < 40; ++step) {
    const auto ids = inc.alive_ids();
    const auto victim = ids[rng.below(ids.size())];
    if (step % 2 == 0 && inc.num_alive() > 8) {
      inc.remove_point(victim);
    } else {
      const auto& from = inc.position(victim);
      inc.move_point(victim, {from.x + rng.normal() * 0.5,
                              from.y + rng.normal() * 0.5});
    }
    expect_mst_exact(inc, "after remove/move");
  }
}

TEST(IncrementalMst, MoveIntoLongEdgeReplacesIt) {
  // Moving a far-away node between the endpoints of a long edge must drop
  // that edge — the regression a lazy "reattach only the moved node" update
  // would miss.
  geom::Pointset points = {{0, 0}, {10, 0}, {100, 100}};
  mst::IncrementalMst inc(points);
  inc.move_point(2, {5.0, 0.1});
  expect_mst_exact(inc, "after move into edge");
  // The direct 0 <-> 1 edge (length 10) is no longer in the tree.
  for (const auto& e : inc.edges()) {
    EXPECT_FALSE(e.a == 0 && e.b == 1);
  }
}

TEST(IncrementalMst, DeferredBulkRebuildMatchesFromScratch) {
  auto points = workload::make_family("uniform", 50, 8);
  mst::IncrementalMst inc(points);
  util::Rng rng(31);
  for (int step = 0; step < 12; ++step) {
    inc.add_point_deferred({rng.uniform(0.0, 7.0), rng.uniform(0.0, 7.0)});
  }
  const auto ids = inc.alive_ids();
  inc.remove_point_deferred(ids[5]);
  inc.move_point_deferred(ids[10], {3.0, 3.0});
  inc.rebuild();
  expect_mst_exact(inc, "after bulk rebuild");
  // Immediate updates keep working after a rebuild.
  inc.add_point({1.5, 1.5});
  expect_mst_exact(inc, "immediate after rebuild");
}

/// Replays a churn trace directly against an IncrementalMst, mirroring the
/// planner's kind -> operation mapping.
void apply_epoch_to_mst(mst::IncrementalMst& inc,
                        const std::vector<Mutation>& epoch) {
  for (const auto& m : epoch) {
    switch (m.kind) {
      case Mutation::Kind::kAdd:
        (void)inc.add_point(m.position);
        break;
      case Mutation::Kind::kRemove:
        inc.remove_point(m.node);
        break;
      case Mutation::Kind::kMove:
        inc.move_point(m.node, m.position);
        break;
    }
  }
}

/// The dynamic-tree engine's acceptance sweep: across several scales and
/// families, mixed traces (moves + net growth + net shrink) must keep the
/// maintained tree weight-equal to a from-scratch Prim run after EVERY
/// epoch.
TEST(IncrementalMst, MixedTraceSweepMatchesPrimAcrossScales) {
  for (const std::size_t n : {24u, 72u, 160u}) {
    for (const std::string family : {"uniform", "cluster"}) {
      ChurnParams params;
      params.epochs = 6;
      params.rate = 0.08;
      params.grow_rate = 0.05;
      const auto points = workload::make_family(family, n, 29);
      const auto grow_trace = dynamic::make_churn_trace(points, params, 51);
      mst::IncrementalMst growing(points);
      for (const auto& epoch : grow_trace) {
        apply_epoch_to_mst(growing, epoch);
        expect_mst_exact(growing, (family + " grow").c_str());
      }
      EXPECT_GT(growing.num_alive(), points.size())
          << family << " n=" << n;

      params.grow_rate = 0.0;
      params.shrink_rate = 0.08;
      const auto shrink_trace = dynamic::make_churn_trace(points, params, 52);
      mst::IncrementalMst shrinking(points);
      for (const auto& epoch : shrink_trace) {
        apply_epoch_to_mst(shrinking, epoch);
        expect_mst_exact(shrinking, (family + " shrink").c_str());
      }
      EXPECT_LT(shrinking.num_alive(), points.size())
          << family << " n=" << n;
    }
  }
}

/// Duplicate-distance ties: coincident points (zero-length edges), nodes
/// moved exactly onto other nodes, and the all-ties unit grid. Weight
/// equality must survive every one of them — the (w2, a, b) total order is
/// what keeps the swaps deterministic when w2 alone cannot decide.
TEST(IncrementalMst, DuplicatePositionsAndTiedDistancesStayExact) {
  // Unit grid: every adjacent distance ties with every other.
  const auto grid_points = workload::make_family("grid", 25, 1);
  mst::IncrementalMst inc(grid_points);
  expect_mst_exact(inc, "unit grid seed");
  // Duplicate of an existing point (distance 0 to its twin, ties beyond).
  const auto dup = inc.add_point(grid_points[7]);
  expect_mst_exact(inc, "coincident add");
  // Another coincident pair on a different site.
  (void)inc.add_point(grid_points[12]);
  expect_mst_exact(inc, "second coincident add");
  // Move a node exactly onto another node's position.
  inc.move_point(3, grid_points[18]);
  expect_mst_exact(inc, "move onto occupied site");
  // Move a far node exactly onto a grid site adjacent to the duplicate.
  inc.move_point(24, grid_points[8]);
  expect_mst_exact(inc, "move onto adjacent site");
  // Removing one of a coincident pair keeps the tree exact.
  inc.remove_point(dup);
  expect_mst_exact(inc, "remove twin");
  inc.remove_point(7);
  expect_mst_exact(inc, "remove the other twin");
}

TEST(ChurnTrace, GrowScheduleTrendsUpward) {
  const auto points = workload::make_family("uniform", 40, 3);
  ChurnParams plain;
  plain.epochs = 10;
  plain.rate = 0.05;
  ChurnParams grow = plain;
  grow.grow_rate = 0.1;
  const auto base = make_churn_trace(points, plain, 42);
  const auto grown = make_churn_trace(points, grow, 42);
  ASSERT_EQ(base.size(), grown.size());
  // The first epoch's mixed prefix is byte-identical: grow events are
  // appended AFTER the rate-driven draws, so the legacy stream survives.
  ASSERT_GE(grown[0].size(), base[0].size());
  for (std::size_t m = 0; m < base[0].size(); ++m) {
    EXPECT_EQ(grown[0][m], base[0][m]) << "mutation " << m;
  }
  // Net growth: final alive count strictly above the initial.
  std::ptrdiff_t net = 0;
  std::size_t extra_adds = 0;
  for (std::size_t e = 0; e < grown.size(); ++e) {
    for (const auto& m : grown[e]) {
      if (m.kind == Mutation::Kind::kAdd) ++net;
      if (m.kind == Mutation::Kind::kRemove) --net;
    }
    extra_adds += grown[e].size() - base[e].size();
  }
  EXPECT_GT(net, 0);
  EXPECT_GE(extra_adds, grown.size());  // >= 1 appended add per epoch
  // Determinism.
  EXPECT_EQ(grown, make_churn_trace(points, grow, 42));
}

TEST(ChurnTrace, ShrinkScheduleBottomsOutAtMinNodes) {
  const auto points = workload::make_family("uniform", 16, 5);
  ChurnParams params;
  params.epochs = 12;
  params.rate = 0.05;
  params.add_weight = 0.0;  // no arrivals at all
  params.move_weight = 1.0;
  params.remove_weight = 0.0;
  params.shrink_rate = 0.3;
  const auto trace = make_churn_trace(points, params, 9);
  std::size_t alive = points.size();
  for (const auto& epoch : trace) {
    for (const auto& m : epoch) {
      if (m.kind == Mutation::Kind::kAdd) ++alive;
      if (m.kind == Mutation::Kind::kRemove) {
        --alive;
        EXPECT_NE(m.node, 0);  // the sink survives shrink schedules
      }
    }
    EXPECT_GE(alive, params.min_nodes);
  }
  // The schedule actually bottomed out instead of oscillating via adds.
  EXPECT_EQ(alive, params.min_nodes);
  // A planner survives the whole shrink-to-the-floor session.
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_tree_match) << "epoch " << report.epoch;
  }
  EXPECT_EQ(planner.num_nodes(), params.min_nodes);
}

TEST(ChurnParams, RejectsNegativeGrowShrink) {
  ChurnParams params;
  params.epochs = 4;
  params.grow_rate = -0.1;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.grow_rate = 0.0;
  params.shrink_rate = -1.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.shrink_rate = 0.5;
  EXPECT_NO_THROW(params.validate());
}

TEST(DynamicPlanner, HighChurnBulkEpochsStayValid) {
  // rate 0.3 on n=64 -> ~19 mutations per epoch, well past the bulk-rebuild
  // threshold, and dirty fractions that exercise the fallback path.
  const auto points = workload::make_family("uniform", 64, 17);
  ChurnParams params;
  params.epochs = 6;
  params.rate = 0.3;
  const auto trace = make_churn_trace(points, params, 23);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_tree_match) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_store_match) << "epoch " << report.epoch;
  }
}

TEST(IncrementalMst, RejectsDeadIds) {
  mst::IncrementalMst inc(workload::make_family("uniform", 8, 1));
  inc.remove_point(3);
  EXPECT_THROW(inc.remove_point(3), std::invalid_argument);
  EXPECT_THROW(inc.move_point(3, {0, 0}), std::invalid_argument);
  EXPECT_THROW((void)inc.position(3), std::invalid_argument);
  EXPECT_THROW(inc.remove_point(99), std::invalid_argument);
}

TEST(ChurnTrace, DeterministicAndStructured) {
  const auto points = workload::make_family("uniform", 40, 3);
  ChurnParams params;
  params.epochs = 12;
  params.rate = 0.1;
  const auto a = make_churn_trace(points, params, 42);
  const auto b = make_churn_trace(points, params, 42);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 12u);
  for (const auto& epoch : a) {
    EXPECT_GE(epoch.size(), 1u);
    for (const auto& mutation : epoch) {
      if (mutation.kind == Mutation::Kind::kRemove) {
        EXPECT_NE(mutation.node, 0);  // sink protected
      }
    }
  }
  const auto c = make_churn_trace(points, params, 43);
  EXPECT_NE(a, c);
}

TEST(ChurnParams, Validation) {
  ChurnParams params;
  EXPECT_THROW(params.validate(), std::invalid_argument);  // epochs == 0
  params.epochs = 5;
  EXPECT_NO_THROW(params.validate());
  params.rate = 0.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
  params.rate = 0.1;
  params.add_weight = params.remove_weight = params.move_weight = 0.0;
  EXPECT_THROW(params.validate(), std::invalid_argument);
}

/// The acceptance check of the incremental engine: for several instance
/// families under seeded churn, every epoch's incremental plan must pass a
/// from-scratch verification and its tree must weigh the same as a
/// from-scratch MST (audit mode computes both).
TEST(DynamicPlanner, AuditedChurnStaysValidAcrossFamilies) {
  // expchain matters: its doubly-exponential length spread makes the
  // power-control oracle's iterative bound conservative and non-monotone
  // under member departure — the regression that forced membership-exact
  // slot certification.
  for (const std::string family :
       {"uniform", "cluster", "noisygrid", "expchain"}) {
    const auto points = workload::make_family(family, 72, 9);
    ChurnParams params;
    params.epochs = 10;
    params.rate = 0.06;
    const auto trace = make_churn_trace(points, params, 1234);

    DynamicOptions options;
    options.config = workload::mode_config(core::PowerMode::kGlobal);
    options.audit = true;
    DynamicPlanner planner(points, options);
    EXPECT_TRUE(planner.last_report().valid) << family;
    EXPECT_TRUE(planner.last_report().audit_valid) << family;

    for (const auto& epoch : trace) {
      const auto report = planner.apply(epoch);
      EXPECT_TRUE(report.valid) << family << " epoch " << report.epoch;
      EXPECT_TRUE(report.audit_valid)
          << family << " epoch " << report.epoch;
      EXPECT_TRUE(report.audit_tree_match)
          << family << " epoch " << report.epoch;
      EXPECT_TRUE(report.audit_store_match)
          << family << " epoch " << report.epoch;
      EXPECT_GT(report.rate, 0.0);
      EXPECT_EQ(report.num_links + 1, report.num_nodes);
    }
  }
}

/// Randomized equivalence harness for the persistent conflict index: across
/// a churn trace, after EVERY epoch the index must answer every link's
/// conflict row exactly like (a) a from-scratch bucketed subset query and
/// (b) the brute-force O(n^2) conflict graph over the same snapshot.
TEST(DynamicPlanner, ConflictIndexMatchesFromScratchEveryEpoch) {
  for (const std::string family : {"uniform", "cluster", "expchain"}) {
    const auto points = workload::make_family(family, 64, 31);
    ChurnParams params;
    params.epochs = 8;
    params.rate = 0.08;
    const auto trace = make_churn_trace(points, params, 77);

    DynamicOptions options;
    options.config = workload::mode_config(core::PowerMode::kGlobal);
    DynamicPlanner planner(points, options);
    const auto spec = core::spec_for_mode(options.config);

    const auto check_epoch = [&](std::size_t epoch) {
      const auto& links = planner.snapshot().links;
      ASSERT_EQ(planner.conflict_index().size(), links.size())
          << family << " epoch " << epoch;
      std::vector<std::size_t> all(links.size());
      std::iota(all.begin(), all.end(), std::size_t{0});
      const auto index_rows =
          planner.conflict_index().neighbors(links, spec, all);
      const auto scratch_rows =
          conflict::ConflictIndex::of(links).neighbors(links, spec, all);
      EXPECT_EQ(index_rows, scratch_rows) << family << " epoch " << epoch;
      const auto brute = conflict::build_conflict_graph(links, spec);
      for (std::size_t u = 0; u < links.size(); ++u) {
        const auto expected = brute.neighbors(u);
        ASSERT_EQ(index_rows[u].size(), expected.size())
            << family << " epoch " << epoch << " row " << u;
        for (std::size_t a = 0; a < expected.size(); ++a) {
          EXPECT_EQ(index_rows[u][a], expected[a])
              << family << " epoch " << epoch << " row " << u;
        }
      }
    };
    check_epoch(0);
    for (const auto& epoch : trace) {
      (void)planner.apply(epoch);
      check_epoch(planner.epoch());
    }
  }
}

TEST(DynamicPlanner, AuditChecksConflictIndex) {
  const auto points = workload::make_family("uniform", 48, 9);
  ChurnParams params;
  params.epochs = 4;
  params.rate = 0.1;
  const auto trace = make_churn_trace(points, params, 21);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  EXPECT_TRUE(planner.last_report().audit_index_match);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.audit_index_match) << "epoch " << report.epoch;
  }
}

/// The documented apply() contract: a throwing mutation mid-batch leaves
/// the plan on the previous epoch, and the next successful epoch replans
/// (and re-verifies) from scratch — including after partially applied
/// prefixes on both the per-mutation and the bulk path.
TEST(DynamicPlanner, BadMutationMidBatchThenGoodEpochRecovers) {
  const auto points = workload::make_family("uniform", 40, 13);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  const auto epoch_before = planner.epoch();
  const auto slots_before = planner.snapshot().schedule.length();

  // Per-mutation path: good prefix, then a dead-node removal.
  std::vector<Mutation> batch;
  batch.push_back({Mutation::Kind::kAdd, -1, {1.5, 2.5}});
  batch.push_back({Mutation::Kind::kRemove, 7, {}});
  batch.push_back({Mutation::Kind::kRemove, 7, {}});  // 7 is dead now
  batch.push_back({Mutation::Kind::kAdd, -1, {2.5, 1.5}});
  EXPECT_THROW((void)planner.apply(batch), std::invalid_argument);
  EXPECT_EQ(planner.epoch(), epoch_before);  // plan stayed on the old epoch
  EXPECT_EQ(planner.snapshot().schedule.length(), slots_before);

  // Next good epoch must re-anchor from scratch and stay audit-clean.
  const auto report =
      planner.apply(Mutation{Mutation::Kind::kAdd, -1, {3.0, 3.0}});
  EXPECT_TRUE(report.full_replan);  // carried state was invalidated
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.audit_valid);
  EXPECT_TRUE(report.audit_tree_match);
  EXPECT_TRUE(report.audit_store_match);
  EXPECT_TRUE(report.audit_index_match);

  // Bulk path: enough mutations to defer tree updates, with a bad one in
  // the middle; the catch must rebuild the tree AND invalidate carry-over.
  std::vector<Mutation> bulk;
  for (int i = 0; i < 6; ++i) {
    bulk.push_back({Mutation::Kind::kAdd, -1, {4.0 + 0.1 * i, 4.0}});
  }
  bulk.push_back({Mutation::Kind::kRemove, 0, {}});  // the sink
  for (int i = 0; i < 6; ++i) {
    bulk.push_back({Mutation::Kind::kAdd, -1, {5.0 + 0.1 * i, 5.0}});
  }
  EXPECT_THROW((void)planner.apply(bulk), std::invalid_argument);
  const auto after_bulk =
      planner.apply(Mutation{Mutation::Kind::kMove, 3, {0.5, 0.5}});
  EXPECT_TRUE(after_bulk.full_replan);
  EXPECT_TRUE(after_bulk.valid);
  EXPECT_TRUE(after_bulk.audit_valid);
  EXPECT_TRUE(after_bulk.audit_tree_match);
  EXPECT_TRUE(after_bulk.audit_store_match);
  EXPECT_TRUE(after_bulk.audit_index_match);
}

/// The slot ledger's certificates are sound: across randomized global churn
/// (noise 0 and > 0, with a bulk tree-rebuild epoch and a failed epoch mixed
/// in), every shipped power vector satisfies the exact SINR inequalities on
/// its slot, every slot passes the cold oracle, localized epochs ship their
/// powers without a single fresh solve, and a failed epoch drops the ledger.
TEST(DynamicPlanner, SlotLedgerCertificatesAreSound) {
  for (const std::size_t n : {64u, 256u}) {
    for (const double noise : {0.0, 1e-6}) {
      for (const std::uint64_t seed : {3u, 8u}) {
        SCOPED_TRACE("n " + std::to_string(n) + " noise " +
                     std::to_string(noise) + " seed " + std::to_string(seed));
        const auto points = workload::make_family("uniform", n, seed);
        ChurnParams params;
        params.epochs = 8;
        params.rate = 0.03;
        const auto trace = make_churn_trace(points, params, seed + 100);
        DynamicOptions options;
        options.config = workload::mode_config(core::PowerMode::kGlobal);
        options.config.sinr.noise = noise;
        options.audit = n <= 64;
        DynamicPlanner planner(points, options);

        const auto check = [&](const char* where) {
          const auto& powers = planner.slot_powers();
          const auto& report = planner.last_report();
          const auto& snapshot = planner.snapshot();
          ASSERT_EQ(powers.size(), snapshot.schedule.slots.size()) << where;
          for (std::size_t s = 0; s < powers.size(); ++s) {
            EXPECT_TRUE(sinr::is_feasible(snapshot.links,
                                          snapshot.schedule.slots[s],
                                          options.config.sinr, powers[s],
                                          1e-6))
                << where << " slot " << s;
          }
          const auto oracle =
              core::oracle_for_mode(snapshot.links, options.config);
          EXPECT_TRUE(
              schedule::verify_schedule(snapshot.links, snapshot.schedule,
                                        oracle)
                  .ok())
              << where;
          // Every epoch, construction included, seeds the ledger from
          // repair's certificates.
          EXPECT_EQ(report.power_slots_computed, 0u) << where;
          EXPECT_EQ(report.certificate_hits + report.certificate_misses,
                    report.oracle_calls)
              << where;
          if (report.audited) {
            EXPECT_TRUE(report.audit_valid) << where;
            EXPECT_TRUE(report.audit_power_valid) << where;
          }
        };
        check("construction");

        bool saw_bulk = false;
        for (std::size_t e = 0; e < trace.size(); ++e) {
          const auto report = planner.apply(trace[e]);
          EXPECT_TRUE(report.valid);
          check("trace epoch");
          if (e == 2) {
            // Bulk epoch: move a quarter of the nodes (ids and liveness
            // untouched, so the rest of the trace stays applicable).
            std::vector<Mutation> bulk;
            const auto& ids = planner.snapshot().ids;
            const auto& pts = planner.snapshot().points;
            for (std::size_t k = 0; k < ids.size(); k += 4) {
              bulk.push_back({Mutation::Kind::kMove, ids[k],
                              {pts[k].x * 0.97 + 0.05, pts[k].y * 1.01}});
            }
            auto& rebuilds = obs::Registry::global().counter("mst.rebuilds");
            const auto rebuilds_before = rebuilds.value();
            (void)planner.apply(bulk);
            saw_bulk = rebuilds.value() == rebuilds_before + 1;
            check("bulk epoch");
          }
          if (e == 4) {
            // Failed epoch: a good move, then removing the sink.
            const auto& snapshot = planner.snapshot();
            std::vector<Mutation> bad;
            bad.push_back({Mutation::Kind::kMove, snapshot.ids.back(),
                           snapshot.points.back()});
            bad.push_back({Mutation::Kind::kRemove, planner.sink(), {}});
            EXPECT_THROW((void)planner.apply(bad), std::invalid_argument);
            // The ledger went with the carried state: every slot of the
            // (unchanged) plan is solved afresh.
            const auto before = planner.last_report().power_slots_computed;
            const auto slots = planner.snapshot().schedule.length();
            (void)planner.slot_powers();
            EXPECT_EQ(planner.last_report().power_slots_computed - before,
                      slots);
          }
        }
        EXPECT_TRUE(saw_bulk);
      }
    }
  }
}

/// Regression: a FAILED epoch loses its touched-node list, and the recovery
/// reconcile refreshes store lengths with set_length — which fires no event
/// when the value is bit-identical. A node that rotated around its tree
/// parent (length unchanged, position changed) would leave the conflict
/// index holding its OLD endpoint position unless the reconcile re-seeds
/// the index from scratch.
TEST(DynamicPlanner, FailedEpochWithLengthPreservingMoveResyncsIndex) {
  // Node 1 sits at distance exactly 5 from the sink; (5,0) -> (3,4) keeps
  // hypot == 5.0 bit-for-bit. Nodes 2 and 3 form a second tree edge whose
  // conflict relation to link 0-1 depends on node 1's actual position.
  const geom::Pointset points = {{0, 0}, {5, 0}, {3, 12}, {3, 17}};
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);

  std::vector<Mutation> batch;
  batch.push_back({Mutation::Kind::kMove, 1, {3, 4}});
  batch.push_back({Mutation::Kind::kRemove, 42, {}});  // unknown node
  EXPECT_THROW((void)planner.apply(batch), std::invalid_argument);

  // The move stayed applied (documented prefix semantics); the next good
  // epoch must see node 1 at (3, 4) in the conflict index too.
  const auto report =
      planner.apply(Mutation{Mutation::Kind::kAdd, -1, {20.0, 0.0}});
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.audit_valid);
  EXPECT_TRUE(report.audit_index_match);
}

/// The row-cache variant of the staleness regression above: warm the cache
/// with an explicit full-row query, fail an epoch after a prefix of applied
/// mutations, and require that the recovery reconcile dropped every cached
/// row — a survivor would serve pre-failure geometry from the cache even
/// though the grids themselves were re-seeded correctly.
TEST(DynamicPlanner, FailedEpochCannotLeaveStaleCachedRows) {
  const geom::Pointset points = {{0, 0}, {5, 0}, {3, 12}, {3, 17}};
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  const auto spec = core::spec_for_mode(options.config);

  // Materialize every row so the failure path has cached state to corrupt.
  {
    const auto& links = planner.snapshot().links;
    std::vector<std::size_t> all(links.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    (void)planner.conflict_index().neighbors(links, spec, all);
    ASSERT_GT(planner.conflict_index().rows_cached(), 0u);
  }

  // Length-preserving rotation, then a throwing mutation: the prefix stays
  // applied but the epoch fails and the planner reconciles from scratch.
  std::vector<Mutation> batch;
  batch.push_back({Mutation::Kind::kMove, 1, {3, 4}});
  batch.push_back({Mutation::Kind::kRemove, 42, {}});
  EXPECT_THROW((void)planner.apply(batch), std::invalid_argument);

  const auto report =
      planner.apply(Mutation{Mutation::Kind::kAdd, -1, {20.0, 0.0}});
  EXPECT_TRUE(report.valid);
  EXPECT_TRUE(report.audit_index_match);

  // Belt and braces beyond the audit: both the mixed query and the all-hit
  // repeat must match a from-scratch row build on the recovered snapshot.
  const auto& links = planner.snapshot().links;
  std::vector<std::size_t> all(links.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto scratch =
      conflict::ConflictIndex::of(links).neighbors(links, spec, all);
  EXPECT_EQ(planner.conflict_index().neighbors(links, spec, all), scratch);
  EXPECT_EQ(planner.conflict_index().neighbors(links, spec, all), scratch);
}

/// Construction re-plans every link through the epoch loop, and yields
/// exactly the from-scratch schedule (core::schedule_links) of its links in
/// every power mode, with and without noise.
TEST(DynamicPlanner, ConstructionEqualsTheFromScratchSchedule) {
  const auto points = workload::make_family("uniform", 96, 6);
  for (const auto mode :
       {core::PowerMode::kGlobal, core::PowerMode::kUniform,
        core::PowerMode::kLinear, core::PowerMode::kOblivious}) {
    for (const double noise : {0.0, 1e-9}) {
      SCOPED_TRACE(core::to_string(mode) + " noise " + std::to_string(noise));
      DynamicOptions options;
      options.config = workload::mode_config(mode);
      options.config.sinr.noise = noise;
      const DynamicPlanner planner(points, options);
      const auto& snapshot = planner.snapshot();
      EXPECT_TRUE(planner.last_report().full_replan);
      EXPECT_TRUE(planner.last_report().valid);
      EXPECT_EQ(snapshot.schedule.slots,
                core::schedule_links(snapshot.links, options.config)
                    .schedule.slots);
    }
  }
}

/// Construction seeds the conflict index once, through the store listener:
/// one add per link, with no second re-seed pass.
TEST(DynamicPlanner, ConstructionAddsEachLinkToTheIndexOnce) {
  const auto points = workload::make_family("uniform", 256, 4);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  const DynamicPlanner planner(points, options);
  EXPECT_EQ(planner.conflict_index().stats().adds,
            planner.last_report().num_links);
  EXPECT_EQ(planner.conflict_index().size(), planner.last_report().num_links);
}

/// dynamic.slot_drift records slots / audit_full_slots once per audited
/// epoch, construction included.
TEST(DynamicPlanner, SlotDriftHistogramCountsAuditedEpochs) {
  auto& registry = obs::Registry::global();
  registry.reset();
  const auto points = workload::make_family("uniform", 64, 2);
  ChurnParams params;
  params.epochs = 5;
  params.rate = 0.05;
  const auto trace = make_churn_trace(points, params, 9);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  DynamicPlanner planner(points, options);
  std::vector<EpochReport> reports{planner.last_report()};
  for (const auto& epoch : trace) reports.push_back(planner.apply(epoch));

  double drift_sum = 0.0;
  for (const auto& r : reports) {
    ASSERT_TRUE(r.audited);
    drift_sum += static_cast<double>(r.slots) /
                 static_cast<double>(r.audit_full_slots);
  }
  const auto snapshot = registry.snapshot();
  const auto& h = snapshot.histograms.at("dynamic.slot_drift");
  EXPECT_EQ(h.count(), reports.size());
  EXPECT_NEAR(h.sum(), drift_sum, 1e-9 * drift_sum);
}

/// The construction epoch bills its seed tree to mst_update: the stage's
/// span sits inside the construction's epoch span, reads the same clock as
/// the report field, and lasts at least as long as a from-scratch tree of
/// the same points (the seed builds one, plus its dynamic-tree engine).
TEST(DynamicPlanner, ConstructionEpochBillsTheSeedTree) {
  const auto points = workload::make_family("uniform", 1024, 3);
  double emst_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = util::Clock::now();
    const auto edges = mst::euclidean_mst(points);
    emst_ms = std::min(emst_ms, util::ms_since(start));
    ASSERT_EQ(edges.size(), points.size() - 1);
  }

  auto& tracer = obs::Tracer::global();
  tracer.enable();
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  const DynamicPlanner planner(points, options);
  tracer.disable();
  const auto spans = tracer.collect();
  tracer.clear();

  const obs::CollectedSpan* epoch = nullptr;
  std::vector<const obs::CollectedSpan*> trees;
  for (const auto& span : spans) {
    if (span.name == "epoch") epoch = &span;
    if (span.name == "mst_update") trees.push_back(&span);
  }
  ASSERT_NE(epoch, nullptr);
  ASSERT_EQ(trees.size(), 1u);
  const auto& tree = *trees.front();
  EXPECT_GE(tree.start_ns, epoch->start_ns);
  EXPECT_LE(tree.end_ns, epoch->end_ns);
  const double span_ms = static_cast<double>(tree.end_ns - tree.start_ns) / 1e6;
  const double billed_ms = planner.last_report().timings.mst_update_ms;
  EXPECT_NEAR(span_ms, billed_ms, 1e-3);
  EXPECT_GE(billed_ms, 0.5 * emst_ms);
}

/// Cross-checks the published row-cache telemetry: across a churn run every
/// row served was either a cache hit or a miss, so the registry counters
/// must satisfy hits + misses == rows_queried exactly, and a warmed cache
/// must actually be hitting.
TEST(DynamicPlanner, RowCacheCountersSatisfyQueryIdentity) {
  obs::Registry::global().reset();
  const auto points = workload::make_family("uniform", 48, 17);
  ChurnParams params;
  params.epochs = 6;
  params.rate = 0.08;
  const auto trace = make_churn_trace(points, params, 33);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;  // audit double-queries, driving the hit path
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) (void)planner.apply(epoch);

  auto& reg = obs::Registry::global();
  const auto hits = reg.counter("conflict.row_cache_hits").value();
  const auto misses = reg.counter("conflict.row_cache_misses").value();
  EXPECT_EQ(hits + misses, reg.counter("conflict.rows_queried").value());
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);

  // The same identity must hold on the index's own cumulative stats.
  const auto stats = planner.conflict_index().stats();
  EXPECT_EQ(stats.row_cache_hits + stats.row_cache_misses,
            stats.rows_queried);
}

TEST(DynamicPlanner, FixedPowerModeStaysValid) {
  const auto points = workload::make_family("uniform", 60, 4);
  ChurnParams params;
  params.epochs = 8;
  params.rate = 0.08;
  const auto trace = make_churn_trace(points, params, 77);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kUniform);
  options.audit = true;
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.audit_valid) << "epoch " << report.epoch;
  }
}

TEST(DynamicPlanner, IndependentVerifyOfSnapshot) {
  const auto points = workload::make_family("twotier", 64, 21);
  ChurnParams params;
  params.epochs = 6;
  params.rate = 0.1;
  const auto trace = make_churn_trace(points, params, 5);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  DynamicPlanner planner(points, options);
  planner.apply_trace(trace);

  // Verify the final snapshot with a fresh oracle, independent of any state
  // the planner carries.
  const auto& snapshot = planner.snapshot();
  const auto oracle =
      core::oracle_for_mode(snapshot.links, options.config);
  const auto verification =
      schedule::verify_schedule(snapshot.links, snapshot.schedule, oracle);
  EXPECT_TRUE(verification.ok());
  EXPECT_TRUE(schedule::is_partition(snapshot.schedule,
                                     snapshot.links.size()));
}

TEST(DynamicPlanner, LowChurnMostlyReusesAndPatchesLocally) {
  const auto points = workload::make_family("uniform", 200, 2);
  ChurnParams params;
  params.epochs = 6;
  params.rate = 0.01;
  const auto trace = make_churn_trace(points, params, 3);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_FALSE(report.full_replan) << "epoch " << report.epoch;
    EXPECT_LT(report.dirty_links, report.num_links / 2)
        << "epoch " << report.epoch;
  }
}

/// Fixed power with noise couples every power to the global max link
/// length, so every epoch re-plans every link through the same recolor-and-
/// patch loop: each one is a full replan, counts its repair decisions,
/// yields the from-scratch schedule of its links, and stays audit-clean.
TEST(DynamicPlanner, NoiseCoupledEpochsReplanEveryLinkAndCountDecisions) {
  const auto points = workload::make_family("uniform", 64, 13);
  ChurnParams params;
  params.epochs = 5;
  params.rate = 0.1;
  const auto trace = make_churn_trace(points, params, 8);

  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kUniform);
  options.config.sinr.noise = 1e-9;
  options.audit = true;
  DynamicPlanner planner(points, options);
  for (std::size_t e = 0; e <= trace.size(); ++e) {
    if (e > 0) (void)planner.apply(trace[e - 1]);
    const auto& report = planner.last_report();
    const auto& snapshot = planner.snapshot();
    EXPECT_EQ(snapshot.schedule.slots,
              core::schedule_links(snapshot.links, options.config)
                  .schedule.slots)
        << "epoch " << report.epoch;
    EXPECT_TRUE(report.full_replan) << "epoch " << report.epoch;
    EXPECT_EQ(report.dirty_links, report.num_links) << "epoch " << report.epoch;
    EXPECT_EQ(report.reused_slots, 0u) << "epoch " << report.epoch;
    EXPECT_EQ(report.oracle_calls,
              report.certificate_hits + report.certificate_misses)
        << "epoch " << report.epoch;
    EXPECT_GT(report.oracle_calls, 0u) << "epoch " << report.epoch;
    EXPECT_TRUE(report.valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_valid) << "epoch " << report.epoch;
  }
}

TEST(DynamicPlanner, TimingLedgersAgreeAcrossFullReplanAndFailedEpochs) {
  // One stage clock bills EpochTimings, the dynamic.*_ms histograms and the
  // spans: over a session with full-replan epochs (construction, and the
  // recovery after a failed epoch), localized epochs and slot_powers()
  // calls, all three must tell the same story.
  auto& registry = obs::Registry::global();
  auto& tracer = obs::Tracer::global();
  registry.reset();
  tracer.enable();

  const auto points = workload::make_family("uniform", 96, 5);
  ChurnParams params;
  params.epochs = 6;
  params.rate = 0.05;
  const auto trace = make_churn_trace(points, params, 3);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  DynamicPlanner planner(points, options);

  std::vector<EpochReport> reports{planner.last_report()};
  double power_ms = 0.0;
  std::size_t power_calls = 0;
  std::vector<obs::CollectedSpan> spans;
  for (std::size_t e = 0; e < trace.size(); ++e) {
    if (e == 2) {
      // A failed epoch publishes nothing; its spans leave the window too.
      spans = tracer.collect();
      EXPECT_THROW(
          (void)planner.apply(Mutation{Mutation::Kind::kRemove,
                                       planner.sink(), {}}),
          std::invalid_argument);
      tracer.clear();
    }
    reports.push_back(planner.apply(trace[e]));
    if (e % 2 == 0) {
      (void)planner.slot_powers();
      power_ms += planner.last_report().timings.power_ms;
      ++power_calls;
    }
  }
  tracer.disable();
  const auto tail = tracer.collect();
  spans.insert(spans.end(), tail.begin(), tail.end());
  tracer.clear();

  std::size_t full = 0;
  EpochTimings sum;
  double epoch_sum = 0.0;
  for (const auto& r : reports) {
    if (r.full_replan) ++full;
    epoch_sum += r.timings.incremental_ms();
    sum.mst_update_ms += r.timings.mst_update_ms;
    sum.orient_ms += r.timings.orient_ms;
    sum.conflict_maintain_ms += r.timings.conflict_maintain_ms;
    sum.conflict_query_ms += r.timings.conflict_query_ms;
    sum.recolor_ms += r.timings.recolor_ms;
    sum.repair_ms += r.timings.repair_ms;
  }
  EXPECT_GE(full, 2u);  // construction + the post-failure recovery
  EXPECT_LT(full, reports.size());
  EXPECT_TRUE(reports[3].full_replan);  // the epoch after the failure

  const auto near = [](double expected) {
    return 1e-9 * std::max(1.0, std::abs(expected));
  };
  const auto snapshot = registry.snapshot();
  const auto expect_hist = [&](const char* name, std::size_t count,
                               double total) {
    const auto& h = snapshot.histograms.at(name);
    EXPECT_EQ(h.count(), count) << name;
    EXPECT_NEAR(h.sum(), total, near(total)) << name;
  };
  expect_hist("dynamic.epoch_ms", reports.size(), epoch_sum);
  expect_hist("dynamic.mst_ms", reports.size(), sum.mst_ms());
  expect_hist("dynamic.conflict_ms", reports.size(), sum.conflict_ms());
  expect_hist("dynamic.recolor_ms", reports.size(), sum.recolor_ms);
  expect_hist("dynamic.repair_ms", reports.size(), sum.repair_ms);
  expect_hist("dynamic.power_ms", power_calls, power_ms);

  // Each field equals the exclusive time of the stage span named after it,
  // on full-replan and localized epochs alike.
  const auto profile = obs::profile_spans(spans);
  EXPECT_EQ(profile.malformed_spans, 0u);
  const auto span_ms = [&profile](const char* name) {
    double total = 0.0;
    for (const auto& row : profile.rows) {
      if (row.name == name) total += row.exclusive_ms;
    }
    return total;
  };
  const double tolerance = 1e-6;  // ns export vs double accumulation
  EXPECT_NEAR(span_ms("mst_update"), sum.mst_update_ms, tolerance);
  EXPECT_NEAR(span_ms("orient"), sum.orient_ms, tolerance);
  EXPECT_NEAR(span_ms("conflict_maintain"), sum.conflict_maintain_ms,
              tolerance);
  EXPECT_NEAR(span_ms("conflict_query"), sum.conflict_query_ms, tolerance);
  EXPECT_NEAR(span_ms("recolor"), sum.recolor_ms, tolerance);
  EXPECT_NEAR(span_ms("repair"), sum.repair_ms, tolerance);
  EXPECT_NEAR(span_ms("power"), power_ms, tolerance);
  EXPECT_GT(sum.conflict_maintain_ms, 0.0);
}

TEST(DynamicPlanner, RejectsIllegalMutations) {
  const auto points = workload::make_family("uniform", 8, 1);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kUniform);
  DynamicPlanner planner(points, options);

  Mutation remove_sink{Mutation::Kind::kRemove, 0, {}};
  EXPECT_THROW(planner.apply(remove_sink), std::invalid_argument);
  Mutation remove_dead{Mutation::Kind::kRemove, 3, {}};
  (void)planner.apply(remove_dead);
  EXPECT_THROW(planner.apply(remove_dead), std::invalid_argument);
}

TEST(DynamicPlanner, RejectsBadOptions) {
  const auto points = workload::make_family("uniform", 8, 1);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.config.tree = core::TreeKind::kPairing;
  EXPECT_THROW(DynamicPlanner(points, options), std::invalid_argument);
}

TEST(PlanServiceSessions, StatePersistsAcrossAdvances) {
  runtime::PlanService service(runtime::ServiceOptions{.num_workers = 2});
  const auto points = workload::make_family("uniform", 48, 6);
  DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);

  const auto id = service.open_session(points, options);
  EXPECT_EQ(service.num_sessions(), 1u);
  EXPECT_EQ(service.session(id)->epoch(), 0u);

  ChurnParams params;
  params.epochs = 3;
  params.rate = 0.05;
  const auto trace = make_churn_trace(points, params, 10);
  for (std::size_t e = 0; e < trace.size(); ++e) {
    const auto report = service.advance_session(id, trace[e]);
    EXPECT_EQ(report.epoch, e + 1);
    EXPECT_TRUE(report.valid);
  }
  EXPECT_EQ(service.session(id)->epoch(), trace.size());

  service.close_session(id);
  EXPECT_EQ(service.num_sessions(), 0u);
  EXPECT_THROW((void)service.advance_session(id, {}),
               std::invalid_argument);
}

TEST(PlanServiceSessions, ChurnRequestsRunThroughBatches) {
  const auto spec = workload::WorkloadSpec::parse(
      "families=uniform,cluster sizes=40 modes=global reps=2 seed=5 "
      "churn=epochs:4,rate:0.08,audit:1");
  const auto requests = spec.expand();
  ASSERT_EQ(requests.size(), 4u);
  for (const auto& request : requests) {
    ASSERT_EQ(request.trace.size(), 4u);
    EXPECT_TRUE(request.audit);
  }

  runtime::PlanService service(runtime::ServiceOptions{.num_workers = 2});
  const auto result = service.run(requests);
  for (const auto& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.epochs, 5u);  // initial plan + 4 mutation epochs
    EXPECT_EQ(outcome.epochs_valid, 5u) << outcome.tags;
    EXPECT_TRUE(outcome.verified);
    EXPECT_GT(outcome.rate, 0.0);
    // Sessions split the conflict stage exactly into index maintenance +
    // row queries, and the tree stage into MST updates + orientation.
    EXPECT_NEAR(outcome.timings.conflict_ms,
                outcome.conflict_maintain_ms + outcome.conflict_query_ms,
                1e-9);
    EXPECT_GT(outcome.conflict_maintain_ms, 0.0);
    EXPECT_NEAR(outcome.timings.tree_ms,
                outcome.mst_update_ms + outcome.orient_ms, 1e-9);
    EXPECT_GT(outcome.orient_ms, 0.0);
  }

  // Same digests at any worker count (sessions are deterministic).
  runtime::PlanService serial(runtime::ServiceOptions{.num_workers = 1});
  const auto again = serial.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].digest, again.outcomes[i].digest);
  }
}

}  // namespace
}  // namespace wagg::dynamic
