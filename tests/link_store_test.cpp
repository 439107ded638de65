#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynamic/dynamic_planner.h"
#include "dynamic/mutation.h"
#include "geom/link_store.h"
#include "geom/linkset.h"
#include "sinr/feasibility.h"
#include "workload/workload.h"

namespace wagg {
namespace {

TEST(LinkStore, IdStabilityAndGenerations) {
  geom::LinkStore store;
  const auto a = store.add(0, 1, 1.0);
  const auto b = store.add(1, 2, 2.0);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(store.num_live(), 2u);
  EXPECT_EQ(store.find_pair(1, 0), a);  // pairs are undirected
  EXPECT_EQ(store.find_pair(2, 1), b);
  EXPECT_EQ(store.find_pair(0, 2), geom::kNoLink);

  // flip: in-place orientation diff, endpoint generation advances.
  const auto endpoint_gen = store.endpoint_gen(a);
  store.flip(a);
  EXPECT_EQ(store.sender(a), 1);
  EXPECT_EQ(store.receiver(a), 0);
  EXPECT_GT(store.endpoint_gen(a), endpoint_gen);
  EXPECT_EQ(store.find_pair(0, 1), a);  // pair index unaffected

  // set_length: bit-identical refresh must NOT dirty the link.
  const auto length_gen = store.length_gen(a);
  store.set_length(a, 1.0);
  EXPECT_EQ(store.length_gen(a), length_gen);
  store.set_length(a, 1.5);
  EXPECT_GT(store.length_gen(a), length_gen);
  EXPECT_DOUBLE_EQ(store.length(a), 1.5);

  // touch: dirt without column change.
  const auto touch_gen = store.generation(b);
  store.touch(b);
  EXPECT_GT(store.generation(b), touch_gen);
  EXPECT_DOUBLE_EQ(store.length(b), 2.0);

  // remove kills the id forever; new links never reuse it.
  store.remove(a);
  EXPECT_FALSE(store.alive(a));
  EXPECT_EQ(store.find_pair(0, 1), geom::kNoLink);
  const auto c = store.add(0, 1, 1.0);
  EXPECT_EQ(c, 2);
  EXPECT_EQ(store.capacity(), 3u);

  EXPECT_THROW(store.flip(a), std::invalid_argument);       // dead id
  EXPECT_THROW(store.add(2, 1, 1.0), std::invalid_argument);  // live pair
  EXPECT_THROW(store.add(3, 3, 1.0), std::invalid_argument);  // self loop
  EXPECT_THROW(store.add(4, 5, 0.0), std::invalid_argument);  // zero length
}

/// Records every listener callback as "<event>:<id>" for order-sensitive
/// assertions.
class RecordingListener final : public geom::LinkStoreListener {
 public:
  void on_add(geom::LinkId id) override { log("add", id); }
  void on_remove(geom::LinkId id) override { log("remove", id); }
  void on_flip(geom::LinkId id) override { log("flip", id); }
  void on_set_length(geom::LinkId id) override { log("set_length", id); }
  void on_touch(geom::LinkId id) override { log("touch", id); }

  std::vector<std::string> events;

 private:
  void log(const char* what, geom::LinkId id) {
    events.push_back(std::string(what) + ":" + std::to_string(id));
  }
};

TEST(LinkStore, ListenerSeesEveryEffectiveMutation) {
  geom::LinkStore store;
  RecordingListener listener;
  store.set_listener(&listener);

  const auto a = store.add(0, 1, 1.0);
  const auto b = store.add(1, 2, 2.0);
  store.flip(a);
  store.set_length(b, 2.0);  // bit-identical: must NOT fire
  store.set_length(b, 2.5);
  store.touch(a);
  store.remove(a);
  const std::vector<std::string> expected = {
      "add:0", "add:1", "flip:0", "set_length:1", "touch:0", "remove:0"};
  EXPECT_EQ(listener.events, expected);

  // clear() notifies the removal of every still-live link.
  listener.events.clear();
  store.clear();
  EXPECT_EQ(listener.events, std::vector<std::string>{"remove:1"});

  // Detached listeners hear nothing.
  store.set_listener(nullptr);
  (void)store.add(3, 4, 1.0);
  EXPECT_EQ(listener.events, std::vector<std::string>{"remove:1"});
}

TEST(LinkStore, SnapshotIsDenseIdOrderedAndFacadeAdoptsIt) {
  geom::LinkStore store;
  (void)store.add(10, 11, 1.0);
  const auto dead = store.add(11, 13, 9.0);
  (void)store.add(12, 11, 2.0);
  store.remove(dead);

  // node id -> dense point index (nodes 10, 11, 12 -> 0, 1, 2).
  std::vector<std::int32_t> node_index(13, -1);
  node_index[10] = 0;
  node_index[11] = 1;
  node_index[12] = 2;
  geom::Pointset points{{0, 0}, {1, 0}, {1, 2}};
  const auto view = store.snapshot(points, node_index);

  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.id_of(0), 0);  // increasing-id dense order
  EXPECT_EQ(view.id_of(1), 2);
  EXPECT_EQ(view.link(0).sender, 0);
  EXPECT_EQ(view.link(0).receiver, 1);
  EXPECT_EQ(view.link(1).sender, 2);
  EXPECT_EQ(view.link(1).receiver, 1);
  // Lengths are the maintained column, not recomputed geometry.
  EXPECT_DOUBLE_EQ(view.length(0), 1.0);
  EXPECT_DOUBLE_EQ(view.length(1), 2.0);

  // The LinkSet façade adopts the view verbatim.
  const geom::LinkSet facade(view);
  EXPECT_EQ(facade.size(), 2u);
  EXPECT_EQ(facade.id_of(1), 2);

  // A live link referencing an unmapped node is an error.
  std::vector<std::int32_t> missing(13, -1);
  missing[10] = 0;
  missing[11] = 1;
  EXPECT_THROW((void)store.snapshot(points, missing), std::invalid_argument);
}

/// The tentpole's correctness core: across epochs (including bulk-rebuild
/// and fallback epochs) the diff-maintained store must match a from-scratch
/// re-orientation exactly — audit mode computes both every epoch.
TEST(DynamicPlanner, StoreOrientationMatchesFullRebuildAcrossEpochs) {
  for (const std::string family : {"uniform", "cluster", "expchain"}) {
    for (const double rate : {0.02, 0.25}) {
      const auto points = workload::make_family(family, 80, 11);
      dynamic::ChurnParams params;
      params.epochs = 8;
      params.rate = rate;
      const auto trace = dynamic::make_churn_trace(points, params, 77);

      dynamic::DynamicOptions options;
      options.config = workload::mode_config(core::PowerMode::kGlobal);
      options.audit = true;
      dynamic::DynamicPlanner planner(points, options);
      EXPECT_TRUE(planner.last_report().audit_store_match) << family;
      for (const auto& epoch : trace) {
        const auto report = planner.apply(epoch);
        EXPECT_TRUE(report.audit_store_match)
            << family << " rate " << rate << " epoch " << report.epoch;
        EXPECT_TRUE(report.audit_valid)
            << family << " rate " << rate << " epoch " << report.epoch;
      }
    }
  }
}

/// Same live set => same dense order => same plan: two sessions fed the
/// identical mutation history must agree on ids, links, and schedule.
TEST(DynamicPlanner, ViewDeterminismSameHistorySamePlan) {
  const auto points = workload::make_family("noisygrid", 64, 5);
  dynamic::ChurnParams params;
  params.epochs = 6;
  params.rate = 0.08;
  const auto trace = dynamic::make_churn_trace(points, params, 3);

  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  dynamic::DynamicPlanner one(points, options);
  dynamic::DynamicPlanner two(points, options);
  one.apply_trace(trace);
  two.apply_trace(trace);

  const auto& a = one.snapshot();
  const auto& b = two.snapshot();
  EXPECT_EQ(a.ids, b.ids);
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links.id_of(i), b.links.id_of(i));
    EXPECT_EQ(a.links.link(i), b.links.link(i));
    EXPECT_EQ(a.links.length(i), b.links.length(i));
  }
  EXPECT_EQ(a.schedule.slots, b.schedule.slots);
  EXPECT_DOUBLE_EQ(a.rate, b.rate);
}

TEST(DynamicPlanner, SlotPowersAreValidAndCacheCarriedSlots) {
  const auto points = workload::make_family("uniform", 96, 7);
  dynamic::ChurnParams params;
  params.epochs = 4;
  params.rate = 0.02;
  const auto trace = dynamic::make_churn_trace(points, params, 21);

  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  dynamic::DynamicPlanner planner(points, options);

  const auto verify_powers = [&]() {
    const auto& powers = planner.slot_powers();
    const auto& snapshot = planner.snapshot();
    ASSERT_EQ(powers.size(), snapshot.schedule.slots.size());
    for (std::size_t s = 0; s < powers.size(); ++s) {
      // Each shipped vector must satisfy the exact SINR inequalities on its
      // slot — the certificate a radio deployment would ship.
      EXPECT_TRUE(sinr::is_feasible(snapshot.links,
                                    snapshot.schedule.slots[s],
                                    options.config.sinr, powers[s], 1e-6))
          << "slot " << s;
    }
  };
  verify_powers();
  // Construction plans from scratch, and repair's certificates seed the
  // ledger: every slot ships its certified vector without a solve.
  EXPECT_EQ(planner.last_report().power_slots_computed, 0u);
  EXPECT_EQ(planner.last_report().power_slots_cached,
            planner.last_report().slots);

  for (const auto& epoch : trace) {
    (void)planner.apply(epoch);
    verify_powers();
    const auto& report = planner.last_report();
    EXPECT_EQ(report.power_slots_cached + report.power_slots_computed,
              report.slots);
    // Localized or full, every epoch certified each slot through the
    // ledger; its powers ship with no fresh solve at all.
    EXPECT_EQ(report.power_slots_computed, 0u) << "epoch " << report.epoch;
  }

  // Repeated materialization within an epoch is free (memoized).
  const auto before = planner.last_report().power_slots_computed;
  (void)planner.slot_powers();
  EXPECT_EQ(planner.last_report().power_slots_computed, before);
}

TEST(DynamicPlanner, SlotPowersRejectFixedPowerModes) {
  const auto points = workload::make_family("uniform", 24, 2);
  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kUniform);
  dynamic::DynamicPlanner planner(points, options);
  EXPECT_THROW((void)planner.slot_powers(), std::logic_error);
}

TEST(ChurnTrace, HotspotConcentratesArrivals) {
  const auto points = workload::make_family("uniform", 200, 9);
  dynamic::ChurnParams params;
  params.epochs = 15;
  params.rate = 0.05;
  params.remove_weight = 0.0;
  params.move_weight = 0.0;
  params.hotspot_fraction = 1.0;
  params.hotspot_radius = 1.0;
  const auto trace = dynamic::make_churn_trace(points, params, 31);
  EXPECT_EQ(trace, dynamic::make_churn_trace(points, params, 31));

  std::vector<geom::Point> adds;
  for (const auto& epoch : trace) {
    for (const auto& m : epoch) {
      ASSERT_EQ(m.kind, dynamic::Mutation::Kind::kAdd);
      adds.push_back(m.position);
    }
  }
  ASSERT_GE(adds.size(), 15u);
  // Every arrival lies in one disk of radius 1, so pairwise distances are
  // bounded by its diameter — far below the ~20-unit instance box.
  for (const auto& p : adds) {
    for (const auto& q : adds) {
      EXPECT_LE(geom::distance(p, q), 2.0 + 1e-9);
    }
  }
}

TEST(ChurnTrace, WaypointDriftIsCorrelatedAndDeterministic) {
  const auto points = workload::make_family("uniform", 32, 4);
  dynamic::ChurnParams params;
  params.epochs = 30;
  params.rate = 0.2;
  params.add_weight = 0.0;
  params.remove_weight = 0.0;
  params.drift = dynamic::DriftKind::kWaypoint;
  params.waypoint_speed = 0.3;
  const auto trace = dynamic::make_churn_trace(points, params, 12);
  EXPECT_EQ(trace, dynamic::make_churn_trace(points, params, 12));

  // Replay positions and collect per-node displacement sequences.
  std::vector<geom::Point> position(points.begin(), points.end());
  std::vector<std::vector<geom::Point>> steps(points.size());
  for (const auto& epoch : trace) {
    for (const auto& m : epoch) {
      ASSERT_EQ(m.kind, dynamic::Mutation::Kind::kMove);
      const auto node = static_cast<std::size_t>(m.node);
      const auto& from = position[node];
      EXPECT_LE(geom::distance(from, m.position),
                params.waypoint_speed + 1e-9);  // bounded speed
      steps[node].push_back({m.position.x - from.x, m.position.y - from.y});
      position[node] = m.position;
    }
  }
  // Consecutive steps of one node walk toward a persistent target, so the
  // drift is positively correlated — unlike memoryless Gaussian churn.
  std::size_t correlated = 0;
  std::size_t pairs = 0;
  for (const auto& s : steps) {
    for (std::size_t k = 1; k < s.size(); ++k) {
      ++pairs;
      if (s[k - 1].x * s[k].x + s[k - 1].y * s[k].y > 0.0) ++correlated;
    }
  }
  ASSERT_GT(pairs, 10u);
  EXPECT_GT(static_cast<double>(correlated),
            0.8 * static_cast<double>(pairs));
}

TEST(WorkloadSpec, ChurnGrammarRoundTripsRealismKnobs) {
  const auto spec = workload::WorkloadSpec::parse(
      "families=uniform sizes=32 modes=global "
      "churn=epochs:5,rate:0.1,hotspot:0.75,hradius:2.5,drift:waypoint,"
      "speed:0.4,audit:1");
  EXPECT_DOUBLE_EQ(spec.churn.hotspot_fraction, 0.75);
  EXPECT_DOUBLE_EQ(spec.churn.hotspot_radius, 2.5);
  EXPECT_EQ(spec.churn.drift, dynamic::DriftKind::kWaypoint);
  EXPECT_DOUBLE_EQ(spec.churn.waypoint_speed, 0.4);
  EXPECT_TRUE(spec.churn_audit);
  EXPECT_EQ(workload::WorkloadSpec::parse(spec.to_text()), spec);

  EXPECT_THROW(workload::WorkloadSpec::parse(
                   "families=uniform sizes=32 modes=global "
                   "churn=epochs:5,drift:brownian"),
               std::invalid_argument);
  dynamic::ChurnParams bad;
  bad.epochs = 3;
  bad.hotspot_fraction = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

/// Hotspot + waypoint churn must flow end-to-end through the incremental
/// planner with audit equivalence intact.
TEST(DynamicPlanner, RealisticChurnStaysValid) {
  const auto points = workload::make_family("uniform", 72, 13);
  dynamic::ChurnParams params;
  params.epochs = 6;
  params.rate = 0.08;
  params.hotspot_fraction = 0.7;
  params.drift = dynamic::DriftKind::kWaypoint;
  const auto trace = dynamic::make_churn_trace(points, params, 19);

  dynamic::DynamicOptions options;
  options.config = workload::mode_config(core::PowerMode::kGlobal);
  options.audit = true;
  dynamic::DynamicPlanner planner(points, options);
  for (const auto& epoch : trace) {
    const auto report = planner.apply(epoch);
    EXPECT_TRUE(report.valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_valid) << "epoch " << report.epoch;
    EXPECT_TRUE(report.audit_store_match) << "epoch " << report.epoch;
  }
}

}  // namespace
}  // namespace wagg
