// Tests for the library extensions beyond the paper's core protocol:
// FFD packing baseline, latency-aware slot ordering, k-connectivity
// (Remark 2), extended instance families, and the CLI argument parser.

#include <gtest/gtest.h>

#include <cmath>

#include "core/kconnect.h"
#include "first_fit_reference.h"
#include "core/planner.h"
#include "geom/point.h"
#include "instance/basic.h"
#include "instance/extended.h"
#include "mst/tree.h"
#include "schedule/latency.h"
#include "schedule/packing.h"
#include "schedule/simulator.h"
#include "sinr/power.h"
#include "util/args.h"

namespace wagg {
namespace {

sinr::SinrParams params(double alpha = 3.0, double beta = 1.0) {
  sinr::SinrParams p;
  p.alpha = alpha;
  p.beta = beta;
  return p;
}

// --- FFD packing -------------------------------------------------------------

TEST(Packing, FfdProducesVerifiedPartition) {
  const auto pts = instance::uniform_square(120, 10.0, 3);
  const auto tree = mst::mst_tree(pts, 0);
  const auto prm = params(3.0, 2.0);
  const auto power = sinr::uniform_power(tree.links, prm);
  schedule::SlotLedger ledger(tree.links, prm, power);
  const auto s = schedule::ffd_schedule(tree.links, ledger);
  EXPECT_TRUE(schedule::is_partition(s, tree.links.size()));
  const auto oracle = schedule::fixed_power_oracle(tree.links, prm, power);
  EXPECT_TRUE(schedule::verify_schedule(tree.links, s, oracle).ok());
}

TEST(Packing, FfdMatchesOracleFirstFit) {
  const auto pts = instance::uniform_square(60, 8.0, 5);
  const auto tree = mst::mst_tree(pts, 0);
  const auto prm = params(3.0, 2.0);
  const auto power = sinr::uniform_power(tree.links, prm);
  const auto oracle = schedule::fixed_power_oracle(tree.links, prm, power);
  schedule::Schedule one;
  one.slots.emplace_back();
  for (std::size_t i = 0; i < tree.links.size(); ++i) {
    one.slots[0].push_back(i);
  }
  const auto reference =
      schedule::testing::oracle_first_fit(tree.links, one, oracle);
  schedule::SlotLedger ledger(tree.links, prm, power);
  const auto ffd = schedule::ffd_schedule(tree.links, ledger);
  EXPECT_EQ(ffd.length(), reference.length());
  EXPECT_EQ(ffd.slots, reference.slots);
}

TEST(Packing, FfdWithPowerControlBeatsUniform) {
  // On the exponential chain FFD under power control packs interleaved
  // links; under uniform power nearly everything conflicts.
  const auto pts = instance::exponential_chain(32, 2.0);
  const auto tree = mst::mst_tree(pts, 0);
  const auto prm = params(3.0, 1.0);
  schedule::SlotLedger pinned(tree.links, prm,
                             sinr::uniform_power(tree.links, prm));
  schedule::SlotLedger carried(tree.links, prm);
  const auto uni = schedule::ffd_schedule(tree.links, pinned);
  const auto pc = schedule::ffd_schedule(tree.links, carried);
  EXPECT_LT(pc.length() * 2, uni.length());
  EXPECT_TRUE(schedule::is_partition(pc, tree.links.size()));
}

TEST(Packing, EmptyLinkSet) {
  geom::Pointset pts{{0, 0}, {1, 0}};
  const geom::LinkSet empty(pts, {});
  schedule::SlotLedger ledger(empty, params());
  EXPECT_TRUE(schedule::ffd_schedule(empty, ledger).empty());
}

// --- latency-aware ordering --------------------------------------------------

TEST(Latency, DepthOrderingCutsChainLatency) {
  const std::size_t n = 48;
  const auto tree = mst::mst_tree(instance::unit_chain(n),
                                  static_cast<std::int32_t>(n - 1));
  schedule::Schedule s;
  s.slots.assign(3, {});
  for (std::size_t i = 0; i < tree.links.size(); ++i) {
    const auto sender = static_cast<std::size_t>(tree.links.link(i).sender);
    s.slots[static_cast<std::size_t>(tree.depth[sender]) % 3].push_back(i);
  }
  const auto ordered = schedule::optimize_slot_order(tree, s);
  EXPECT_LE(schedule::slot_order_cost(tree, ordered),
            schedule::slot_order_cost(tree, s));
  schedule::SimulationConfig cfg;
  cfg.num_frames = 40;
  cfg.generation_period = 3;
  const auto before = schedule::simulate_aggregation(tree, s, cfg);
  const auto after = schedule::simulate_aggregation(tree, ordered, cfg);
  // Same rate...
  EXPECT_NEAR(before.steady_rate, after.steady_rate, 1e-9);
  // ... strictly better worst-case latency (one hop per slot instead of ~2).
  EXPECT_LT(after.max_latency, before.max_latency);
  EXPECT_LE(after.max_latency, n + 4);
}

TEST(Latency, ReorderingPreservesSlotContents) {
  const auto pts = instance::uniform_square(80, 8.0, 7);
  core::PlannerConfig cfg;
  cfg.power_mode = core::PowerMode::kGlobal;
  const auto plan = core::plan_aggregation(pts, cfg);
  const auto ordered =
      schedule::optimize_slot_order(plan.tree, plan.schedule());
  ASSERT_EQ(ordered.length(), plan.schedule().length());
  // Same multiset of slots (feasibility untouched).
  auto canon = [](schedule::Schedule s) {
    for (auto& slot : s.slots) std::sort(slot.begin(), slot.end());
    std::sort(s.slots.begin(), s.slots.end());
    return s.slots;
  };
  EXPECT_EQ(canon(ordered), canon(plan.schedule()));
  // Never worse than the input ordering.
  EXPECT_LE(schedule::slot_order_cost(plan.tree, ordered),
            schedule::slot_order_cost(plan.tree, plan.schedule()));
}

TEST(Latency, CostCountsCircularGaps) {
  // Chain of 4 links, all in distinct slots in reverse order: every hop has
  // gap L - 1... vs forward order: every hop gap 1.
  const auto tree = mst::mst_tree(instance::unit_chain(5), 4);
  schedule::Schedule forward, backward;
  // link of depth-d sender fires at position (height - d).
  std::vector<std::size_t> by_depth(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto sender = static_cast<std::size_t>(tree.links.link(i).sender);
    by_depth[static_cast<std::size_t>(tree.depth[sender]) - 1] = i;
  }
  for (std::size_t d = 4; d-- > 0;) forward.slots.push_back({by_depth[d]});
  for (std::size_t d = 0; d < 4; ++d) backward.slots.push_back({by_depth[d]});
  // 3 tree edges with both links scheduled.
  EXPECT_DOUBLE_EQ(schedule::slot_order_cost(tree, forward), 3.0);
  EXPECT_DOUBLE_EQ(schedule::slot_order_cost(tree, backward), 3.0 * 3.0);
  // The optimizer turns the backward order into a cost-3 order.
  const auto fixed = schedule::optimize_slot_order(tree, backward);
  EXPECT_DOUBLE_EQ(schedule::slot_order_cost(tree, fixed), 3.0);
}

TEST(Latency, Validation) {
  const auto tree = mst::mst_tree(instance::unit_chain(4), 0);
  schedule::Schedule bad;
  bad.slots = {{99}};
  EXPECT_THROW(schedule::optimize_slot_order(tree, bad),
               std::invalid_argument);
  EXPECT_THROW((void)schedule::slot_order_cost(tree, bad),
               std::invalid_argument);
}

// --- k-connectivity (Remark 2) ----------------------------------------------

TEST(KConnect, PlansVerifyAndGrowMildly) {
  const auto pts = instance::uniform_square(60, 8.0, 9);
  core::PlannerConfig cfg;
  cfg.power_mode = core::PowerMode::kGlobal;
  std::size_t prev_slots = 0;
  double prev_stat = 0.0;
  for (int k = 1; k <= 3; ++k) {
    const auto plan = core::plan_k_connected(pts, k, cfg);
    EXPECT_TRUE(plan.verified()) << k;
    EXPECT_EQ(plan.links.size(), k * (pts.size() - 1)) << k;
    EXPECT_GE(plan.scheduling.schedule.length(), prev_slots) << k;
    EXPECT_GE(plan.lemma1_statistic + 1e-9, prev_stat) << k;
    prev_slots = plan.scheduling.schedule.length();
    prev_stat = plan.lemma1_statistic;
  }
}

TEST(KConnect, KOneMatchesMstScheduleLength) {
  const auto pts = instance::uniform_square(50, 8.0, 11);
  core::PlannerConfig cfg;
  cfg.power_mode = core::PowerMode::kOblivious;
  const auto kplan = core::plan_k_connected(pts, 1, cfg);
  const auto plan = core::plan_aggregation(pts, cfg);
  // Same edge set (the MST), possibly different orientation: identical
  // lengths, so identical conflict graph size and very close schedules.
  EXPECT_EQ(kplan.links.size(), plan.tree.links.size());
  EXPECT_NEAR(static_cast<double>(kplan.scheduling.schedule.length()),
              static_cast<double>(plan.schedule().length()), 2.0);
}

TEST(KConnect, SurvivesSingleEdgeRemoval) {
  // 2-edge-connectivity: removing any one edge leaves the graph connected.
  const auto pts = instance::uniform_square(24, 6.0, 13);
  const auto edges = mst::k_fold_mst(pts, 2);
  for (std::size_t skip = 0; skip < edges.size(); ++skip) {
    mst::UnionFind uf(pts.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (e == skip) continue;
      uf.unite(static_cast<std::size_t>(edges[e].u),
               static_cast<std::size_t>(edges[e].v));
    }
    EXPECT_EQ(uf.num_components(), 1u) << "removing edge " << skip;
  }
}

TEST(KConnect, Validation) {
  core::PlannerConfig cfg;
  EXPECT_THROW(core::plan_k_connected({{0, 0}}, 1, cfg),
               std::invalid_argument);
  EXPECT_THROW(core::plan_k_connected(instance::unit_chain(4), 0, cfg),
               std::invalid_argument);
}

// --- extended instance families ----------------------------------------------

TEST(Extended, HierarchicalCountsAndScales) {
  const auto pts = instance::hierarchical(4, 3, 4.0, 5);
  EXPECT_EQ(pts.size(), 81u);  // 3^4
  // Multi-scale: diameter >> typical nearest-neighbour distance.
  EXPECT_GT(geom::diameter(pts), 20.0 * geom::min_pairwise_distance(pts));
  // Deterministic.
  EXPECT_EQ(pts, instance::hierarchical(4, 3, 4.0, 5));
  EXPECT_THROW(instance::hierarchical(0, 3, 4.0, 1), std::invalid_argument);
  EXPECT_THROW(instance::hierarchical(12, 16, 4.0, 1), std::invalid_argument);
}

TEST(Extended, ParetoFieldHeavyTail) {
  const auto light = instance::pareto_field(400, 5.0, 7);
  const auto heavy = instance::pareto_field(400, 0.5, 7);
  EXPECT_EQ(light.size(), 400u);
  // Heavier tail -> much larger spread.
  EXPECT_GT(geom::diameter(heavy), 10.0 * geom::diameter(light));
  EXPECT_THROW(instance::pareto_field(400, 0.0, 1), std::invalid_argument);
}

TEST(Extended, SpiralIsSmooth) {
  const auto pts = instance::spiral(200, 6.0, 1.0);
  EXPECT_EQ(pts.size(), 200u);
  // Consecutive points are close relative to the diameter.
  double max_step = 0.0;
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    max_step = std::max(max_step, geom::distance(pts[i], pts[i + 1]));
  }
  EXPECT_LT(max_step, geom::diameter(pts) / 4.0);
  EXPECT_THROW(instance::spiral(1, 6.0), std::invalid_argument);
}

TEST(Extended, PerturbedGridKeepsPointsDistinct) {
  const auto pts = instance::perturbed_grid(12, 12, 1.0, 0.3, 3);
  EXPECT_EQ(pts.size(), 144u);
  EXPECT_GT(geom::min_pairwise_distance(pts), 0.0);
  EXPECT_THROW(instance::perturbed_grid(4, 4, 1.0, 0.5, 1),
               std::invalid_argument);
}

class ExtendedFamiliesPlan : public ::testing::TestWithParam<int> {};

TEST_P(ExtendedFamiliesPlan, PlannerVerifiesOnEveryFamily) {
  geom::Pointset pts;
  switch (GetParam()) {
    case 0:
      pts = instance::hierarchical(4, 3, 5.0, 2);
      break;
    case 1:
      pts = instance::pareto_field(150, 1.0, 2);
      break;
    case 2:
      pts = instance::spiral(150, 8.0);
      break;
    case 3:
      pts = instance::perturbed_grid(12, 12, 1.0, 0.25, 2);
      break;
    default:
      FAIL();
  }
  for (const auto mode :
       {core::PowerMode::kGlobal, core::PowerMode::kOblivious}) {
    core::PlannerConfig cfg;
    cfg.power_mode = mode;
    const auto plan = core::plan_aggregation(pts, cfg);
    EXPECT_TRUE(plan.verified()) << core::to_string(mode);
    EXPECT_TRUE(
        schedule::is_partition(plan.schedule(), plan.tree.links.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ExtendedFamiliesPlan,
                         ::testing::Values(0, 1, 2, 3));

// --- CLI args ------------------------------------------------------------------

TEST(Args, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=42", "--family=grid", "--verbose",
                        "ignored"};
  const util::Args args(5, argv);
  EXPECT_TRUE(args.has("n"));
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("ignored"));
  EXPECT_EQ(args.get("family", "x"), "grid");
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_EQ(args.get("verbose", ""), "1");
}

TEST(Args, NumericValidation) {
  const char* argv[] = {"prog", "--alpha=3.5", "--bad=3x"};
  const util::Args args(3, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 3.5);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_THROW((void)args.get_double("bad", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("alpha", 0), std::invalid_argument);
}

}  // namespace
}  // namespace wagg

// --- multicoloring search (appended suite) -----------------------------------

#include "instance/special.h"
#include "schedule/multicolor.h"

namespace wagg {
namespace {

TEST(Multicolor, RecoversFiveCycleRate) {
  // The search must rediscover (a rotation of) the paper's 2/5 schedule.
  const auto inst = instance::five_cycle_instance();
  const auto prm = params(3.0, 1.0);
  const auto power = sinr::uniform_power(inst.links, prm);
  const auto oracle = schedule::fixed_power_oracle(inst.links, prm, power);
  schedule::Schedule baseline;
  baseline.slots = inst.coloring_slots;  // 3 slots, rate 1/3
  schedule::MulticolorOptions opts;
  opts.restarts_per_period = 64;
  const auto result = schedule::improve_rate_by_multicoloring(
      inst.links, baseline, oracle, opts);
  EXPECT_TRUE(result.improved());
  EXPECT_NEAR(result.rate, 0.4, 1e-9);
  // Result verifies slot by slot.
  EXPECT_TRUE(
      schedule::verify_schedule(inst.links, result.schedule, oracle)
          .all_slots_feasible);
  EXPECT_TRUE(schedule::covers_all_links(result.schedule, inst.links.size()));
}

TEST(Multicolor, NeverWorseThanBaseline) {
  const auto pts = instance::uniform_square(24, 6.0, 3);
  core::PlannerConfig cfg;
  cfg.power_mode = core::PowerMode::kUniform;
  const auto plan = core::plan_aggregation(pts, cfg);
  const auto oracle = core::oracle_for_mode(plan.tree.links, cfg);
  schedule::MulticolorOptions opts;
  opts.restarts_per_period = 8;
  opts.period_stretch = 1.5;
  const auto result = schedule::improve_rate_by_multicoloring(
      plan.tree.links, plan.schedule(), oracle, opts);
  EXPECT_GE(result.rate + 1e-12, result.baseline_rate);
  EXPECT_TRUE(schedule::covers_all_links(result.schedule,
                                         plan.tree.links.size()));
}

TEST(Multicolor, Validation) {
  const auto pts = instance::unit_chain(4);
  const auto tree = mst::mst_tree(pts, 0);
  const auto prm = params();
  const auto oracle = schedule::fixed_power_oracle(
      tree.links, prm, sinr::uniform_power(tree.links, prm));
  schedule::Schedule not_partition;
  not_partition.slots = {{0, 1}};
  EXPECT_THROW(schedule::improve_rate_by_multicoloring(tree.links,
                                                       not_partition, oracle),
               std::invalid_argument);
}

}  // namespace
}  // namespace wagg
