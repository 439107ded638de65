#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "first_fit_reference.h"
#include "geom/linkset.h"
#include "instance/basic.h"
#include "instance/special.h"
#include "mst/tree.h"
#include "schedule/ledger.h"
#include "schedule/repair.h"
#include "schedule/schedule.h"
#include "schedule/verify.h"
#include "sinr/feasibility.h"
#include "sinr/power.h"
#include "util/rng.h"

namespace wagg::schedule {
namespace {

sinr::SinrParams params(double alpha = 3.0, double beta = 1.0) {
  sinr::SinrParams p;
  p.alpha = alpha;
  p.beta = beta;
  return p;
}

TEST(Schedule, RatesAndCounts) {
  Schedule s;
  s.slots = {{0, 1}, {2}, {0}};
  EXPECT_EQ(s.length(), 3u);
  EXPECT_EQ(s.total_transmissions(), 4u);
  EXPECT_NEAR(s.coloring_rate(), 1.0 / 3.0, 1e-12);
  // Link 0 appears twice, links 1, 2 once: min rate = 1/3.
  EXPECT_NEAR(min_link_rate(s, 3), 1.0 / 3.0, 1e-12);
  // With a missing link the rate is 0.
  EXPECT_DOUBLE_EQ(min_link_rate(s, 4), 0.0);
}

TEST(Schedule, PartitionAndCoverage) {
  Schedule good;
  good.slots = {{0, 2}, {1}};
  EXPECT_TRUE(covers_all_links(good, 3));
  EXPECT_TRUE(is_partition(good, 3));
  Schedule repeat;
  repeat.slots = {{0, 2}, {1, 0}};
  EXPECT_TRUE(covers_all_links(repeat, 3));
  EXPECT_FALSE(is_partition(repeat, 3));
  Schedule missing;
  missing.slots = {{0}};
  EXPECT_FALSE(covers_all_links(missing, 2));
}

TEST(Schedule, FromColoring) {
  coloring::Coloring c;
  c.color_of = {0, 1, 0};
  c.num_colors = 2;
  const auto s = from_coloring(c);
  ASSERT_EQ(s.length(), 2u);
  EXPECT_EQ(s.slots[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(s.slots[1], (std::vector<std::size_t>{1}));
}

TEST(Schedule, EmptyScheduleRateThrows) {
  Schedule s;
  EXPECT_THROW((void)s.coloring_rate(), std::logic_error);
}

geom::LinkSet chain_links(std::size_t n) {
  return mst::mst_tree(instance::unit_chain(n), 0).links;
}

TEST(Verify, FixedPowerOracleFindsInfeasibleSlot) {
  const auto links = chain_links(5);  // 4 unit links in a row
  const auto prm = params(3.0, 2.0);
  const auto oracle =
      fixed_power_oracle(links, prm, sinr::uniform_power(links, prm));
  Schedule bad;
  bad.slots = {{0, 1, 2, 3}};  // neighbours share nodes: infeasible
  const auto rep = verify_schedule(links, bad, oracle);
  EXPECT_FALSE(rep.all_slots_feasible);
  EXPECT_TRUE(rep.covers_all_links);
  EXPECT_FALSE(rep.ok());
  ASSERT_EQ(rep.infeasible_slots.size(), 1u);
  EXPECT_EQ(rep.infeasible_slots[0], 0u);
}

TEST(Verify, AcceptsFeasibleSchedule) {
  const auto links = chain_links(5);
  const auto prm = params(3.0, 2.0);
  const auto oracle =
      fixed_power_oracle(links, prm, sinr::uniform_power(links, prm));
  Schedule one_at_a_time;
  one_at_a_time.slots = {{0}, {1}, {2}, {3}};
  EXPECT_TRUE(verify_schedule(links, one_at_a_time, oracle).ok());
}

TEST(Verify, PowerControlOracleAcceptsPairsUniformCannot) {
  // Nested links: short inside the shadow of long. Uniform fails, power
  // control succeeds.
  geom::Pointset pts{{0, 0}, {16, 0}, {20, 0}, {21, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{3, 2}});
  const auto prm = params(3.0, 2.0);
  const std::vector<std::size_t> both{0, 1};
  EXPECT_FALSE(fixed_power_oracle(ls, prm, sinr::uniform_power(ls, prm))(both));
  EXPECT_TRUE(power_control_oracle(ls, prm)(both));
}

TEST(Repair, SplitsInfeasibleSlotIntoFeasibleOnes) {
  const auto links = chain_links(6);
  const auto prm = params(3.0, 2.0);
  const auto power = sinr::uniform_power(links, prm);
  const auto oracle = fixed_power_oracle(links, prm, power);
  SlotLedger ledger(links, prm, power);
  Schedule everything;
  everything.slots = {{0, 1, 2, 3, 4}};
  const auto repaired = repair_schedule(links, everything, ledger);
  EXPECT_EQ(repaired.slots_split, 1u);
  EXPECT_EQ(repaired.length_before, 1u);
  EXPECT_GT(repaired.length_after, 1u);
  const auto rep = verify_schedule(links, repaired.schedule, oracle);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(is_partition(repaired.schedule, links.size()));
}

TEST(Repair, LeavesFeasibleSlotsUntouched) {
  const auto links = chain_links(4);
  const auto prm = params(3.0, 2.0);
  SlotLedger ledger(links, prm, sinr::uniform_power(links, prm));
  Schedule fine;
  fine.slots = {{0}, {1}, {2}};
  const auto repaired = repair_schedule(links, fine, ledger);
  EXPECT_EQ(repaired.slots_split, 0u);
  EXPECT_EQ(repaired.schedule.slots, fine.slots);
}

TEST(Repair, PreservesMultiplicity) {
  // Multicolor schedules keep their per-link multiplicities through repair.
  const auto links = chain_links(4);
  const auto prm = params(3.0, 2.0);
  SlotLedger ledger(links, prm, sinr::uniform_power(links, prm));
  Schedule multi;
  multi.slots = {{0, 1, 2}, {0}};
  const auto repaired = repair_schedule(links, multi, ledger);
  std::vector<int> count(3, 0);
  for (const auto& slot : repaired.schedule.slots) {
    for (auto l : slot) ++count[l];
  }
  EXPECT_EQ(count[0], 2);
  EXPECT_EQ(count[1], 1);
  EXPECT_EQ(count[2], 1);
}

TEST(FiveCycle, MulticolorBeatsColoring) {
  // The paper's Sec 4 example: coloring rate 1/3, multicoloring rate 2/5.
  const auto inst = instance::five_cycle_instance();
  const auto prm = params(3.0, 1.0);
  const auto oracle = fixed_power_oracle(inst.links, prm,
                                         sinr::uniform_power(inst.links, prm));
  Schedule multicolor;
  multicolor.slots = inst.multicolor_slots;
  Schedule coloring;
  coloring.slots = inst.coloring_slots;

  EXPECT_TRUE(verify_schedule(inst.links, multicolor, oracle).ok());
  EXPECT_TRUE(verify_schedule(inst.links, coloring, oracle).ok());

  EXPECT_NEAR(min_link_rate(coloring, 5), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(min_link_rate(multicolor, 5), 2.0 / 5.0, 1e-12);
  EXPECT_GT(min_link_rate(multicolor, 5), min_link_rate(coloring, 5));
}

TEST(Repair, EmptySlotSurvivesUnchanged) {
  // An empty slot is vacuously feasible; repair must neither crash nor
  // split it.
  const auto links = chain_links(4);
  const auto prm = params(3.0, 2.0);
  SlotLedger pinned(links, prm, sinr::uniform_power(links, prm));
  SlotLedger carried(links, prm);
  Schedule with_empty;
  with_empty.slots = {{0}, {}, {1}, {2}};
  for (SlotLedger* ledger : {&pinned, &carried}) {
    const auto repaired = repair_schedule(links, with_empty, *ledger);
    EXPECT_EQ(repaired.slots_split, 0u);
    EXPECT_EQ(repaired.schedule.slots, with_empty.slots);
    ASSERT_EQ(repaired.certificates.size(), with_empty.slots.size());
    EXPECT_TRUE(repaired.certificates[1].members.empty());
  }
}

TEST(Repair, SingleLinkSlotsAreFixedPoints) {
  // Singletons are feasible on interference-limited instances, so a
  // schedule of singletons round-trips exactly under both ledger rules.
  const auto links = chain_links(5);
  const auto prm = params(3.0, 2.0);
  SlotLedger pinned(links, prm, sinr::uniform_power(links, prm));
  SlotLedger carried(links, prm);
  Schedule singletons;
  for (std::size_t i = 0; i < links.size(); ++i) singletons.slots.push_back({i});
  for (SlotLedger* ledger : {&pinned, &carried}) {
    const auto repaired = repair_schedule(links, singletons, *ledger);
    EXPECT_EQ(repaired.slots_split, 0u);
    EXPECT_EQ(repaired.length_after, links.size());
    EXPECT_EQ(repaired.schedule.slots, singletons.slots);
  }
}

TEST(Repair, AllPairwiseInfeasibleSlotExplodesIntoSingletons) {
  // Three parallel unit links stacked 0.01 apart: any concurrent pair has
  // SINR ~= 1 < beta = 2, so the slot has no feasible pair and repair must
  // end at one link per sub-slot.
  geom::Pointset pts{{0, 0},    {1, 0},    {0, 0.01},
                     {1, 0.01}, {0, 0.02}, {1, 0.02}};
  const geom::LinkSet links(
      pts, {geom::Link{0, 1}, geom::Link{2, 3}, geom::Link{4, 5}});
  const auto prm = params(3.0, 2.0);
  const auto power = sinr::uniform_power(links, prm);
  const auto oracle = fixed_power_oracle(links, prm, power);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      ASSERT_FALSE(oracle(std::vector<std::size_t>{i, j}))
          << "pair " << i << "," << j;
    }
  }
  Schedule hopeless;
  hopeless.slots = {{0, 1, 2}};
  SlotLedger ledger(links, prm, power);
  const auto repaired = repair_schedule(links, hopeless, ledger);
  EXPECT_EQ(repaired.slots_split, 1u);
  EXPECT_EQ(repaired.length_after, 3u);
  for (const auto& slot : repaired.schedule.slots) {
    EXPECT_EQ(slot.size(), 1u);
  }
  EXPECT_TRUE(verify_schedule(links, repaired.schedule, oracle).ok());
}

TEST(Repair, RejectsLedgerOverAnotherLinkSet) {
  const auto links = chain_links(4);
  const auto other = chain_links(4);
  const auto prm = params(3.0, 2.0);
  SlotLedger ledger(other, prm);
  Schedule one;
  one.slots = {{0, 1, 2}};
  EXPECT_THROW((void)repair_schedule(links, one, ledger),
               std::invalid_argument);
}

/// A kept slot whose exact loads are known (a previously accepted slot).
LedgerSlot known(SlotLedger& ledger, const std::vector<std::size_t>& members) {
  LedgerSlot slot = ledger.unknown(members);
  ledger.reseed(slot);
  return slot;
}

TEST(PatchSlot, InsertsLooseIntoKeptWhenFeasible) {
  const auto links = chain_links(8);  // 7 unit links
  const auto prm = params(3.0, 1.0);
  const auto power = sinr::uniform_power(links, prm);
  const auto oracle = fixed_power_oracle(links, prm, power);
  SlotLedger ledger(links, prm, power);
  // Far-apart links 0 and 6 coexist; insert 3 (feasible with neither-near
  // set? checked via oracle) as loose.
  ASSERT_TRUE(oracle(std::vector<std::size_t>{0, 6}));
  const std::vector<std::size_t> loose = {3};
  const auto patch = patch_slot(ledger, known(ledger, {0, 6}), loose);
  std::size_t members = 0;
  for (const auto& sub : patch.sub_slots) members += sub.members.size();
  EXPECT_EQ(members, 3u);
  EXPECT_GE(patch.oracle_calls, 1u);
  EXPECT_EQ(patch.certificates.hits + patch.certificates.misses,
            patch.oracle_calls);
  for (const auto& sub : patch.sub_slots) {
    EXPECT_TRUE(oracle(sub.members));
  }
}

TEST(PatchSlot, MixesInsertionAndNewSubSlots) {
  const auto inst = instance::five_cycle_instance();
  const auto prm = params(3.0, 1.0);
  const auto power = sinr::uniform_power(inst.links, prm);
  const auto oracle = fixed_power_oracle(inst.links, prm, power);
  SlotLedger ledger(inst.links, prm, power);
  // Five-cycle: adjacent pairs are infeasible, non-adjacent pairs feasible.
  // Kept slot {0}; loose 1 (adjacent to 0 -> new sub-slot) and 2
  // (non-adjacent to 0 -> joins the kept slot).
  ASSERT_TRUE(oracle(std::vector<std::size_t>{0, 2}));
  const std::vector<std::size_t> loose = {1, 2};
  const auto patch = patch_slot(ledger, known(ledger, {0}), loose);
  ASSERT_EQ(patch.sub_slots.size(), 2u);
  EXPECT_EQ(patch.slots_opened, 1u);
  EXPECT_EQ(patch.sub_slots[0].members, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(patch.sub_slots[1].members, (std::vector<std::size_t>{1}));
  // Exact pinned bounds decide everything without a recompute.
  EXPECT_EQ(patch.certificates.misses, 0u);
  EXPECT_EQ(patch.certificates.hits, patch.oracle_calls);
  for (const auto& sub : patch.sub_slots) {
    EXPECT_TRUE(oracle(sub.members));
  }
}

TEST(PatchSlot, UncertifiedKeptIsRecheckedOrRepacked) {
  const auto inst = instance::five_cycle_instance();
  const auto prm = params(3.0, 1.0);
  const auto power = sinr::uniform_power(inst.links, prm);
  const auto oracle = fixed_power_oracle(inst.links, prm, power);
  SlotLedger ledger(inst.links, prm, power);
  // Feasible shrunk kept: one decision re-certifies it.
  {
    const auto patch =
        patch_slot(ledger, ledger.unknown({{0, 2}}), {}, false);
    ASSERT_EQ(patch.sub_slots.size(), 1u);
    EXPECT_EQ(patch.sub_slots[0].members, (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(patch.oracle_calls, 1u);
    // Unknown bounds cannot certify: the exact recompute decided it.
    EXPECT_EQ(patch.certificates.misses, 1u);
  }
  // Infeasible kept (adjacent pair): demoted and repacked into singletons.
  {
    const auto patch =
        patch_slot(ledger, ledger.unknown({{0, 1}}), {}, false);
    ASSERT_EQ(patch.sub_slots.size(), 2u);
    for (const auto& sub : patch.sub_slots) {
      EXPECT_EQ(sub.members.size(), 1u);
      EXPECT_TRUE(oracle(sub.members));
    }
  }
}

TEST(PatchSlot, EmptyKeptWithoutLooseYieldsNothing) {
  const auto links = chain_links(4);
  const auto prm = params(3.0, 2.0);
  const auto power = sinr::uniform_power(links, prm);
  SlotLedger ledger(links, prm, power);
  const auto none = patch_slot(ledger, LedgerSlot{}, {});
  EXPECT_TRUE(none.sub_slots.empty());
  const auto kept = patch_slot(ledger, known(ledger, {0}), {});
  ASSERT_EQ(kept.sub_slots.size(), 1u);
  EXPECT_EQ(kept.sub_slots[0].members, (std::vector<std::size_t>{0}));
  EXPECT_EQ(kept.oracle_calls, 0u);  // no loose links, no checks
}

TEST(PatchSlot, CarriedPowersCertifyInsertionsSoundly) {
  // Arbitrary power control: whatever the carried ledger accepts — by its
  // own bounds or through the cold oracle — ships a power vector that
  // satisfies the exact SINR inequalities, and the cold oracle agrees.
  const auto tree = mst::mst_tree(instance::uniform_square(160, 10.0, 5), 0);
  const auto& links = tree.links;
  const auto prm = params(3.0, 1.0);
  const auto oracle = power_control_oracle(links, prm);
  SlotLedger ledger(links, prm);
  std::vector<std::size_t> all(links.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const auto patch = patch_slot(ledger, LedgerSlot{}, all);
  EXPECT_EQ(patch.certificates.hits + patch.certificates.misses,
            patch.oracle_calls);
  EXPECT_GT(patch.certificates.hits, 0u);
  std::size_t covered = 0;
  for (const auto& sub : patch.sub_slots) {
    covered += sub.members.size();
    ASSERT_TRUE(std::isfinite(sub.max_load()));
    std::vector<double> lp(links.size(), 0.0);
    for (std::size_t a = 0; a < sub.members.size(); ++a) {
      lp[sub.members[a]] = sub.log2_power[a];
    }
    EXPECT_TRUE(sinr::is_feasible(links, sub.members, prm,
                                  sinr::PowerAssignment(lp), 1e-9));
    EXPECT_TRUE(oracle(sub.members));
  }
  EXPECT_EQ(covered, links.size());
}

/// Member loads under powers x, computed independently of the ledger
/// through sinr::log2_affectance (log-sum-exp arithmetic).
std::vector<double> exact_loads(const geom::LinkView& links,
                                const LedgerSlot& slot,
                                const sinr::SinrParams& prm) {
  std::vector<double> lp(links.size(), 0.0);
  for (std::size_t a = 0; a < slot.members.size(); ++a) {
    lp[slot.members[a]] = slot.log2_power[a];
  }
  const sinr::PowerAssignment power(lp);
  std::vector<double> loads;
  for (const std::size_t i : slot.members) {
    std::vector<double> terms;
    for (const std::size_t j : slot.members) {
      if (j != i) terms.push_back(sinr::log2_affectance(links, prm, power, j, i));
    }
    if (prm.noise > 0.0) {
      terms.push_back(std::log2(prm.noise) +
                      prm.alpha * std::log2(links.length(i)) - lp[i]);
    }
    loads.push_back(prm.beta * std::exp2(sinr::log2_sum_exp2(terms)));
  }
  return loads;
}

TEST(SlotLedger, BoundsDominateExactLoadsUnderChurn) {
  // Random insert/remove sequences in both rules: the bounds never fall
  // below the exact loads, and a re-seed makes them equal.
  const auto tree = mst::mst_tree(instance::uniform_square(120, 12.0, 3), 0);
  const auto& links = tree.links;
  for (const double noise : {0.0, 1e-6}) {
    auto prm = params(3.0, 1.0);
    prm.noise = noise;
    const auto power = sinr::linear_power(links, prm);
    SlotLedger pinned(links, prm, power);
    SlotLedger carried(links, prm);
    for (SlotLedger* ledger : {&pinned, &carried}) {
      util::Rng rng(17);
      LedgerSlot slot;
      slot.exact = true;
      std::vector<bool> in(links.size(), false);
      for (int step = 0; step < 300; ++step) {
        if (!slot.members.empty() && rng.uniform() < 0.4) {
          const auto a = rng.below(slot.members.size());
          in[slot.members[a]] = false;
          slot.members.erase(slot.members.begin() + static_cast<long>(a));
          slot.log2_power.erase(slot.log2_power.begin() +
                                static_cast<long>(a));
          slot.load.erase(slot.load.begin() + static_cast<long>(a));
          slot.exact = false;
        } else {
          const auto link = rng.below(links.size());
          if (in[link]) continue;
          // Keep the slot free of shared nodes so every load is finite.
          bool shares = false;
          for (const auto m : slot.members) {
            shares = shares || links.shares_node(m, link);
          }
          if (shares) continue;
          in[link] = true;
          ledger->insert(slot, link);
        }
        const auto exact = exact_loads(links, slot, prm);
        for (std::size_t a = 0; a < exact.size(); ++a) {
          ASSERT_GE(slot.load[a], exact[a] * (1.0 - 1e-12))
              << "step " << step << " member " << a;
        }
        if (step % 25 == 0) {
          ledger->reseed(slot);
          ASSERT_TRUE(slot.exact);
          for (std::size_t a = 0; a < exact.size(); ++a) {
            ASSERT_NEAR(slot.load[a], exact[a], 1e-12 * exact[a]);
          }
        }
      }
    }
  }
}

TEST(SlotLedger, ColdSeedLoadsMatchExactLoads) {
  // A miss re-seeds the slot from power_control_feasible's own loads; they
  // must agree with an independent recomputation.
  const auto tree = mst::mst_tree(instance::uniform_square(200, 14.0, 8), 0);
  const auto& links = tree.links;
  for (const double noise : {0.0, 1e-6}) {
    auto prm = params(3.0, 1.0);
    prm.noise = noise;
    SlotLedger ledger(links, prm);
    CertificateCounts counts;
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < links.size() && members.size() < 6; i += 17) {
      members.push_back(i);
    }
    LedgerSlot slot = ledger.unknown(members);
    if (!ledger.settle(slot, counts)) continue;
    EXPECT_EQ(counts.misses, 1u);
    ASSERT_TRUE(std::isfinite(slot.max_load()));
    const auto exact = exact_loads(links, slot, prm);
    for (std::size_t a = 0; a < exact.size(); ++a) {
      EXPECT_NEAR(slot.load[a], exact[a], 1e-9 * std::max(1e-300, exact[a]));
    }
  }
}

TEST(SlotLedger, PinnedSettleStopsAtFirstOverloadExactly) {
  // The pinned exact decision rebuilds the loads member by member and
  // stops at the first overload. Loads only grow under insertion, so its
  // rejection is final: every verdict equals a full recompute's, an
  // accepted slot carries the recomputed loads, a rejected one is left as
  // it was.
  const auto tree = mst::mst_tree(instance::uniform_square(120, 10.0, 4), 0);
  const auto& links = tree.links;
  for (const double noise : {0.0, 1e-6}) {
    auto prm = params(3.0, 1.0);
    prm.noise = noise;
    const auto power = sinr::linear_power(links, prm);
    SlotLedger ledger(links, prm, power);
    util::Rng rng(23);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::size_t> members;
      const auto size = 2 + rng.below(12);
      for (std::size_t k = 0; k < size; ++k) {
        const auto link = rng.below(links.size());
        bool fresh = true;
        for (const auto m : members) fresh = fresh && m != link;
        if (fresh) members.push_back(link);
      }
      LedgerSlot full = ledger.unknown(members);
      ledger.reseed(full);
      LedgerSlot slot = ledger.unknown(members);
      const LedgerSlot before = slot;
      CertificateCounts counts;
      const bool verdict = ledger.settle(slot, counts);
      EXPECT_EQ(counts.misses, 1u);
      ASSERT_EQ(verdict, ledger.certifies(full)) << "trial " << trial;
      ASSERT_EQ(verdict, sinr::is_feasible(links, members, prm, power));
      if (verdict) {
        ++accepted;
        EXPECT_TRUE(slot.exact);
        ASSERT_EQ(slot.members, members);
        for (std::size_t a = 0; a < members.size(); ++a) {
          EXPECT_NEAR(slot.load[a], full.load[a], 1e-12 * full.load[a]);
        }
      } else {
        ++rejected;
        EXPECT_EQ(slot.members, before.members);
        EXPECT_EQ(slot.exact, before.exact);
      }
    }
    EXPECT_GT(accepted, 0u) << "noise " << noise;
    EXPECT_GT(rejected, 0u) << "noise " << noise;
  }
}

TEST(Repair, MatchesOracleFirstFitInEveryMode) {
  // repair_schedule is first fit over the slot ledger; on MST instances it
  // packs slot for slot like first fit over the mode's exact oracle, under
  // both rules (pinned: uniform, linear, oblivious; carried: power
  // control), with and without noise.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto tree =
        mst::mst_tree(instance::uniform_square(120, 10.0, seed), 0);
    const auto& links = tree.links;
    // One slot of everything (first-fit decreasing) and a 3-slot split.
    Schedule input;
    input.slots.assign(4, {});
    for (std::size_t i = 0; i < links.size(); ++i) {
      input.slots[0].push_back(i);
      input.slots[1 + i % 3].push_back(i);
    }
    for (const double noise : {0.0, 1e-9}) {
      auto prm = params(3.0, 1.0);
      prm.noise = noise;
      for (const auto& power :
           {sinr::uniform_power(links, prm), sinr::linear_power(links, prm),
            sinr::oblivious_power(links, 0.5, prm)}) {
        SlotLedger ledger(links, prm, power);
        EXPECT_EQ(repair_schedule(links, input, ledger).schedule.slots,
                  testing::oracle_first_fit(
                      links, input, fixed_power_oracle(links, prm, power))
                      .slots)
            << "seed " << seed << " noise " << noise << " " << power.description();
      }
      SlotLedger ledger(links, prm);
      EXPECT_EQ(repair_schedule(links, input, ledger).schedule.slots,
                testing::oracle_first_fit(links, input,
                                          power_control_oracle(links, prm))
                    .slots)
          << "seed " << seed << " noise " << noise << " power control";
    }
  }
}

TEST(FiveCycle, AdjacentPairsAreInfeasible) {
  const auto inst = instance::five_cycle_instance();
  const auto prm = params(3.0, 1.0);
  const auto power = sinr::uniform_power(inst.links, prm);
  for (std::size_t i = 0; i < 5; ++i) {
    const std::vector<std::size_t> pair{i, (i + 1) % 5};
    EXPECT_FALSE(sinr::is_feasible(inst.links, pair, prm, power))
        << "pair " << i;
  }
}

}  // namespace
}  // namespace wagg::schedule
