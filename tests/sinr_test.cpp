#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "geom/linkset.h"
#include "instance/basic.h"
#include "instance/lowerbound.h"
#include "mst/mst.h"
#include "mst/tree.h"
#include "sinr/feasibility.h"
#include "sinr/interference.h"
#include "sinr/model.h"
#include "sinr/power.h"
#include "util/rng.h"

namespace wagg::sinr {
namespace {

SinrParams params(double alpha = 3.0, double beta = 1.0, double noise = 0.0) {
  SinrParams p;
  p.alpha = alpha;
  p.beta = beta;
  p.noise = noise;
  return p;
}

/// Two parallel unit links at horizontal separation `sep`.
geom::LinkSet parallel_pair(double sep) {
  geom::Pointset pts{{0, 0}, {0, 1}, {sep, 0}, {sep, 1}};
  return geom::LinkSet(pts, {geom::Link{0, 1}, geom::Link{2, 3}});
}

TEST(Model, Validation) {
  EXPECT_NO_THROW(params().validate());
  EXPECT_THROW(params(2.0).validate(), std::invalid_argument);
  EXPECT_THROW(params(3.0, 0.0).validate(), std::invalid_argument);
  EXPECT_THROW(params(3.0, 1.0, -1.0).validate(), std::invalid_argument);
}

TEST(Power, UniformIsFlat) {
  const auto ls = parallel_pair(5.0);
  const auto p = uniform_power(ls, params());
  EXPECT_DOUBLE_EQ(p.log2_power(0), p.log2_power(1));
  EXPECT_DOUBLE_EQ(p.power(0), 1.0);  // noise-free: C = 1
}

TEST(Power, LinearScalesWithLengthAlpha) {
  geom::Pointset pts{{0, 0}, {1, 0}, {10, 0}, {14, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{2, 3}});
  const auto p = linear_power(ls, params(3.0));
  // P(1)/P(0) = (4/1)^3 = 64 -> log2 diff = 6.
  EXPECT_NEAR(p.log2_power(1) - p.log2_power(0), 6.0, 1e-12);
}

TEST(Power, ObliviousInterpolates) {
  geom::Pointset pts{{0, 0}, {1, 0}, {10, 0}, {14, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{2, 3}});
  const auto p = oblivious_power(ls, 0.5, params(3.0));
  EXPECT_NEAR(p.log2_power(1) - p.log2_power(0), 3.0, 1e-12);  // (4^3)^0.5
}

TEST(Power, NoiseSetsInterferenceLimitedFloor) {
  geom::Pointset pts{{0, 0}, {2, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}});
  const auto prm = params(3.0, 1.0, 0.125);
  const auto p = uniform_power(ls, prm);
  // P >= (1+eps) * beta * N * l^alpha = 1.5 * 0.125 * 8 = 1.5.
  EXPECT_GE(p.power(0), 1.5 - 1e-9);
  // And a single link must then be feasible despite the noise.
  const std::vector<std::size_t> solo{0};
  EXPECT_TRUE(is_feasible(ls, solo, prm, p));
}

TEST(Power, Validation) {
  const auto ls = parallel_pair(2.0);
  EXPECT_THROW(oblivious_power(ls, -0.1, params()), std::invalid_argument);
  EXPECT_THROW(oblivious_power(ls, 1.1, params()), std::invalid_argument);
}

TEST(Affectance, MatchesHandComputation) {
  const auto ls = parallel_pair(2.0);
  const auto p = uniform_power(ls, params(3.0));
  // I(1, 0) = (l_0 / d_10)^3 with d_10 = d(sender1, receiver0) = hypot(2,1).
  const double expected = std::pow(1.0 / std::hypot(2.0, 1.0), 3.0);
  EXPECT_NEAR(std::exp2(log2_affectance(ls, params(3.0), p, 1, 0)), expected,
              1e-12);
  // Self affectance is zero (log = -inf).
  EXPECT_EQ(log2_affectance(ls, params(3.0), p, 0, 0),
            -std::numeric_limits<double>::infinity());
}

TEST(Feasibility, FarApartPairIsFeasible) {
  const auto ls = parallel_pair(100.0);
  const std::vector<std::size_t> both{0, 1};
  EXPECT_TRUE(is_feasible(ls, both, params(), uniform_power(ls, params())));
}

TEST(Feasibility, ClosePairIsInfeasible) {
  // With beta = 2 the pair needs interference distance >= 2^(1/3) * length.
  const auto prm = params(3.0, 2.0);
  const auto ls = parallel_pair(0.5);
  const std::vector<std::size_t> both{0, 1};
  const auto rep = check_feasible(ls, both, prm, uniform_power(ls, prm));
  EXPECT_FALSE(rep.feasible);
  EXPECT_GT(rep.max_load, 1.0);
}

TEST(Feasibility, ThresholdAtUnitSinrBoundary) {
  // With alpha = 3, beta = 1, two parallel unit links, interference distance
  // hypot(sep, 1); SINR = hypot(sep,1)^3. Feasible iff hypot(sep,1) >= 1,
  // which always holds; with beta = 8 need hypot(sep,1)^3 >= 8 -> sep >= sqrt(3).
  const double boundary = std::sqrt(3.0);
  const std::vector<std::size_t> both{0, 1};
  auto prm = params(3.0, 8.0);
  const auto below = parallel_pair(boundary - 0.01);
  const auto above = parallel_pair(boundary + 0.01);
  EXPECT_FALSE(is_feasible(below, both, prm, uniform_power(below, prm)));
  EXPECT_TRUE(is_feasible(above, both, prm, uniform_power(above, prm)));
}

TEST(Feasibility, SharedNodeAlwaysInfeasible) {
  geom::Pointset pts{{0, 0}, {1, 0}, {2, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{1, 2}});
  const std::vector<std::size_t> both{0, 1};
  EXPECT_TRUE(has_shared_node(ls, both));
  const auto rep = check_feasible(ls, both, params(), uniform_power(ls, params()));
  EXPECT_FALSE(rep.feasible);
  EXPECT_TRUE(rep.shared_node);
}

TEST(Feasibility, SubsetsOfFeasibleSetsAreFeasible) {
  util::Rng rng(3);
  const auto prm = params(3.0, 2.0);
  for (int trial = 0; trial < 20; ++trial) {
    // Random links in a box; test subset-closedness on feasible triples.
    geom::Pointset pts;
    for (int i = 0; i < 8; ++i) {
      pts.push_back({rng.uniform(0, 50), rng.uniform(0, 50)});
    }
    std::vector<geom::Link> links;
    for (int i = 0; i < 4; ++i) links.push_back(geom::Link{2 * i, 2 * i + 1});
    geom::LinkSet ls(pts, links);
    const auto power = uniform_power(ls, prm);
    std::vector<std::size_t> all{0, 1, 2, 3};
    if (!is_feasible(ls, all, prm, power)) continue;
    for (std::size_t drop = 0; drop < 4; ++drop) {
      std::vector<std::size_t> sub;
      for (std::size_t i = 0; i < 4; ++i) {
        if (i != drop) sub.push_back(i);
      }
      EXPECT_TRUE(is_feasible(ls, sub, prm, power)) << "trial " << trial;
    }
  }
}

TEST(Feasibility, EmptyAndSingleton) {
  const auto ls = parallel_pair(1.0);
  const auto p = uniform_power(ls, params());
  EXPECT_TRUE(is_feasible(ls, {}, params(), p));
  const std::vector<std::size_t> solo{0};
  EXPECT_TRUE(is_feasible(ls, solo, params(), p));
}

TEST(PowerControl, PairSpectralRadiusExact) {
  const auto prm = params(3.0, 1.0);
  const auto ls = parallel_pair(2.0);
  const std::vector<std::size_t> both{0, 1};
  const auto res = power_control_feasible(ls, both, prm);
  // Symmetric geometry: rho = beta * (1/hypot(2,1))^3.
  EXPECT_NEAR(res.spectral_radius, std::pow(1.0 / std::hypot(2, 1), 3.0),
              1e-9);
  EXPECT_TRUE(res.feasible);
  ASSERT_EQ(res.log2_power.size(), 2u);
}

TEST(PowerControl, RescuesAsymmetricPairThatUniformCannot) {
  // A long link next to a short one: uniform power fails, power control
  // succeeds by boosting the long link.
  geom::Pointset pts{{0, 0}, {16, 0}, {20, 0}, {21, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{3, 2}});
  const auto prm = params(3.0, 2.0);
  const std::vector<std::size_t> both{0, 1};
  EXPECT_FALSE(is_feasible(ls, both, prm, uniform_power(ls, prm)));
  const auto res = power_control_feasible(ls, both, prm);
  ASSERT_TRUE(res.feasible);
  // The certified power vector must pass the exact check.
  const auto embedded = embed_slot_power(ls, both, res);
  EXPECT_TRUE(is_feasible(ls, both, prm, embedded));
  // Long link gets more power.
  EXPECT_GT(embedded.log2_power(0), embedded.log2_power(1));
}

TEST(PowerControl, DetectsInfeasiblePair) {
  // Two crossing-ish links sharing a midpoint region: mutual geometric mean
  // of gains >= 1 -> infeasible under ANY power.
  geom::Pointset pts{{0, 0}, {10, 0}, {5, 0.1}, {5, 10}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{3, 2}});
  const auto prm = params(3.0, 1.0);
  const std::vector<std::size_t> both{0, 1};
  const auto res = power_control_feasible(ls, both, prm);
  EXPECT_FALSE(res.feasible);
  EXPECT_GE(res.spectral_radius, 1.0);
}

TEST(PowerControl, AgreesWithBruteForceSearchOnTriples) {
  // Two-sided validation on random triples:
  //  - feasible verdicts must come with a power vector passing the exact
  //    SINR check (certification);
  //  - clearly infeasible verdicts (rho >= 1.1) must not be contradicted by
  //    an exhaustive log-space power grid.
  util::Rng rng(17);
  const auto prm = params(3.0, 1.0);
  int feasible_checked = 0, infeasible_checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    geom::Pointset pts;
    for (int i = 0; i < 6; ++i) {
      pts.push_back({rng.uniform(0, 12), rng.uniform(0, 12)});
    }
    geom::LinkSet ls(pts,
                     {geom::Link{0, 1}, geom::Link{2, 3}, geom::Link{4, 5}});
    const std::vector<std::size_t> all{0, 1, 2};
    if (has_shared_node(ls, all)) continue;
    const auto res = power_control_feasible(ls, all, prm);
    if (res.feasible) {
      const auto embedded = embed_slot_power(ls, all, res);
      EXPECT_TRUE(is_feasible(ls, all, prm, embedded)) << "trial " << trial;
      ++feasible_checked;
    } else if (res.spectral_radius >= 1.1 && infeasible_checked < 6) {
      bool grid_feasible = false;
      for (double p0 = -30; p0 <= 30 && !grid_feasible; p0 += 1.0) {
        for (double p1 = -30; p1 <= 30 && !grid_feasible; p1 += 1.0) {
          for (double p2 = -30; p2 <= 30 && !grid_feasible; p2 += 1.0) {
            PowerAssignment pa(std::vector<double>{p0, p1, p2});
            grid_feasible = is_feasible(ls, all, prm, pa);
          }
        }
      }
      EXPECT_FALSE(grid_feasible)
          << "trial " << trial << " rho=" << res.spectral_radius;
      ++infeasible_checked;
    }
  }
  EXPECT_GE(feasible_checked, 3);
  EXPECT_GE(infeasible_checked, 3);
}

TEST(PowerControl, PerronPowersCertifiedOnChains) {
  // The exponential chain is the classic case where uniform power needs
  // Omega(n) slots but power control schedules interleaved subsets.
  const auto pts = instance::exponential_chain(10, 2.0);
  const auto tree = mst::mst_tree(pts, 0);
  const auto prm = params(3.0, 1.0);
  // Try the odd links as one slot.
  std::vector<std::size_t> odd;
  for (std::size_t i = 1; i < tree.links.size(); i += 2) odd.push_back(i);
  const auto res = power_control_feasible(tree.links, odd, prm);
  if (res.feasible) {
    const auto embedded = embed_slot_power(tree.links, odd, res);
    EXPECT_TRUE(is_feasible(tree.links, odd, prm, embedded));
  }
  // Either way the solver must return a definite verdict with finite rho.
  EXPECT_TRUE(std::isfinite(res.spectral_radius));
}

TEST(PowerControl, NearlyPeriodicSpectrumStillCertified) {
  // Links 1 and 2 form a weakly coupled pair (eigenvalues +-0.1), and link
  // 0's sender sits near link 1's receiver (M_10 ~ 4, M_01 ~ 3e-8). Plain
  // power iteration then alternates its Collatz–Wielandt upper bound
  // between the pair without it ever dropping (it stalls near 3.4 for the
  // whole iteration budget), although rho(M) ~ 0.1.
  const geom::Pointset pts{{31.8339, 23.5555}, {31.8611, 23.5753},
                           {22.6433, 28.6437}, {28.6472, 26.0044},
                           {18.7920, 19.1513}, {14.1720, 20.0929}};
  const geom::LinkSet ls(
      pts, {geom::Link{0, 1}, geom::Link{2, 3}, geom::Link{4, 5}});
  const std::vector<std::size_t> all{0, 1, 2};
  const auto prm = params();
  const auto res = power_control_feasible(ls, all, prm);
  ASSERT_TRUE(res.feasible);
  EXPECT_LT(res.spectral_radius, 1.0);
  const auto report =
      check_feasible(ls, all, prm, embed_slot_power(ls, all, res));
  EXPECT_TRUE(report.feasible);
  // The returned loads are the vector's exact loads.
  ASSERT_EQ(res.log2_load.size(), all.size());
  double max_load = 0.0;
  for (const double lg : res.log2_load) {
    max_load = std::max(max_load, std::exp2(lg));
  }
  EXPECT_NEAR(max_load, report.max_load, 1e-9 * report.max_load);
}

TEST(PowerControl, NoiseRequiresFiniteMargin) {
  const auto prm = params(3.0, 1.0, 0.01);
  const auto ls = parallel_pair(4.0);
  const std::vector<std::size_t> both{0, 1};
  const auto res = power_control_feasible(ls, both, prm);
  ASSERT_TRUE(res.feasible);
  const auto embedded = embed_slot_power(ls, both, res);
  EXPECT_TRUE(is_feasible(ls, both, prm, embedded));
}

TEST(PowerControl, EmptyAndSingleton) {
  const auto ls = parallel_pair(1.0);
  EXPECT_TRUE(power_control_feasible(ls, {}, params()).feasible);
  const std::vector<std::size_t> solo{1};
  const auto res = power_control_feasible(ls, solo, params());
  EXPECT_TRUE(res.feasible);
  EXPECT_DOUBLE_EQ(res.spectral_radius, 0.0);
}

TEST(PowerControl, NoisySingletonShipsACertifiedVector) {
  // A lone link of length 2000 at noise 1e-9 has load 8 at log2 power 0:
  // the returned vector must clear the noise floor, and its reported load
  // must be the real one.
  const geom::Pointset pts{{0, 0}, {2000, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}});
  const auto prm = params(3.0, 1.0, 1e-9);
  const std::vector<std::size_t> solo{0};
  const auto res = power_control_feasible(ls, solo, prm);
  ASSERT_TRUE(res.feasible);
  ASSERT_EQ(res.log2_power.size(), 1u);
  ASSERT_EQ(res.log2_load.size(), 1u);
  const auto embedded = embed_slot_power(ls, solo, res);
  const auto report = check_feasible(ls, solo, prm, embedded);
  EXPECT_TRUE(report.feasible);
  EXPECT_LT(res.log2_load[0], 0.0);
  EXPECT_NEAR(std::exp2(res.log2_load[0]), report.max_load, 1e-12);
}

TEST(PowerControl, NearCriticalNoisySetIsCertified) {
  // A 25-link slot of an MST with spectral radius ~0.9997: the noise
  // certification's Foschini–Miljanic update ends far from its fixed point
  // within the sweep budget, yet the set is feasible — the noise-free
  // certificate vector, scaled above the noise floor, proves it.
  const auto tree = mst::mst_tree(instance::uniform_square(120, 10.0, 1), 0);
  const std::vector<std::size_t> slot{118, 78,  30, 103, 4,  100, 66,
                                      91,  21,  101, 80, 55, 6,   111,
                                      83,  18,  64, 28,  39, 112, 70,
                                      31,  96,  14, 47};
  const auto quiet =
      power_control_feasible(tree.links, slot, params(3.0, 1.0, 0.0));
  ASSERT_TRUE(quiet.feasible);
  ASSERT_GT(quiet.spectral_radius, 0.999);
  const auto prm = params(3.0, 1.0, 1e-9);
  const auto res = power_control_feasible(tree.links, slot, prm);
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(is_feasible(tree.links, slot, prm,
                          embed_slot_power(tree.links, slot, res), 1e-7));
}

TEST(Feasibility, LoadsAreScaleInvariantPastSquareOverflow) {
  // Noise-free loads depend only on distance ratios. At scale 1e200 every
  // squared distance overflows a double; the loads must still match the
  // unit-scale instance, under fixed powers and under power control.
  const auto at_scale = [](double scale) {
    const geom::Pointset pts{{0, 0}, {scale, 0}, {3 * scale, 0},
                             {2 * scale, 0}};
    return geom::LinkSet(pts, {geom::Link{0, 1}, geom::Link{2, 3}});
  };
  const auto unit = at_scale(1.0);
  const auto huge = at_scale(1e200);
  const auto prm = params(3.0, 1.0);
  const std::vector<std::size_t> both{0, 1};
  const auto small_report =
      check_feasible(unit, both, prm, uniform_power(unit, prm));
  const auto huge_report =
      check_feasible(huge, both, prm, uniform_power(huge, prm));
  EXPECT_GT(small_report.max_load, 0.1);
  EXPECT_NEAR(huge_report.max_load, small_report.max_load,
              1e-9 * small_report.max_load);
  EXPECT_NEAR(power_control_feasible(huge, both, prm).spectral_radius,
              power_control_feasible(unit, both, prm).spectral_radius, 1e-9);
  EXPECT_NEAR(huge.log2_sinr_distance(0, 1),
              std::log2(huge.sinr_distance(0, 1)), 1e-12);
}

TEST(Interference, OperatorBasics) {
  geom::Pointset pts{{0, 0}, {1, 0}, {4, 0}, {6, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{2, 3}});
  // I(0, 1) = min(1, (l_0 / d(0,1))^3) = (1/3)^3.
  EXPECT_NEAR(interference_between(ls, 0, 1, 3.0), 1.0 / 27.0, 1e-12);
  // I(1, 0) = min(1, (2/3)^3).
  EXPECT_NEAR(interference_between(ls, 1, 0, 3.0), 8.0 / 27.0, 1e-12);
  // Clamping at 1 for overlapping links.
  geom::Pointset pts2{{0, 0}, {10, 0}, {1, 0}, {2, 0}};
  const geom::LinkSet ls2(pts2, {geom::Link{0, 1}, geom::Link{2, 3}});
  EXPECT_DOUBLE_EQ(interference_between(ls2, 0, 1, 3.0), 1.0);
  // Self is zero.
  EXPECT_DOUBLE_EQ(interference_between(ls, 0, 0, 3.0), 0.0);
}

TEST(Interference, SharedNodeClampsToOne) {
  geom::Pointset pts{{0, 0}, {1, 0}, {3, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{1, 2}});
  EXPECT_DOUBLE_EQ(interference_between(ls, 0, 1, 3.0), 1.0);
}

TEST(Interference, DirectionalSums) {
  geom::Pointset pts{{0, 0}, {1, 0}, {4, 0}, {6, 0}, {10, 0}, {14, 0}};
  const geom::LinkSet ls(
      pts, {geom::Link{0, 1}, geom::Link{2, 3}, geom::Link{4, 5}});
  // Link 0 (len 1) vs longer links 1 (len 2, distance 3) and 2 (len 4,
  // distance 9).
  const double out0 = outgoing_to_longer(ls, 0, 3.0);
  EXPECT_NEAR(out0,
              std::pow(1.0 / 3.0, 3.0) + std::pow(1.0 / 9.0, 3.0), 1e-12);
  // Link 2 has no longer links.
  EXPECT_DOUBLE_EQ(outgoing_to_longer(ls, 2, 3.0), 0.0);
  // incoming_from_shorter(2) = I(0,2) + I(1,2), distances 9 and 4.
  EXPECT_NEAR(incoming_from_shorter(ls, 2, 3.0),
              std::pow(1.0 / 9.0, 3.0) + std::pow(2.0 / 4.0, 3.0), 1e-12);
}

TEST(Interference, Lemma1AuditBoundedOnRandomMsts) {
  // The paper's Lemma 1: I(i, T_i^+) = O(1) on MST links. Measured constants:
  // ~6.7 on uniform deployments, ~15.3 on grids (equal-length ties put every
  // link in T_i^+), plateauing as n grows — O(1) as claimed.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto pts = instance::uniform_square(150, 100.0, seed);
    const auto tree = mst::mst_tree(pts, 0);
    EXPECT_LT(lemma1_statistic(tree.links, 3.0), 10.0) << "seed " << seed;
  }
  const auto chain = instance::exponential_chain(24, 1.5);
  EXPECT_LT(lemma1_statistic(mst::mst_tree(chain, 0).links, 3.0), 10.0);
  // Grids: larger constant, but flat in n (the O(1) claim).
  const double g12 =
      lemma1_statistic(mst::mst_tree(instance::grid(12, 12, 1.0), 0).links, 3.0);
  const double g20 =
      lemma1_statistic(mst::mst_tree(instance::grid(20, 20, 1.0), 0).links, 3.0);
  EXPECT_LT(g12, 18.0);
  EXPECT_LT(g20, 18.0);
  EXPECT_NEAR(g12, g20, 1.0);
}

TEST(Interference, Theorem3StatisticOnFeasibleSets) {
  // For sets feasible with beta = 3^alpha, incoming interference from
  // shorter links is O(1). Verify on far-separated parallel links.
  geom::Pointset pts;
  std::vector<geom::Link> links;
  for (int i = 0; i < 6; ++i) {
    pts.push_back({i * 50.0, 0.0});
    pts.push_back({i * 50.0, 1.0});
    links.push_back(geom::Link{2 * i, 2 * i + 1});
  }
  const geom::LinkSet ls(pts, links);
  const auto prm = params(3.0, 27.0);  // beta = 3^alpha
  std::vector<std::size_t> all{0, 1, 2, 3, 4, 5};
  ASSERT_TRUE(is_feasible(ls, all, prm, uniform_power(ls, prm)));
  EXPECT_LT(theorem3_statistic(ls, all, 3.0), 2.0);
}

}  // namespace
}  // namespace wagg::sinr
