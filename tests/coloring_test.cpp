#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "coloring/coloring.h"
#include "coloring/refinement.h"
#include "conflict/fgraph.h"
#include "conflict/graph.h"
#include "instance/basic.h"
#include "mst/tree.h"
#include "sinr/interference.h"

namespace wagg::coloring {
namespace {

conflict::Graph cycle(std::size_t n) {
  conflict::Graph g(n);
  for (std::size_t i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  g.finalize();
  return g;
}

conflict::Graph clique(std::size_t n) {
  conflict::Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) g.add_edge(i, j);
  }
  g.finalize();
  return g;
}

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

TEST(Greedy, ProperOnCyclesAndCliques) {
  for (std::size_t n : {3u, 4u, 5u, 8u, 9u}) {
    const auto g = cycle(n);
    const auto c = greedy_color(g, identity_order(n));
    EXPECT_TRUE(is_proper(g, c)) << "cycle " << n;
    EXPECT_LE(c.num_colors, 3);
  }
  const auto k5 = clique(5);
  const auto c = greedy_color(k5, identity_order(5));
  EXPECT_TRUE(is_proper(k5, c));
  EXPECT_EQ(c.num_colors, 5);
}

TEST(Greedy, BoundedByMaxDegreePlusOne) {
  const auto pts = instance::uniform_square(150, 8.0, 5);
  const auto tree = mst::mst_tree(pts, 0);
  const auto g = conflict::build_conflict_graph(
      tree.links, conflict::ConflictSpec::constant(2.0));
  const auto c = greedy_color(g, tree.links.by_decreasing_length());
  EXPECT_TRUE(is_proper(g, c));
  EXPECT_LE(static_cast<std::size_t>(c.num_colors), g.max_degree() + 1);
}

TEST(Greedy, OrderValidation) {
  const auto g = cycle(4);
  std::vector<std::size_t> bad{0, 1, 2, 2};
  EXPECT_THROW(greedy_color(g, bad), std::invalid_argument);
  std::vector<std::size_t> wrong_size{0, 1};
  EXPECT_THROW(greedy_color(g, wrong_size), std::invalid_argument);
}

TEST(Greedy, EmptyGraph) {
  conflict::Graph g(0);
  const auto c = greedy_color(g, {});
  EXPECT_EQ(c.num_colors, 0);
  EXPECT_TRUE(is_proper(g, c));
}

/// The conflict rows of `targets`, as the incremental planner hands them to
/// greedy_recolor_rows.
std::vector<std::vector<std::int32_t>> rows_of(
    const conflict::Graph& g, std::span<const std::size_t> targets) {
  std::vector<std::vector<std::int32_t>> rows;
  for (const std::size_t v : targets) {
    const auto row = g.neighbors(v);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

TEST(Recolor, KeepsSeedAndStaysProper) {
  // 6-cycle: seed alternating colors on half the vertices, recolor the rest.
  const auto ring = cycle(6);
  std::vector<int> seed = {0, -1, 0, -1, 0, -1};
  std::vector<std::size_t> targets = {1, 3, 5};
  const auto coloring =
      greedy_recolor_rows(targets, rows_of(ring, targets), seed);
  for (std::size_t v = 0; v < 6; v += 2) {
    EXPECT_EQ(coloring.color_of[v], 0) << "seed not kept at " << v;
  }
  EXPECT_TRUE(is_proper(ring, coloring));
}

TEST(Recolor, RejectsBadSizes) {
  const auto ring = cycle(4);
  std::vector<std::size_t> targets = {0, 1};
  const std::vector<int> blank(4, -1);
  const auto one_row = rows_of(ring, std::vector<std::size_t>{0});
  EXPECT_THROW((void)greedy_recolor_rows(targets, one_row, blank),
               std::invalid_argument);
  std::vector<std::size_t> outside = {4};
  const std::vector<std::vector<std::int32_t>> empty_row(1);
  EXPECT_THROW((void)greedy_recolor_rows(outside, empty_row, blank),
               std::invalid_argument);
}

TEST(Recolor, EmptySeedEqualsGreedy) {
  conflict::Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.finalize();
  std::vector<std::size_t> order = {4, 3, 2, 1, 0};
  const std::vector<int> blank(5, -1);
  const auto recolored = greedy_recolor_rows(order, rows_of(g, order), blank);
  const auto fresh = greedy_color(g, order);
  EXPECT_EQ(recolored.color_of, fresh.color_of);
  EXPECT_EQ(recolored.num_colors, fresh.num_colors);
}

TEST(Coloring, ClassesPartitionVertices) {
  const auto g = cycle(7);
  const auto c = greedy_color(g, identity_order(7));
  const auto classes = c.classes();
  EXPECT_EQ(classes.size(), static_cast<std::size_t>(c.num_colors));
  std::size_t total = 0;
  for (const auto& cls : classes) {
    total += cls.size();
    EXPECT_TRUE(g.is_independent(cls));
  }
  EXPECT_EQ(total, 7u);
}

TEST(Dsatur, ProperAndOftenTight) {
  for (std::size_t n : {5u, 7u, 9u}) {
    const auto g = cycle(n);
    const auto c = dsatur(g);
    EXPECT_TRUE(is_proper(g, c));
    EXPECT_EQ(c.num_colors, 3);  // odd cycles need exactly 3
  }
  const auto g = clique(6);
  EXPECT_EQ(dsatur(g).num_colors, 6);
}

TEST(Exact, KnownChromaticNumbers) {
  EXPECT_EQ(exact_chromatic_number(cycle(4)).value(), 2);
  EXPECT_EQ(exact_chromatic_number(cycle(5)).value(), 3);
  EXPECT_EQ(exact_chromatic_number(cycle(9)).value(), 3);
  EXPECT_EQ(exact_chromatic_number(clique(6)).value(), 6);
  conflict::Graph empty_graph(4);
  empty_graph.finalize();
  EXPECT_EQ(exact_chromatic_number(empty_graph).value(), 1);
  conflict::Graph zero(0);
  EXPECT_EQ(exact_chromatic_number(zero).value(), 0);
}

TEST(Exact, PetersenGraphNeedsThree) {
  // Petersen graph: outer 5-cycle, inner 5-star, spokes; chi = 3.
  conflict::Graph g(10);
  for (std::size_t i = 0; i < 5; ++i) {
    g.add_edge(i, (i + 1) % 5);          // outer cycle
    g.add_edge(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    g.add_edge(i, 5 + i);                // spokes
  }
  g.finalize();
  EXPECT_EQ(exact_chromatic_number(g).value(), 3);
}

TEST(Exact, BudgetExhaustionReturnsNullopt) {
  // A moderately hard random-ish graph with a 1-node budget.
  const auto g = clique(8);
  EXPECT_EQ(exact_chromatic_number(g, 1), std::nullopt);
}

TEST(Exact, NeverBelowGreedyClique) {
  const auto g = clique(4);
  EXPECT_GE(exact_chromatic_number(g).value(),
            greedy_clique_lower_bound(g));
  EXPECT_EQ(greedy_clique_lower_bound(g), 4);
}

TEST(IsProper, RejectsBadColorings) {
  const auto g = cycle(4);
  Coloring c;
  c.color_of = {0, 1, 0, 1};
  c.num_colors = 2;
  EXPECT_TRUE(is_proper(g, c));
  c.color_of = {0, 0, 1, 1};  // adjacent same color
  EXPECT_FALSE(is_proper(g, c));
  c.color_of = {0, 1, 0, 3};  // color 3 out of range vs num_colors=2
  EXPECT_FALSE(is_proper(g, c));
  c.color_of = {0, 1, 0, 1};
  c.num_colors = 3;  // color 2 unused
  EXPECT_FALSE(is_proper(g, c));
}

// --- Theorem 2's first-fit refinement ---------------------------------------

class RefinementOnFamilies
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RefinementOnFamilies, ConstantClassesEachIndependentInG1) {
  const auto [family, seed] = GetParam();
  geom::Pointset pts;
  switch (family) {
    case 0:
      pts = instance::uniform_square(200, 10.0, seed);
      break;
    case 1:
      pts = instance::clustered(8, 25, 100.0, 0.5, seed);
      break;
    case 2:
      pts = instance::exponential_chain(20, 1.5);
      break;
    case 3:
      pts = instance::grid(14, 14, 1.0);
      break;
    default:
      FAIL();
  }
  const auto tree = mst::mst_tree(pts, 0);
  const auto refinement = firstfit_refinement(tree.links, 3.0, 1.0);

  // Theorem 2, part 1: the number of classes is an absolute constant.
  // Lemma 1's constant is small; 12 is a generous ceiling.
  EXPECT_LE(refinement.num_classes, 12);
  EXPECT_GE(refinement.num_classes, 1);

  // Theorem 2, part 2: every class is independent in G_1 (gamma = 1).
  const auto g1 = conflict::build_conflict_graph(
      tree.links, conflict::ConflictSpec::constant(1.0));
  for (const auto& cls : refinement.classes()) {
    EXPECT_TRUE(g1.is_independent(cls));
  }

  // Refinement invariant: at insertion time (non-increasing length order),
  // every link's outgoing interference onto its already-inserted classmates
  // is below the threshold. Note the direction matters for equal lengths:
  // only earlier-processed classmates count.
  std::vector<std::size_t> position(tree.links.size());
  {
    const auto order = tree.links.by_decreasing_length();
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      position[order[rank]] = rank;
    }
  }
  for (const auto& cls : refinement.classes()) {
    for (const std::size_t i : cls) {
      std::vector<std::size_t> earlier;
      for (const std::size_t j : cls) {
        if (j != i && position[j] < position[i]) earlier.push_back(j);
      }
      EXPECT_LT(sinr::outgoing_interference(tree.links, i, earlier, 3.0), 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, RefinementOnFamilies,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1ULL, 5ULL, 9ULL)));

TEST(Refinement, ClassOfLinkConsistent) {
  const auto pts = instance::uniform_square(60, 6.0, 2);
  const auto tree = mst::mst_tree(pts, 0);
  const auto r = firstfit_refinement(tree.links, 3.0);
  ASSERT_EQ(r.class_of_link.size(), tree.links.size());
  const auto classes = r.classes();
  for (std::size_t k = 0; k < classes.size(); ++k) {
    for (const std::size_t i : classes[k]) {
      EXPECT_EQ(r.class_of_link[i], static_cast<int>(k));
    }
  }
}

TEST(Refinement, Validation) {
  const auto pts = instance::unit_chain(4);
  const auto tree = mst::mst_tree(pts, 0);
  EXPECT_THROW(firstfit_refinement(tree.links, 0.0), std::invalid_argument);
  EXPECT_THROW(firstfit_refinement(tree.links, 3.0, 0.0),
               std::invalid_argument);
}

TEST(Refinement, LooserThresholdNeverMoreClasses) {
  const auto pts = instance::uniform_square(150, 8.0, 4);
  const auto tree = mst::mst_tree(pts, 0);
  const auto tight = firstfit_refinement(tree.links, 3.0, 0.5);
  const auto loose = firstfit_refinement(tree.links, 3.0, 2.0);
  EXPECT_LE(loose.num_classes, tight.num_classes);
}

}  // namespace
}  // namespace wagg::coloring
