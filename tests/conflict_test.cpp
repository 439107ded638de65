#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "conflict/conflict_index.h"
#include "conflict/fgraph.h"
#include "conflict/graph.h"
#include "geom/link_store.h"
#include "geom/linkset.h"
#include "instance/basic.h"
#include "instance/lowerbound.h"
#include "mst/tree.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace wagg::conflict {
namespace {

/// A ConflictIndex mirroring `links` (identity ids 0..n-1), as the planner
/// would have maintained it.
ConflictIndex index_of(const geom::LinkView& links) {
  ConflictIndex index;
  for (std::size_t i = 0; i < links.size(); ++i) {
    index.add(static_cast<geom::LinkId>(i), links.sender_pos(i),
              links.receiver_pos(i), links.length(i));
  }
  return index;
}

/// The from-scratch graph: a transient index's one-sided pair walk.
Graph scratch_graph(const geom::LinkView& links, const ConflictSpec& spec) {
  return ConflictIndex::of(links).build_graph(links, spec);
}

/// From-scratch rows: a transient index's two-sided row walk, uncached.
std::vector<std::vector<std::int32_t>> scratch_rows(
    const geom::LinkView& links, const ConflictSpec& spec,
    std::span<const std::size_t> queries) {
  return ConflictIndex::of(links).neighbors(links, spec, queries);
}

/// Asserts that the brute-force O(n^2) graph, the from-scratch build, the
/// from-scratch row walk, and the persistent index all agree on every row.
void expect_all_builders_agree(const geom::LinkView& links,
                               const ConflictSpec& spec) {
  const auto brute = build_conflict_graph(links, spec);
  const auto bucketed = scratch_graph(links, spec);
  std::vector<std::size_t> all(links.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto rows = scratch_rows(links, spec, all);
  const auto index = index_of(links);
  const auto index_rows = index.neighbors(links, spec, all);
  const auto index_graph = index.build_graph(links, spec);

  ASSERT_EQ(brute.num_vertices(), bucketed.num_vertices()) << spec.name();
  EXPECT_EQ(brute.num_edges(), bucketed.num_edges()) << spec.name();
  EXPECT_EQ(brute.num_edges(), index_graph.num_edges()) << spec.name();
  for (std::size_t u = 0; u < links.size(); ++u) {
    const auto expected = brute.neighbors(u);
    ASSERT_EQ(rows[u].size(), expected.size())
        << spec.name() << " query row " << u;
    ASSERT_EQ(index_rows[u].size(), expected.size())
        << spec.name() << " index row " << u;
    for (std::size_t a = 0; a < expected.size(); ++a) {
      EXPECT_EQ(rows[u][a], expected[a]) << spec.name() << " row " << u;
      EXPECT_EQ(index_rows[u][a], expected[a])
          << spec.name() << " index row " << u;
      EXPECT_TRUE(bucketed.has_edge(u, static_cast<std::size_t>(expected[a])))
          << spec.name();
    }
  }
}

TEST(Graph, EdgeBasics) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 2);  // duplicate collapses
  g.finalize();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, IndependenceCheck) {
  Graph g(4);
  g.add_edge(0, 1);
  g.finalize();
  const std::vector<std::size_t> indep{0, 2, 3};
  const std::vector<std::size_t> dep{0, 1};
  EXPECT_TRUE(g.is_independent(indep));
  EXPECT_FALSE(g.is_independent(dep));
}

TEST(Graph, Validation) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
  g.add_edge(0, 1);
  EXPECT_THROW((void)g.has_edge(0, 1), std::logic_error);  // not finalized
}

TEST(Spec, ThresholdFunctions) {
  const auto c = ConflictSpec::constant(2.0);
  EXPECT_DOUBLE_EQ(c.f(1.0), 2.0);
  EXPECT_DOUBLE_EQ(c.f(100.0), 2.0);

  const auto p = ConflictSpec::power_law(1.5, 0.5);
  EXPECT_DOUBLE_EQ(p.f(4.0), 3.0);

  // alpha = 4 -> exponent 2/(alpha-2) = 1: f = gamma * max(1, log2 x).
  const auto l = ConflictSpec::logarithmic(1.0, 4.0);
  EXPECT_DOUBLE_EQ(l.f(2.0), 1.0);
  EXPECT_DOUBLE_EQ(l.f(16.0), 4.0);
  // alpha = 3 -> exponent 2: f = gamma * log2^2 x.
  const auto l3 = ConflictSpec::logarithmic(1.0, 3.0);
  EXPECT_DOUBLE_EQ(l3.f(16.0), 16.0);
}

TEST(Spec, Validation) {
  EXPECT_THROW(ConflictSpec::constant(0.0), std::invalid_argument);
  EXPECT_THROW(ConflictSpec::power_law(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ConflictSpec::logarithmic(1.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)ConflictSpec::constant(1.0).f(0.5),
               std::invalid_argument);
}

TEST(Spec, ConflictPredicateMatchesDefinition) {
  // Two unit links at distance d conflict under G_gamma iff d <= gamma.
  auto make = [](double d) {
    geom::Pointset pts{{0, 0}, {0, 1}, {d, 0}, {d, 1}};
    return geom::LinkSet(pts, {geom::Link{0, 1}, geom::Link{2, 3}});
  };
  const auto spec = ConflictSpec::constant(1.0);
  EXPECT_TRUE(spec.conflicting(make(0.99), 0, 1));
  EXPECT_TRUE(spec.conflicting(make(1.0), 0, 1));  // boundary: d <= f
  EXPECT_FALSE(spec.conflicting(make(1.01), 0, 1));
  EXPECT_FALSE(spec.conflicting(make(1.0), 0, 0));  // i == j never conflicts
}

TEST(Spec, SharedNodeAlwaysConflicts) {
  geom::Pointset pts{{0, 0}, {1, 0}, {100, 0}};
  const geom::LinkSet ls(pts, {geom::Link{0, 1}, geom::Link{1, 2}});
  for (const auto& spec :
       {ConflictSpec::constant(0.5), ConflictSpec::power_law(0.5, 0.3),
        ConflictSpec::logarithmic(0.5, 3.0)}) {
    EXPECT_TRUE(spec.conflicting(ls, 0, 1)) << spec.name();
  }
}

TEST(Spec, ConstantEdgesAreSubsetOfPowerLawEdges) {
  // With equal gamma, f_const(x) <= f_powerlaw(x) for x >= 1, so G_gamma's
  // edge set is contained in G^delta_gamma's.
  const auto pts = instance::uniform_square(80, 6.0, 21);
  const auto tree = mst::mst_tree(pts, 0);
  const auto g_const =
      build_conflict_graph(tree.links, ConflictSpec::constant(1.0));
  const auto g_pow =
      build_conflict_graph(tree.links, ConflictSpec::power_law(1.0, 0.5));
  for (std::size_t u = 0; u < tree.links.size(); ++u) {
    for (const auto v : g_const.neighbors(u)) {
      EXPECT_TRUE(g_pow.has_edge(u, static_cast<std::size_t>(v)));
    }
  }
  EXPECT_GE(g_pow.num_edges(), g_const.num_edges());
}

TEST(Builder, NaiveMatchesBruteForcePredicate) {
  const auto pts = instance::uniform_square(40, 4.0, 3);
  const auto tree = mst::mst_tree(pts, 0);
  const auto spec = ConflictSpec::power_law(1.2, 0.6);
  const auto g = build_conflict_graph(tree.links, spec);
  for (std::size_t i = 0; i < tree.links.size(); ++i) {
    for (std::size_t j = i + 1; j < tree.links.size(); ++j) {
      EXPECT_EQ(g.has_edge(i, j), spec.conflicting(tree.links, i, j));
    }
  }
}

class IndexEqualsNaive
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(IndexEqualsNaive, OnSeveralFamiliesAndSpecs) {
  const auto [family, seed] = GetParam();
  geom::Pointset pts;
  switch (family) {
    case 0:
      pts = instance::uniform_square(120, 8.0, seed);
      break;
    case 1:
      pts = instance::clustered(6, 20, 60.0, 0.4, seed);
      break;
    case 2:
      pts = instance::exponential_chain(16, 1.6);
      break;
    case 3:
      pts = instance::grid(10, 12, 1.0);
      break;
    default:
      FAIL();
  }
  const auto tree = mst::mst_tree(pts, 0);
  for (const auto& spec :
       {ConflictSpec::constant(1.0), ConflictSpec::constant(3.0),
        ConflictSpec::power_law(1.0, 0.5),
        ConflictSpec::logarithmic(1.0, 3.0)}) {
    const auto naive = build_conflict_graph(tree.links, spec);
    const auto bucketed = scratch_graph(tree.links, spec);
    ASSERT_EQ(naive.num_vertices(), bucketed.num_vertices());
    EXPECT_EQ(naive.num_edges(), bucketed.num_edges()) << spec.name();
    for (std::size_t u = 0; u < naive.num_vertices(); ++u) {
      for (const auto v : naive.neighbors(u)) {
        EXPECT_TRUE(bucketed.has_edge(u, static_cast<std::size_t>(v)))
            << spec.name() << " missing edge " << u << "-" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, IndexEqualsNaive,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1ULL, 7ULL, 13ULL)));

TEST(SubsetQuery, RowsMatchFullGraphAcrossSpecs) {
  // A from-scratch index's row walk must return exactly the full graph's
  // rows for any query subset.
  const auto pts = instance::uniform_square(90, 7.0, 5);
  const auto tree = mst::mst_tree(pts, 0);
  std::vector<std::size_t> queries;
  for (std::size_t i = 0; i < tree.links.size(); i += 3) queries.push_back(i);
  for (const auto& spec :
       {ConflictSpec::constant(2.0), ConflictSpec::power_law(1.0, 0.6),
        ConflictSpec::logarithmic(2.0, 3.0)}) {
    const auto full = build_conflict_graph(tree.links, spec);
    const auto rows = scratch_rows(tree.links, spec, queries);
    ASSERT_EQ(rows.size(), queries.size());
    for (std::size_t k = 0; k < queries.size(); ++k) {
      const auto expected = full.neighbors(queries[k]);
      ASSERT_EQ(rows[k].size(), expected.size())
          << spec.name() << " row " << queries[k];
      for (std::size_t a = 0; a < expected.size(); ++a) {
        EXPECT_EQ(rows[k][a], expected[a])
            << spec.name() << " row " << queries[k];
      }
    }
  }
}

TEST(SubsetQuery, EmptyAndDegenerate) {
  const auto pts = instance::uniform_square(10, 3.0, 2);
  const auto tree = mst::mst_tree(pts, 0);
  const auto spec = ConflictSpec::constant(1.0);
  EXPECT_TRUE(scratch_rows(tree.links, spec, {}).empty());
  const geom::LinkSet empty;
  const std::vector<std::size_t> none;
  EXPECT_TRUE(scratch_rows(empty, spec, none).empty());
}

TEST(Builder, ExtremeScalesDoNotOverflow) {
  // Doubly-exponential chain: lengths spanning hundreds of orders of
  // magnitude must not break the predicate or the builders.
  const auto chain = instance::doubly_exponential_chain(8, 0.5, 3.0, 1.0);
  const auto tree = mst::mst_tree(chain.points, 0);
  for (const auto& spec :
       {ConflictSpec::constant(1.0), ConflictSpec::power_law(1.0, 0.5),
        ConflictSpec::logarithmic(1.0, 3.0)}) {
    const auto g = build_conflict_graph(tree.links, spec);
    EXPECT_EQ(g.num_vertices(), tree.links.size());
    const auto gb = scratch_graph(tree.links, spec);
    EXPECT_EQ(g.num_edges(), gb.num_edges()) << spec.name();
  }
}

/// Regression for the exact-boundary tie guard: construct pairs whose
/// distance equals the conflict threshold lmin * f(lmax / lmin) EXACTLY (in
/// double arithmetic) and require graph membership to agree across the
/// brute-force predicate, the bucketed builder, the subset query, and the
/// persistent index. Before the guards were unified the builder padded its
/// candidate radius with 1e-12 * l_longer while the query padded with
/// 1e-12 * max(l_query, class_hi): a threshold pair could land in one
/// candidate set but not the other, making the built graph disagree with
/// the queried rows.
TEST(Boundary, ExactThresholdPairsAgreeEverywhere) {
  struct Case {
    ConflictSpec spec;
    geom::Pointset points;
    std::vector<geom::Link> links;
  };
  const std::vector<Case> cases = {
      // G_gamma, gamma = 1: unit links at horizontal distance exactly 1.
      {ConflictSpec::constant(1.0),
       {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {5, 0}, {5, 1}},
       {{0, 1}, {2, 3}, {4, 5}}},
      // Huge gamma: the conflict radius is ~1e6x the link scale, so any
      // absolute tie slack vanishes below one ulp of the radius — the
      // distance-pruned index path needs relative slack to keep the
      // threshold pair.
      {ConflictSpec::constant(1048576.0),
       {{0, 0}, {0, 1}, {1048576, 0}, {1048576, 1}, {9000000, 0},
        {9000000, 1}},
       {{0, 1}, {2, 3}, {4, 5}}},
      // G^delta, gamma = 1, delta = 0.5: lengths 1 and 4, threshold
      // 1 * f(4) = sqrt(4) = 2, distance exactly 2.
      {ConflictSpec::power_law(1.0, 0.5),
       {{0, 0}, {0, 1}, {2, 0}, {2, 4}, {16, 0}, {16, 4}},
       {{0, 1}, {2, 3}, {4, 5}}},
      // G_log, gamma = 1, alpha = 4: f(x) = max(1, log2 x), lengths 1 and
      // 4, threshold 1 * f(4) = 2, distance exactly 2.
      {ConflictSpec::logarithmic(1.0, 4.0),
       {{0, 0}, {0, 1}, {2, 0}, {2, 4}, {32, 0}, {32, 4}},
       {{0, 1}, {2, 3}, {4, 5}}},
  };
  for (const auto& c : cases) {
    const geom::LinkSet links(c.points, c.links);
    // The constructed boundary pair must actually sit on the threshold.
    ASSERT_TRUE(c.spec.conflicting(links, 0, 1)) << c.spec.name();
    expect_all_builders_agree(links, c.spec);
  }
}

/// Mirrors planner wiring: a LinkStore with an attached listener keeps a
/// ConflictIndex in sync through adds, removes, endpoint moves (set_length +
/// touch), and flips; after every step the index must answer every row
/// exactly like a from-scratch bucketed query and the brute-force graph.
class StoreIndexBridge final : public geom::LinkStoreListener {
 public:
  StoreIndexBridge(const geom::Pointset& points, const geom::LinkStore& store,
                   ConflictIndex& index)
      : points_(points), store_(store), index_(index) {}

  void on_add(geom::LinkId id) override {
    index_.add(id, points_[static_cast<std::size_t>(store_.sender(id))],
               points_[static_cast<std::size_t>(store_.receiver(id))],
               store_.length(id));
  }
  void on_remove(geom::LinkId id) override { index_.remove(id); }
  void on_flip(geom::LinkId) override {}
  void on_set_length(geom::LinkId id) override {
    index_.update(id, points_[static_cast<std::size_t>(store_.sender(id))],
                  points_[static_cast<std::size_t>(store_.receiver(id))],
                  store_.length(id));
  }
  void on_touch(geom::LinkId id) override { on_set_length(id); }

 private:
  const geom::Pointset& points_;
  const geom::LinkStore& store_;
  ConflictIndex& index_;
};

TEST(ConflictIndex, RandomizedChurnMatchesFromScratch) {
  util::Rng rng(2024);
  geom::Pointset points;
  for (int i = 0; i < 28; ++i) {
    points.push_back({rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
  }
  geom::LinkStore store;
  ConflictIndex index;
  StoreIndexBridge bridge(points, store, index);
  store.set_listener(&bridge);

  std::vector<std::int32_t> node_index(points.size());
  std::iota(node_index.begin(), node_index.end(), 0);
  const auto specs = {ConflictSpec::constant(2.0),
                      ConflictSpec::power_law(1.0, 0.6),
                      ConflictSpec::logarithmic(2.0, 3.0)};

  const auto random_node = [&] {
    return static_cast<std::int32_t>(rng.below(points.size()));
  };
  // Seed some links, then churn: add / remove / move with equal odds.
  for (int step = 0; step < 120; ++step) {
    const int op = step < 24 ? 0 : static_cast<int>(rng.below(3));
    if (op == 0) {
      const auto a = random_node();
      const auto b = random_node();
      if (a != b && store.find_pair(a, b) == geom::kNoLink) {
        store.add(a, b,
                  geom::distance(points[static_cast<std::size_t>(a)],
                                 points[static_cast<std::size_t>(b)]));
      }
    } else if (op == 1 && store.num_live() > 4) {
      const auto ids = store.live_ids();
      store.remove(ids[rng.below(ids.size())]);
    } else if (op == 2) {
      // Move a node: refresh every incident link the way the planner does
      // (length column + unconditional touch).
      const auto v = random_node();
      auto& p = points[static_cast<std::size_t>(v)];
      p = {p.x + rng.normal() * 0.7, p.y + rng.normal() * 0.7};
      for (const auto id : store.live_ids()) {
        if (store.sender(id) != v && store.receiver(id) != v) continue;
        store.set_length(
            id, geom::distance(
                    points[static_cast<std::size_t>(store.sender(id))],
                    points[static_cast<std::size_t>(store.receiver(id))]));
        store.touch(id);
      }
    }
    if (step % 2 == 1 && rng.below(2) == 0 && store.num_live() > 0) {
      // Orientation flips must be index no-ops.
      const auto ids = store.live_ids();
      store.flip(ids[rng.below(ids.size())]);
    }

    ASSERT_EQ(index.size(), store.num_live()) << "step " << step;
    if (step % 4 != 3) continue;
    const auto view = store.snapshot(points, node_index);
    std::vector<std::size_t> all(view.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    for (const auto& spec : specs) {
      const auto index_rows = index.neighbors(view, spec, all);
      const auto from_scratch = scratch_rows(view, spec, all);
      EXPECT_EQ(index_rows, from_scratch)
          << spec.name() << " step " << step;
      const auto brute = build_conflict_graph(view, spec);
      for (std::size_t u = 0; u < view.size(); ++u) {
        const auto expected = brute.neighbors(u);
        ASSERT_EQ(index_rows[u].size(), expected.size())
            << spec.name() << " step " << step << " row " << u;
        for (std::size_t a = 0; a < expected.size(); ++a) {
          EXPECT_EQ(index_rows[u][a], expected[a])
              << spec.name() << " step " << step << " row " << u;
        }
      }
    }
  }
  store.set_listener(nullptr);
}

TEST(ConflictIndex, FromScratchBuildStaysOutputSensitive) {
  // Distinct links reaching the exact predicate per row entry (two entries
  // per edge) of a from-scratch build over the n=2048 MST. Each bound is
  // half the figure the per-class grid walk this build replaced scored by
  // the same count (it walked every row in full, behind a per-class-radius
  // prune): uniform 1.198 / 1.977 / 2.458, cluster 1.156 / 1.308 / 1.340,
  // annulus 1.185 / 1.924 / 2.321 for the constant / power-law /
  // logarithmic specs.
  struct Pin {
    const char* family;
    std::array<double, 3> bound;
  };
  const Pin pins[] = {{"uniform", {0.599, 0.988, 1.229}},
                      {"cluster", {0.578, 0.654, 0.670}},
                      {"annulus", {0.592, 0.962, 1.160}}};
  const ConflictSpec specs[] = {ConflictSpec::constant(2.0),
                                ConflictSpec::power_law(2.0, 0.75),
                                ConflictSpec::logarithmic(2.0, 3.0)};
  for (const auto& pin : pins) {
    const auto tree =
        mst::mst_tree(workload::make_family(pin.family, 2048, 3), 0);
    const auto& links = tree.links;
    for (std::size_t s = 0; s < 3; ++s) {
      const auto index = ConflictIndex::of(links);
      const auto graph = index.build_graph(links, specs[s]);
      const auto brute = build_conflict_graph(links, specs[s]);
      ASSERT_EQ(graph.num_edges(), brute.num_edges()) << pin.family;
      for (std::size_t u = 0; u < links.size(); ++u) {
        ASSERT_TRUE(std::ranges::equal(graph.neighbors(u), brute.neighbors(u)))
            << pin.family << " " << specs[s].name() << " row " << u;
      }
      const double per_entry =
          static_cast<double>(index.stats().candidates) /
          (2.0 * static_cast<double>(graph.num_edges()));
      EXPECT_LE(per_entry, pin.bound[s])
          << pin.family << " " << specs[s].name();
      EXPECT_GT(index.stats().cell_probes, 0u);
    }
  }
}

TEST(ConflictIndex, RejectsBadMutations) {
  ConflictIndex index;
  index.add(0, {0, 0}, {0, 1}, 1.0);
  EXPECT_THROW(index.add(0, {1, 0}, {1, 1}, 1.0), std::invalid_argument);
  EXPECT_THROW(index.add(-1, {1, 0}, {1, 1}, 1.0), std::invalid_argument);
  EXPECT_THROW(index.add(1, {1, 0}, {1, 1}, 0.0), std::invalid_argument);
  EXPECT_THROW(index.remove(7), std::invalid_argument);
  EXPECT_THROW(index.update(7, {0, 0}, {0, 1}, 1.0), std::invalid_argument);
  index.remove(0);
  EXPECT_THROW(index.remove(0), std::invalid_argument);
  EXPECT_EQ(index.size(), 0u);
}

TEST(ConflictIndex, LazyReclassOnlyWhenClassChanges) {
  ConflictIndex index;
  index.add(0, {0, 0}, {0, 1.5}, 1.5);   // class [1, 2)
  index.add(1, {3, 0}, {3, 1.2}, 1.2);   // class [1, 2)
  EXPECT_EQ(index.num_classes(), 1u);
  EXPECT_EQ(index.stats().reclasses, 0u);
  // In-class geometry refresh: no re-class.
  index.update(0, {0, 0}, {0, 1.9}, 1.9);
  EXPECT_EQ(index.stats().reclasses, 0u);
  EXPECT_EQ(index.num_classes(), 1u);
  // Crossing the power-of-two boundary moves the link to a new grid.
  index.update(0, {0, 0}, {0, 2.5}, 2.5);
  EXPECT_EQ(index.stats().reclasses, 1u);
  EXPECT_EQ(index.num_classes(), 2u);
  // Shrinking back empties and drops the [2, 4) grid.
  index.update(0, {0, 0}, {0, 1.0}, 1.0);
  EXPECT_EQ(index.stats().reclasses, 2u);
  EXPECT_EQ(index.num_classes(), 1u);
}

/// Randomized cache-equivalence harness: a single fixed spec keeps the row
/// cache live across mutation batches (the multi-spec churn test above
/// flushes on every spec rotation, so diff-patched rows there are never the
/// ones verified). Here every batch is followed by TWO full-row queries —
/// the first may mix cached (diff-patched) and recomputed rows, the second
/// is served entirely from the cache — and both must equal the from-scratch
/// bucketed rows. Moves use large jumps so lengths cross [2^c, 2^(c+1))
/// class boundaries, exercising the re-class erase/insert patch path.
TEST(ConflictIndex, RowCacheStaysExactUnderListenerChurn) {
  util::Rng rng(4096);
  geom::Pointset points;
  for (int i = 0; i < 24; ++i) {
    points.push_back({rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0)});
  }
  geom::LinkStore store;
  ConflictIndex index;
  StoreIndexBridge bridge(points, store, index);
  store.set_listener(&bridge);

  std::vector<std::int32_t> node_index(points.size());
  std::iota(node_index.begin(), node_index.end(), 0);
  const auto spec = ConflictSpec::power_law(1.0, 0.6);

  const auto random_node = [&] {
    return static_cast<std::int32_t>(rng.below(points.size()));
  };
  for (int step = 0; step < 80; ++step) {
    const int op = step < 20 ? 0 : static_cast<int>(rng.below(3));
    if (op == 0) {
      const auto a = random_node();
      const auto b = random_node();
      if (a != b && store.find_pair(a, b) == geom::kNoLink) {
        store.add(a, b,
                  geom::distance(points[static_cast<std::size_t>(a)],
                                 points[static_cast<std::size_t>(b)]));
      }
    } else if (op == 1 && store.num_live() > 4) {
      const auto ids = store.live_ids();
      store.remove(ids[rng.below(ids.size())]);
    } else if (op == 2) {
      // Large jumps: incident link lengths routinely cross power-of-two
      // class boundaries, so cached rows survive re-class updates too.
      const auto v = random_node();
      auto& p = points[static_cast<std::size_t>(v)];
      p = {p.x + rng.normal() * 2.5, p.y + rng.normal() * 2.5};
      for (const auto id : store.live_ids()) {
        if (store.sender(id) != v && store.receiver(id) != v) continue;
        store.set_length(
            id, geom::distance(
                    points[static_cast<std::size_t>(store.sender(id))],
                    points[static_cast<std::size_t>(store.receiver(id))]));
        store.touch(id);
      }
    }
    if (step % 3 == 2 && store.num_live() > 0) {
      const auto ids = store.live_ids();
      store.flip(ids[rng.below(ids.size())]);
    }

    const auto view = store.snapshot(points, node_index);
    std::vector<std::size_t> all(view.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const auto from_scratch = scratch_rows(view, spec, all);
    const auto index_rows = index.neighbors(view, spec, all);
    ASSERT_EQ(index_rows, from_scratch) << "step " << step;
    // Second query: every row served from the cache must still be exact.
    const auto cached_rows = index.neighbors(view, spec, all);
    ASSERT_EQ(cached_rows, from_scratch) << "step " << step;
    // neighbors() short-circuits (and caches nothing) below 2 live links.
    if (store.num_live() >= 2) {
      EXPECT_EQ(index.rows_cached(), store.num_live()) << "step " << step;
    }
  }
  store.set_listener(nullptr);

  // The trace must have exercised every maintenance path, and the counter
  // identity hits + misses == rows_queried must hold exactly.
  const auto stats = index.stats();
  EXPECT_GT(stats.reclasses, 0u);
  EXPECT_GT(stats.row_cache_patches, 0u);
  EXPECT_GT(stats.row_cache_hits, 0u);
  EXPECT_GT(stats.row_cache_misses, 0u);
  EXPECT_EQ(stats.row_cache_hits + stats.row_cache_misses,
            stats.rows_queried);
}

TEST(ConflictIndex, RowCacheCountersAndHitPath) {
  const geom::Pointset points = {{0, 0}, {0, 1}, {1, 0}, {1, 1},
                                 {4, 0}, {4, 1}, {5, 0}, {5, 1}};
  const geom::LinkSet links(
      points, {geom::Link{0, 1}, geom::Link{2, 3}, geom::Link{4, 5},
               geom::Link{6, 7}});
  auto index = index_of(links);
  const auto spec = ConflictSpec::constant(2.0);
  std::vector<std::size_t> all(links.size());
  std::iota(all.begin(), all.end(), std::size_t{0});

  const auto first = index.neighbors(links, spec, all);
  auto stats = index.stats();
  EXPECT_EQ(stats.row_cache_misses, links.size());
  EXPECT_EQ(stats.row_cache_hits, 0u);
  EXPECT_EQ(index.rows_cached(), links.size());

  const auto second = index.neighbors(links, spec, all);
  EXPECT_EQ(second, first);
  stats = index.stats();
  EXPECT_EQ(stats.row_cache_hits, links.size());
  EXPECT_EQ(stats.row_cache_misses, links.size());
  EXPECT_EQ(stats.row_cache_hits + stats.row_cache_misses,
            stats.rows_queried);
}

TEST(ConflictIndex, BuildGraphMixesCachedRowsAndWalks) {
  // A partly warm cache: build_graph hands over the owned partners of the
  // cached rows, walks the rest, and materializes every walked row.
  const auto tree = mst::mst_tree(workload::make_family("cluster", 300, 4), 0);
  const auto& links = tree.links;
  for (const auto& spec :
       {ConflictSpec::constant(1.5), ConflictSpec::power_law(1.0, 0.5),
        ConflictSpec::logarithmic(2.0, 3.0)}) {
    auto index = index_of(links);
    std::vector<std::size_t> warm;
    for (std::size_t i = 0; i < links.size(); i += 3) warm.push_back(i);
    (void)index.neighbors(links, spec, warm);
    const auto before = index.stats();

    const auto graph = index.build_graph(links, spec);
    const auto brute = build_conflict_graph(links, spec);
    ASSERT_EQ(graph.num_edges(), brute.num_edges()) << spec.name();
    for (std::size_t u = 0; u < links.size(); ++u) {
      const auto got = graph.neighbors(u);
      const auto want = brute.neighbors(u);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end()))
          << spec.name() << " row " << u;
    }
    const auto after = index.stats();
    EXPECT_EQ(after.row_cache_hits - before.row_cache_hits, warm.size());
    EXPECT_EQ(after.row_cache_misses - before.row_cache_misses,
              links.size() - warm.size());
    EXPECT_EQ(index.rows_cached(), links.size());
  }
}

TEST(ConflictIndex, SpecChangeFlushesCachedRows) {
  const auto tree = mst::mst_tree(instance::uniform_square(24, 6.0, 11), 0);
  const auto& links = tree.links;
  auto index = index_of(links);
  std::vector<std::size_t> all(links.size());
  std::iota(all.begin(), all.end(), std::size_t{0});

  const auto spec_a = ConflictSpec::constant(2.0);
  const auto spec_b = ConflictSpec::power_law(1.0, 0.5);
  (void)index.neighbors(links, spec_a, all);
  ASSERT_EQ(index.rows_cached(), links.size());

  // A different spec must flush every cached row, then answer exactly.
  const auto rows_b = index.neighbors(links, spec_b, all);
  EXPECT_EQ(rows_b, scratch_rows(links, spec_b, all));
  const auto stats = index.stats();
  EXPECT_GE(stats.row_cache_invalidations, links.size());
  // Every row under spec_b was a miss (nothing cached for it survived).
  EXPECT_EQ(stats.row_cache_misses, 2 * links.size());
}

/// A tiny entry cap forces LRU sweeps mid-run; evicted rows recompute on
/// the next query, so answers stay exact. Cap 0 disables caching entirely.
TEST(ConflictIndex, EvictionCapKeepsRowsExactAndCapZeroDisables) {
  const auto tree = mst::mst_tree(instance::uniform_square(40, 4.0, 23), 0);
  const auto& links = tree.links;
  auto index = index_of(links);
  const auto spec = ConflictSpec::constant(2.0);
  std::vector<std::size_t> all(links.size());
  std::iota(all.begin(), all.end(), std::size_t{0});

  const auto scratch = scratch_rows(links, spec, all);
  index.set_row_cache_entry_cap(8);  // far below the total row mass
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(index.neighbors(links, spec, all), scratch) << pass;
  }
  EXPECT_GT(index.stats().row_cache_evictions, 0u);

  index.set_row_cache_entry_cap(0);
  EXPECT_EQ(index.rows_cached(), 0u);
  EXPECT_EQ(index.neighbors(links, spec, all), scratch);
  EXPECT_EQ(index.rows_cached(), 0u);  // cap 0: nothing materializes
}

/// clear() (the reconcile_full path) must drop every cached row: a re-seed
/// with different geometry under the same ids would otherwise serve stale
/// rows from before the wipe.
TEST(ConflictIndex, ClearDropsCachedRowsBeforeReseed) {
  const geom::Pointset before = {{0, 0}, {0, 1}, {0.5, 0}, {0.5, 1}};
  const geom::LinkSet links_before(before,
                                   {geom::Link{0, 1}, geom::Link{2, 3}});
  auto index = index_of(links_before);
  const auto spec = ConflictSpec::constant(1.0);
  std::vector<std::size_t> all = {0, 1};
  // Warm the cache: the two parallel unit links conflict.
  ASSERT_EQ(index.neighbors(links_before, spec, all),
            scratch_rows(links_before, spec, all));
  ASSERT_EQ(index.rows_cached(), 2u);

  index.clear();
  EXPECT_EQ(index.rows_cached(), 0u);
  EXPECT_GE(index.stats().row_cache_invalidations, 2u);

  // Re-seed same ids, far-apart geometry: rows must reflect the new world.
  const geom::Pointset after = {{0, 0}, {0, 1}, {50, 0}, {50, 1}};
  const geom::LinkSet links_after(after,
                                  {geom::Link{0, 1}, geom::Link{2, 3}});
  for (std::size_t i = 0; i < links_after.size(); ++i) {
    index.add(static_cast<geom::LinkId>(i), links_after.sender_pos(i),
              links_after.receiver_pos(i), links_after.length(i));
  }
  const auto rows = index.neighbors(links_after, spec, all);
  EXPECT_EQ(rows, scratch_rows(links_after, spec, all));
  EXPECT_TRUE(rows[0].empty());
  EXPECT_TRUE(rows[1].empty());
}

/// Huge-extent instance: cell coordinates exceed 32 bits, where the old
/// `(x << 32) ^ (y & 0xffffffff)` cell key silently aliased distant cells
/// onto one bucket. Results must stay exact (aliasing only ever inflated
/// candidate lists, so this doubles as a determinism check on the new
/// full-width key mix).
TEST(Builder, HugeExtentCoordinatesStayExact) {
  geom::Pointset points;
  std::vector<geom::Link> link_specs;
  // Four far-separated clusters of two parallel unit links (cell size ~1 ->
  // cluster offsets of 2^33 and 3 * 2^32 put cell coords far past 32 bits).
  const double offsets[] = {0.0, 8589934592.0, 12884901888.0, 25769803776.0};
  for (const double ox : offsets) {
    const auto base = static_cast<std::int32_t>(points.size());
    points.push_back({ox, 0.0});
    points.push_back({ox, 1.0});
    points.push_back({ox + 0.5, 0.0});
    points.push_back({ox + 0.5, 1.0});
    link_specs.push_back({base, base + 1});
    link_specs.push_back({base + 2, base + 3});
  }
  const geom::LinkSet links(points, link_specs);
  for (const auto& spec :
       {ConflictSpec::constant(1.0), ConflictSpec::power_law(1.0, 0.5),
        ConflictSpec::logarithmic(1.0, 3.0)}) {
    expect_all_builders_agree(links, spec);
    // Each cluster's pair conflicts; clusters are light-years apart.
    const auto g = scratch_graph(links, spec);
    EXPECT_EQ(g.num_edges(), 4u) << spec.name();
  }
}

TEST(Builder, NearOverflowLengthsStayExact) {
  // Lengths near the top of the double range: the longest link sits in
  // class 1023 (its class_hi overflows to +inf) and its walk into class
  // 1021 asks for a cell past 2^1023. Every builder must still agree with
  // the brute-force oracle.
  const geom::Pointset points{
      {-7e307, 0.0},  {7e307, 0.0},      // class 1023
      {-7e307, 1e307}, {7e307, 1e307},   // class 1023, parallel
      {7e307, 1e307},  {7e307, 4e307},   // class 1021, shares a node
      {6e307, -1e307}, {6e307, -4e307},  // class 1021
      {1.0, 2e307},    {2.0, 2e307},     // class 0
      {1.0, -5e306},   {1.5, -5e306},    // class -1
  };
  const geom::LinkSet links(points, {geom::Link{0, 1}, geom::Link{2, 3},
                                     geom::Link{4, 5}, geom::Link{6, 7},
                                     geom::Link{8, 9}, geom::Link{10, 11}});
  for (const auto& spec :
       {ConflictSpec::constant(1.0), ConflictSpec::power_law(1.0, 0.5),
        ConflictSpec::logarithmic(1.0, 3.0)}) {
    expect_all_builders_agree(links, spec);
  }
}

TEST(Builder, EmptyAndSingle) {
  geom::Pointset pts{{0, 0}, {1, 0}};
  const geom::LinkSet single(pts, {geom::Link{0, 1}});
  const auto spec = ConflictSpec::constant(1.0);
  EXPECT_EQ(scratch_graph(single, spec).num_edges(), 0u);
  const geom::LinkSet empty(pts, {});
  EXPECT_EQ(scratch_graph(empty, spec).num_vertices(), 0u);
}

}  // namespace
}  // namespace wagg::conflict
