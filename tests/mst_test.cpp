#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "geom/point.h"
#include "instance/basic.h"
#include "instance/extended.h"
#include "mst/dtree.h"
#include "mst/mst.h"
#include "mst/point_grid.h"
#include "mst/tree.h"
#include "prim_reference.h"
#include "util/rng.h"

namespace wagg::mst {
namespace {

TEST(UnionFind, MergesAndCounts) {
  UnionFind uf(4);
  EXPECT_EQ(uf.num_components(), 4u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_EQ(uf.num_components(), 2u);
  EXPECT_TRUE(uf.unite(0, 3));
  EXPECT_EQ(uf.find(1), uf.find(2));
  EXPECT_EQ(uf.num_components(), 1u);
}

TEST(Mst, TwoPoints) {
  const geom::Pointset pts{{0, 0}, {1, 1}};
  const auto edges = euclidean_mst(pts);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(is_spanning_tree(2, edges));
}

TEST(Mst, MatchesKruskalWeightOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto pts = instance::uniform_square(60, 10.0, seed);
    const auto prim = euclidean_mst(pts);
    const auto kruskal = kruskal_mst(pts);
    EXPECT_TRUE(is_spanning_tree(pts.size(), prim));
    EXPECT_TRUE(is_spanning_tree(pts.size(), kruskal));
    EXPECT_NEAR(total_weight(pts, prim), total_weight(pts, kruskal), 1e-9)
        << "seed " << seed;
  }
}

TEST(Mst, LineMstIsAdjacentPairs) {
  const auto pts = geom::line_pointset({5.0, 1.0, 3.0, 0.0});
  const auto edges = line_mst(pts);
  ASSERT_EQ(edges.size(), 3u);
  // Edges connect sorted neighbours: (3,1), (1,2), (2,0) by index.
  const auto weight = total_weight(pts, edges);
  EXPECT_DOUBLE_EQ(weight, 5.0);
  EXPECT_TRUE(is_spanning_tree(4, edges));
}

TEST(Mst, LineMstMatchesEuclideanOnLine) {
  const auto pts = instance::exponential_chain(12, 1.7);
  EXPECT_NEAR(total_weight(pts, line_mst(pts)),
              total_weight(pts, euclidean_mst(pts)), 1e-9);
}

TEST(Mst, LineMstRejectsPlanarInput) {
  EXPECT_THROW(line_mst({{0, 0}, {1, 1}}), std::invalid_argument);
}

TEST(Mst, GridMstWeightIsMinimal) {
  // 3x3 unit grid: MST weight = 8 (all unit edges).
  const auto pts = instance::grid(3, 3, 1.0);
  EXPECT_NEAR(total_weight(pts, euclidean_mst(pts)), 8.0, 1e-12);
}

TEST(Mst, KFoldProducesMoreEdges) {
  const auto pts = instance::uniform_square(30, 10.0, 5);
  const auto one = k_fold_mst(pts, 1);
  const auto two = k_fold_mst(pts, 2);
  EXPECT_EQ(one.size(), pts.size() - 1);
  EXPECT_EQ(two.size(), 2 * (pts.size() - 1));
  // Rounds are edge-disjoint.
  std::set<std::pair<int, int>> seen;
  for (const auto& e : two) {
    const auto key = std::minmax(e.u, e.v);
    EXPECT_TRUE(seen.emplace(key.first, key.second).second);
  }
  // First round equals the plain MST weight.
  EXPECT_NEAR(total_weight(pts, one),
              total_weight(pts, kruskal_mst(pts)), 1e-9);
}

TEST(Mst, IsSpanningTreeRejectsCyclesAndForests) {
  EXPECT_FALSE(is_spanning_tree(3, std::vector<Edge>{{0, 1}, {0, 1}}));  // dup
  EXPECT_FALSE(is_spanning_tree(4, std::vector<Edge>{{0, 1}, {2, 3}}));  // cnt
  std::vector<Edge> cycle{{0, 1}, {1, 2}, {2, 0}};
  EXPECT_FALSE(is_spanning_tree(4, cycle));
  std::vector<Edge> tree{{0, 1}, {1, 2}, {2, 3}};
  EXPECT_TRUE(is_spanning_tree(4, tree));
}

TEST(Mst, Validation) {
  EXPECT_THROW(euclidean_mst({{0, 0}}), std::invalid_argument);
  EXPECT_THROW(k_fold_mst({{0, 0}, {1, 0}}, 0), std::invalid_argument);
}

/// Family f of the differential tests at exactly n points: 0 uniform,
/// 1 clustered, 2 annulus, 3 exponential chain (its base shrinks with n so
/// the last coordinate stays finite).
geom::Pointset family_points(int family, std::size_t n, std::uint64_t seed) {
  const double side = std::sqrt(static_cast<double>(n));
  geom::Pointset pts;
  switch (family) {
    case 0:
      pts = instance::uniform_square(n, side, seed);
      break;
    case 1:
      pts = instance::clustered(n / 16 + 1, 16, 4.0 * side, 0.1, seed);
      break;
    case 2:
      pts = instance::annulus(n, side / 3.0, side, seed);
      break;
    default:
      pts = instance::exponential_chain(
          n, std::min(2.0, std::exp2(512.0 / static_cast<double>(n))));
      break;
  }
  pts.resize(n);
  return pts;
}

TEST(Mst, ConeStarPrimEqualsDensePrimEdgeForEdge) {
  for (int family = 0; family < 4; ++family) {
    for (const std::size_t n : {2u, 3u, 17u, 256u, 4096u}) {
      const auto pts = family_points(family, n, 5 + n);
      EXPECT_EQ(euclidean_mst(pts), testing::dense_prim(pts))
          << "family " << family << " n " << n;
    }
  }
}

TEST(Mst, ConeStarPrimSurvivesOverflowingAndUnderflowingSquares) {
  // At these scales squared distances overflow to +inf or underflow into
  // subnormals, so a search ranking by world w2 would tie every candidate.
  for (const double scale : {1e155, 1e-160}) {
    for (int family = 0; family < 4; ++family) {
      auto pts = family_points(family, 256, 3);
      if (family == 3) pts = instance::exponential_chain(256, 1.5);
      for (auto& p : pts) p = {p.x * scale, p.y * scale};
      if (scale > 1.0) {
        ASSERT_TRUE(std::isinf(geom::squared_distance(pts[0], pts[255])));
      } else {
        ASSERT_LT(geom::squared_distance(pts[0], pts[1]),
                  std::numeric_limits<double>::min());
      }
      EXPECT_EQ(euclidean_mst(pts), testing::dense_prim(pts))
          << "scale " << scale << " family " << family;
    }
  }
}

TEST(Mst, ConeStarPrimOnCollinearPoints) {
  util::Rng rng(31);
  geom::Pointset horizontal, vertical, diagonal;
  for (int i = 0; i < 300; ++i) {
    const double t = rng.uniform(-50.0, 50.0);
    horizontal.push_back({t, 0.0});
    vertical.push_back({2.0, t});
    diagonal.push_back({t, 0.5 * t + 1.0});
  }
  for (const auto* pts : {&horizontal, &vertical, &diagonal}) {
    EXPECT_EQ(euclidean_mst(*pts), testing::dense_prim(*pts));
  }
  EXPECT_NEAR(total_weight(horizontal, euclidean_mst(horizontal)),
              total_weight(horizontal, line_mst(horizontal)), 1e-9);
}

TEST(Mst, ConeStarPrimOnTieHeavyInputs) {
  // Lattices and coincident points tie many distances: the tree may differ
  // from dense Prim's, but it must span and weigh the same.
  const auto lattice = instance::grid(23, 17, 1.0);
  geom::Pointset stacked;
  for (const auto& p : instance::grid(6, 6, 2.0)) {
    for (int copy = 0; copy < 3; ++copy) stacked.push_back(p);
  }
  const geom::Pointset all_same(40, geom::Point{3.0, -1.0});
  for (const geom::Pointset* pts :
       std::array<const geom::Pointset*, 3>{&lattice, &stacked, &all_same}) {
    const auto edges = euclidean_mst(*pts);
    EXPECT_TRUE(is_spanning_tree(pts->size(), edges));
    const double want = total_weight(*pts, testing::dense_prim(*pts));
    EXPECT_NEAR(total_weight(*pts, edges), want, 1e-9 * std::max(1.0, want));
  }
}

TEST(Mst, KFoldFirstRoundIsKruskal) {
  const auto pts = instance::uniform_square(80, 9.0, 4);
  const auto one = k_fold_mst(pts, 1);
  EXPECT_EQ(one, kruskal_mst(pts));
  auto sorted = [](std::vector<Edge> edges) {
    for (auto& e : edges) e = {std::min(e.u, e.v), std::max(e.u, e.v)};
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return std::tie(a.u, a.v) < std::tie(b.u, b.v);
    });
    return edges;
  };
  EXPECT_EQ(sorted(one), sorted(euclidean_mst(pts)));
}

TEST(Mst, RejectsNonFiniteCoordinates) {
  EXPECT_THROW(euclidean_mst({{0, 0}, {std::nan(""), 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      euclidean_mst({{0, 0}, {std::numeric_limits<double>::infinity(), 1.0}}),
      std::invalid_argument);
}

TEST(DynamicTree, BasicLinkCutPathMax) {
  DynamicTree dt;
  dt.ensure_vertices(4);
  EXPECT_FALSE(dt.connected(0, 3));
  const auto e01 = dt.link(0, 1, 4.0);
  const auto e12 = dt.link(1, 2, 9.0);
  const auto e23 = dt.link(2, 3, 1.0);
  EXPECT_EQ(dt.num_edges(), 3u);
  EXPECT_TRUE(dt.connected(0, 3));
  EXPECT_EQ(dt.path_max(0, 3), e12);
  EXPECT_EQ(dt.path_max(0, 1), e01);
  EXPECT_EQ(dt.path_max(2, 3), e23);
  dt.cut(e12);
  EXPECT_FALSE(dt.connected(0, 3));
  EXPECT_TRUE(dt.connected(0, 1));
  EXPECT_TRUE(dt.connected(2, 3));
  // Relinking across the cut reroutes the path.
  const auto e03 = dt.link(0, 3, 25.0);
  EXPECT_EQ(dt.path_max(1, 2), e03);
}

TEST(DynamicTree, PathMaxBreaksWeightTiesByEndpoints) {
  DynamicTree dt;
  dt.ensure_vertices(3);
  const auto e01 = dt.link(0, 1, 1.0);
  const auto e12 = dt.link(1, 2, 1.0);
  // Equal weights: the maximum under (w2, a, b) is the larger pair.
  EXPECT_EQ(dt.path_max(0, 2), e12);
  EXPECT_NE(dt.path_max(0, 1), e12);
  EXPECT_EQ(dt.path_max(0, 1), e01);
}

TEST(DynamicTree, RejectsCyclesSelfLoopsAndDeadHandles) {
  DynamicTree dt;
  dt.ensure_vertices(3);
  const auto e01 = dt.link(0, 1, 1.0);
  (void)dt.link(1, 2, 2.0);
  EXPECT_THROW((void)dt.link(0, 2, 3.0), std::logic_error);       // cycle
  EXPECT_THROW((void)dt.link(1, 1, 1.0), std::invalid_argument);  // loop
  EXPECT_THROW((void)dt.connected(0, 9), std::invalid_argument);
  EXPECT_THROW((void)dt.path_max(0, 0), std::invalid_argument);
  dt.cut(e01);
  EXPECT_THROW(dt.cut(e01), std::invalid_argument);  // already dead
  EXPECT_THROW((void)dt.path_max(0, 2), std::invalid_argument);  // split
}

/// The tentpole acceptance harness: randomized link/cut churn with every
/// path_max and connected answer checked against brute-force path scans
/// over an explicitly maintained edge list.
TEST(DynamicTree, RandomizedLinkCutMatchesBruteForce) {
  constexpr std::int32_t kN = 40;
  struct BruteEdge {
    std::int32_t a = -1;
    std::int32_t b = -1;
    double w2 = 0.0;
  };
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    DynamicTree dt;
    dt.ensure_vertices(kN);
    util::Rng rng(seed);
    std::map<EdgeHandle, BruteEdge> live;

    // Brute-force reference: the handle sequence of the a..b path, or
    // nullopt when disconnected (BFS over the live edge list).
    const auto brute_path =
        [&](std::int32_t from,
            std::int32_t to) -> std::optional<std::vector<EdgeHandle>> {
      std::vector<std::vector<std::pair<std::int32_t, EdgeHandle>>> adj(kN);
      for (const auto& [handle, e] : live) {
        adj[static_cast<std::size_t>(e.a)].emplace_back(e.b, handle);
        adj[static_cast<std::size_t>(e.b)].emplace_back(e.a, handle);
      }
      std::vector<std::int32_t> parent(kN, -1);
      std::vector<EdgeHandle> via(kN, kNoEdgeHandle);
      parent[static_cast<std::size_t>(from)] = from;
      std::vector<std::int32_t> frontier{from};
      for (std::size_t head = 0; head < frontier.size(); ++head) {
        const auto v = frontier[head];
        for (const auto& [w, handle] : adj[static_cast<std::size_t>(v)]) {
          if (parent[static_cast<std::size_t>(w)] >= 0) continue;
          parent[static_cast<std::size_t>(w)] = v;
          via[static_cast<std::size_t>(w)] = handle;
          frontier.push_back(w);
        }
      }
      if (parent[static_cast<std::size_t>(to)] < 0) return std::nullopt;
      std::vector<EdgeHandle> path;
      for (std::int32_t v = to; v != from;
           v = parent[static_cast<std::size_t>(v)]) {
        path.push_back(via[static_cast<std::size_t>(v)]);
      }
      return path;
    };

    for (int step = 0; step < 400; ++step) {
      // Mutate: link a random disconnected pair, else cut a random edge.
      const auto a = static_cast<std::int32_t>(rng.below(kN));
      const auto b = static_cast<std::int32_t>(rng.below(kN));
      if (a != b && !brute_path(a, b).has_value()) {
        // A 30% chance of weight 1.0 forces duplicate-weight ties through
        // the (w2, a, b) ordering.
        const double w2 = rng.chance(0.3) ? 1.0 : rng.uniform(0.0, 4.0);
        const auto handle = dt.link(a, b, w2);
        live.emplace(handle,
                     BruteEdge{std::min(a, b), std::max(a, b), w2});
      } else if (!live.empty()) {
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.below(live.size())));
        dt.cut(it->first);
        live.erase(it);
      }

      // Verify: connectivity and path_max of random probes after EVERY op.
      for (int probe = 0; probe < 6; ++probe) {
        const auto x = static_cast<std::int32_t>(rng.below(kN));
        const auto y = static_cast<std::int32_t>(rng.below(kN));
        const auto path = brute_path(x, y);
        ASSERT_EQ(dt.connected(x, y), path.has_value())
            << "seed " << seed << " step " << step;
        if (x == y || !path.has_value() || path->empty()) continue;
        std::tuple<double, std::int32_t, std::int32_t> expected{-1.0, -1,
                                                                -1};
        for (const auto handle : *path) {
          const auto& e = live.at(handle);
          expected = std::max(expected, std::tuple{e.w2, e.a, e.b});
        }
        const auto got = dt.path_max(x, y);
        EXPECT_EQ((std::tuple{dt.weight2(got), dt.edge_a(got),
                              dt.edge_b(got)}),
                  expected)
            << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(PointGrid, NearestAndConeQueriesAreExact) {
  detail::PointGrid grid;
  grid.reset(1.0);
  util::Rng rng(7);
  std::vector<geom::Point> pts;
  for (std::int32_t id = 0; id < 80; ++id) {
    pts.push_back({rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
    grid.insert(id, pts.back());
  }
  const auto none = [](std::int32_t) { return false; };
  for (int probe = 0; probe < 40; ++probe) {
    const geom::Point q{rng.uniform(-2.0, 11.0), rng.uniform(-2.0, 11.0)};
    // Brute-force nearest and per-cone nearest by (w2, id).
    detail::NearCandidate want;
    std::array<detail::NearCandidate, 6> want_cones{};
    for (std::int32_t id = 0; id < 80; ++id) {
      const double dx = pts[static_cast<std::size_t>(id)].x - q.x;
      const double dy = pts[static_cast<std::size_t>(id)].y - q.y;
      const double w2 = dx * dx + dy * dy;
      const auto cone =
          static_cast<std::size_t>(detail::PointGrid::cone_of(dx, dy));
      if (w2 < want.w2 || (w2 == want.w2 && id < want.id)) {
        want = {id, w2};
      }
      auto& slot = want_cones[cone];
      if (w2 < slot.w2 || (w2 == slot.w2 && id < slot.id)) slot = {id, w2};
    }
    const auto got = grid.nearest(q, none);
    EXPECT_EQ(got.id, want.id);
    const auto got_cones = grid.cone_nearest(q, none);
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_EQ(got_cones[c].id, want_cones[c].id) << "cone " << c;
    }
  }
  // The limit contract: candidates at or below the cap are still found.
  const auto capped = grid.nearest({4.5, 4.5}, none,
                                   grid.nearest({4.5, 4.5}, none).w2);
  EXPECT_EQ(capped.id, grid.nearest({4.5, 4.5}, none).id);
}

/// Brute-force (w2, id)-minimal answers in world units: overall nearest
/// and per cone.
struct BruteNear {
  detail::NearCandidate nearest;
  std::array<detail::NearCandidate, 6> cones{};
};

BruteNear brute_near(const std::vector<geom::Point>& pts,
                     const std::vector<bool>& present, const geom::Point& q,
                     std::int32_t self) {
  BruteNear out;
  for (std::int32_t id = 0; id < static_cast<std::int32_t>(pts.size());
       ++id) {
    if (id == self || !present[static_cast<std::size_t>(id)]) continue;
    const double dx = pts[static_cast<std::size_t>(id)].x - q.x;
    const double dy = pts[static_cast<std::size_t>(id)].y - q.y;
    const double w2 = dx * dx + dy * dy;
    for (auto* slot : {&out.nearest,
                       &out.cones[static_cast<std::size_t>(
                           detail::PointGrid::cone_of(dx, dy))]}) {
      if (w2 < slot->w2 || (w2 == slot->w2 && id < slot->id)) {
        *slot = {id, w2};
      }
    }
  }
  return out;
}

TEST(PointGrid, WedgeWalkIsExactOnHullsClustersAndScales) {
  // Every point of hull-heavy (annulus), clustered and uniform instances,
  // at unit and overflow scale, before and after erasing a third of them:
  // the wedge walk must return the brute-force answer in every cone. The
  // overflow scale is a power of two, so the unscaled brute force ranks
  // exactly as the scaled search must.
  for (int family = 0; family < 3; ++family) {
    for (const double scale : {1.0, std::ldexp(1.0, 515)}) {
      const auto unscaled = family_points(family, 400, 9);
      auto pts = unscaled;
      for (auto& p : pts) p = {p.x * scale, p.y * scale};
      detail::PointGrid grid;
      grid.reset_for(pts);
      std::vector<bool> present(pts.size(), true);
      for (std::size_t i = 0; i < pts.size(); ++i) {
        grid.insert(static_cast<std::int32_t>(i), pts[i]);
      }
      for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < pts.size(); ++i) {
          if (!present[i]) continue;
          const auto self = static_cast<std::int32_t>(i);
          const auto not_self = [self](std::int32_t id) { return id == self; };
          const auto want =
              brute_near(unscaled, present, unscaled[i], self);
          const auto cones = grid.cone_nearest(pts[i], not_self);
          for (std::size_t c = 0; c < 6; ++c) {
            ASSERT_EQ(cones[c].id, want.cones[c].id)
                << "family " << family << " scale " << scale << " round "
                << round << " point " << i << " cone " << c;
          }
          ASSERT_EQ(grid.nearest(pts[i], not_self).id, want.nearest.id);
        }
        for (std::size_t i = static_cast<std::size_t>(round); i < pts.size();
             i += 3) {
          grid.erase(static_cast<std::int32_t>(i), pts[i]);
          present[i] = false;
        }
      }
    }
  }
}

TEST(Tree, OrientationBasics) {
  //   0 - 1 - 2
  //       |
  //       3
  const geom::Pointset pts{{0, 0}, {1, 0}, {2, 0}, {1, 1}};
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {1, 3}};
  const auto tree = orient_toward_sink(pts, edges, 0);
  EXPECT_EQ(tree.sink, 0);
  EXPECT_EQ(tree.parent[0], -1);
  EXPECT_EQ(tree.parent[1], 0);
  EXPECT_EQ(tree.parent[2], 1);
  EXPECT_EQ(tree.parent[3], 1);
  EXPECT_EQ(tree.depth[0], 0);
  EXPECT_EQ(tree.depth[2], 2);
  EXPECT_EQ(tree.height(), 2);
  ASSERT_EQ(tree.links.size(), 3u);
  // Every non-sink node's link points to its parent.
  for (std::size_t v = 1; v < 4; ++v) {
    const auto li = tree.link_of_node[v];
    ASSERT_GE(li, 0);
    EXPECT_EQ(tree.links.link(static_cast<std::size_t>(li)).sender,
              static_cast<std::int32_t>(v));
    EXPECT_EQ(tree.links.link(static_cast<std::size_t>(li)).receiver,
              tree.parent[v]);
  }
  EXPECT_EQ(tree.children[1].size(), 2u);
  EXPECT_EQ(tree.children[0].size(), 1u);
}

TEST(Tree, RejectsBadInput) {
  const geom::Pointset pts{{0, 0}, {1, 0}, {2, 0}};
  const std::vector<Edge> not_tree{{0, 1}};
  EXPECT_THROW(orient_toward_sink(pts, not_tree, 0), std::invalid_argument);
  const std::vector<Edge> tree{{0, 1}, {1, 2}};
  EXPECT_THROW(orient_toward_sink(pts, tree, 5), std::invalid_argument);
}

TEST(Tree, MstTreeProperties) {
  const auto pts = instance::uniform_square(100, 10.0, 9);
  const auto tree = mst_tree(pts, 0);
  EXPECT_EQ(tree.num_nodes(), 100u);
  EXPECT_EQ(tree.links.size(), 99u);
  // Depths are consistent with parents.
  for (std::size_t v = 0; v < 100; ++v) {
    if (tree.parent[v] >= 0) {
      EXPECT_EQ(tree.depth[v],
                tree.depth[static_cast<std::size_t>(tree.parent[v])] + 1);
    }
  }
}

TEST(Tree, PairingTreeLogHeight) {
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const auto pts = instance::uniform_square(128, 10.0, seed);
    const auto pt = pairing_tree(pts, 0);
    EXPECT_EQ(pt.tree.links.size(), 127u);
    // Matching halves the active set each level: ~log2(128) = 7 levels.
    EXPECT_LE(pt.num_levels, 9);
    EXPECT_GE(pt.num_levels, 7);
    // Levels partition the links, each level at most half the prior nodes.
    ASSERT_EQ(pt.level_of_link.size(), 127u);
    std::vector<int> per_level(static_cast<std::size_t>(pt.num_levels), 0);
    for (auto lv : pt.level_of_link) {
      ASSERT_GE(lv, 0);
      ASSERT_LT(lv, pt.num_levels);
      ++per_level[static_cast<std::size_t>(lv)];
    }
    EXPECT_EQ(per_level[0], 64);
    // The tree height is bounded by the number of levels... loosely.
    EXPECT_LE(pt.tree.height(), 2 * pt.num_levels + 1);
  }
}

TEST(Tree, PairingTreeKeepsSink) {
  const auto pts = instance::uniform_square(33, 10.0, 4);
  const auto pt = pairing_tree(pts, 17);
  EXPECT_EQ(pt.tree.sink, 17);
  EXPECT_EQ(pt.tree.parent[17], -1);
}

}  // namespace
}  // namespace wagg::mst
