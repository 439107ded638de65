#include "mst/mst.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

#include "mst/point_grid.h"

namespace wagg::mst {

namespace {

void require_at_least_two(const geom::Pointset& points, const char* who) {
  if (points.size() < 2) {
    throw std::invalid_argument(std::string(who) + ": need >= 2 points");
  }
}

struct WeightedEdge {
  double w;
  std::int32_t u;
  std::int32_t v;
};

/// All-pairs edges sorted by (weight, u, v); deterministic.
std::vector<WeightedEdge> sorted_complete_graph(const geom::Pointset& points) {
  const auto n = static_cast<std::int32_t>(points.size());
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t j = i + 1; j < n; ++j) {
      edges.push_back(
          {geom::distance(points[static_cast<std::size_t>(i)],
                          points[static_cast<std::size_t>(j)]),
           i, j});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.w != b.w) return a.w < b.w;
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  return edges;
}

}  // namespace

std::vector<Edge> euclidean_mst(const geom::Pointset& points) {
  require_at_least_two(points, "euclidean_mst");
  const std::size_t n = points.size();
  for (const auto& p : points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      throw std::invalid_argument("euclidean_mst: coordinates must be finite");
    }
  }
  detail::PointGrid grid;
  grid.reset_for(points);
  for (std::size_t i = 0; i < n; ++i) {
    grid.insert(static_cast<std::int32_t>(i), points[i]);
  }
  // The candidate star: each point's nearest neighbor per 60-degree cone,
  // kept in both directions (the Yao graph, which contains the MST), laid
  // out as adjacency ranges star[first[u], first[u + 1]).
  std::vector<std::array<std::int32_t, 6>> cones(n);
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto self = static_cast<std::int32_t>(i);
    const auto near = grid.cone_nearest(
        points[i], [self](std::int32_t id) { return id == self; });
    for (std::size_t k = 0; k < near.size(); ++k) {
      cones[i][k] = near[k].id;
      if (near[k].id < 0) continue;
      ++first[i + 1];
      ++first[static_cast<std::size_t>(near[k].id) + 1];
    }
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<std::int32_t> star(first[n]);
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::int32_t j : cones[i]) {
      if (j < 0) continue;
      const auto v = static_cast<std::size_t>(j);
      star[fill[i]++] = j;
      star[fill[v]++] = static_cast<std::int32_t>(i);
    }
  }

  // Prim over the star with a lazy-deletion heap. Relaxing in tree
  // insertion order with a strict < and popping by (distance, index)
  // reproduces dense Prim's choices on every edge the star holds.
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<std::int32_t> attach(n, -1);
  std::vector<bool> in_tree(n, false);
  using Item = std::pair<double, std::int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const auto join = [&](std::size_t u) {
    in_tree[u] = true;
    for (std::size_t e = first[u]; e < first[u + 1]; ++e) {
      const auto v = static_cast<std::size_t>(star[e]);
      if (in_tree[v]) continue;
      const double d = geom::distance(points[u], points[v]);
      if (d < best[v]) {
        best[v] = d;
        attach[v] = static_cast<std::int32_t>(u);
        heap.emplace(d, static_cast<std::int32_t>(v));
      }
    }
  };
  std::vector<Edge> result;
  result.reserve(n - 1);
  join(0);
  while (result.size() + 1 < n) {
    if (heap.empty()) {
      throw std::logic_error("euclidean_mst: candidate star is disconnected");
    }
    const auto [d, v] = heap.top();
    heap.pop();
    const auto pick = static_cast<std::size_t>(v);
    if (in_tree[pick] || d != best[pick]) continue;  // stale entry
    result.push_back(Edge{attach[pick], v});
    join(pick);
  }
  return result;
}

std::vector<Edge> kruskal_mst(const geom::Pointset& points) {
  require_at_least_two(points, "kruskal_mst");
  const auto edges = sorted_complete_graph(points);
  UnionFind uf(points.size());
  std::vector<Edge> result;
  result.reserve(points.size() - 1);
  for (const auto& e : edges) {
    if (uf.unite(static_cast<std::size_t>(e.u),
                 static_cast<std::size_t>(e.v))) {
      result.push_back(Edge{e.u, e.v});
      if (result.size() + 1 == points.size()) break;
    }
  }
  return result;
}

std::vector<Edge> line_mst(const geom::Pointset& points) {
  require_at_least_two(points, "line_mst");
  std::vector<std::int32_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  for (const auto& p : points) {
    if (p.y != 0.0) {
      throw std::invalid_argument("line_mst: pointset is not collinear on y=0");
    }
  }
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const double xa = points[static_cast<std::size_t>(a)].x;
    const double xb = points[static_cast<std::size_t>(b)].x;
    if (xa != xb) return xa < xb;
    return a < b;
  });
  std::vector<Edge> result;
  result.reserve(points.size() - 1);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    result.push_back(Edge{order[i], order[i + 1]});
  }
  return result;
}

std::vector<Edge> k_fold_mst(const geom::Pointset& points, int k) {
  require_at_least_two(points, "k_fold_mst");
  if (k < 1) throw std::invalid_argument("k_fold_mst: k must be >= 1");
  auto all = sorted_complete_graph(points);
  std::vector<bool> used(all.size(), false);
  std::vector<Edge> result;
  for (int round = 0; round < k; ++round) {
    UnionFind uf(points.size());
    for (std::size_t idx = 0; idx < all.size(); ++idx) {
      if (used[idx]) continue;
      const auto& e = all[idx];
      if (uf.unite(static_cast<std::size_t>(e.u),
                   static_cast<std::size_t>(e.v))) {
        used[idx] = true;
        result.push_back(Edge{e.u, e.v});
      }
    }
    if (uf.num_components() > 1) break;  // not enough edges left to span
  }
  return result;
}

double total_weight(const geom::Pointset& points, std::span<const Edge> edges) {
  double sum = 0.0;
  for (const Edge& e : edges) {
    sum += geom::distance(points.at(static_cast<std::size_t>(e.u)),
                          points.at(static_cast<std::size_t>(e.v)));
  }
  return sum;
}

bool is_spanning_tree(std::size_t n, std::span<const Edge> edges) {
  if (n == 0) return false;
  if (edges.size() != n - 1) return false;
  UnionFind uf(n);
  for (const Edge& e : edges) {
    if (e.u < 0 || e.v < 0 || static_cast<std::size_t>(e.u) >= n ||
        static_cast<std::size_t>(e.v) >= n) {
      return false;
    }
    if (!uf.unite(static_cast<std::size_t>(e.u),
                  static_cast<std::size_t>(e.v))) {
      return false;  // cycle
    }
  }
  return uf.num_components() == 1;
}

UnionFind::UnionFind(std::size_t n)
    : parent_(n), rank_(n, 0), components_(n) {
  std::iota(parent_.begin(), parent_.end(), std::size_t{0});
}

std::size_t UnionFind::find(std::size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return false;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  --components_;
  return true;
}

}  // namespace wagg::mst
