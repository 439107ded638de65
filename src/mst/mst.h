#ifndef WAGG_MST_MST_H
#define WAGG_MST_MST_H

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"

namespace wagg::mst {

/// An undirected edge between two point indices.
struct Edge {
  std::int32_t u = -1;
  std::int32_t v = -1;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Exact Euclidean minimum spanning tree: Prim's algorithm with a heap over
/// the cone star (each point's nearest neighbor per 60-degree cone, found
/// by detail::PointGrid's wedge walk), which contains the MST. Near-linear
/// on spread-out instances: O(n) grid cells walked in total, O(n log n)
/// heap work. Edges come out in Prim order from node 0, each as
/// {tree endpoint, new endpoint}; with distinct pairwise distances they
/// equal dense O(n^2) Prim's edge for edge (relaxation with a strict <, the
/// closest fringe node first, smaller index on equal distance). Under
/// distance ties the tree is deterministic and of minimum weight but may
/// differ from dense Prim's. Throws std::invalid_argument for fewer than 2
/// points or a non-finite coordinate.
[[nodiscard]] std::vector<Edge> euclidean_mst(const geom::Pointset& points);

/// Kruskal's algorithm on the explicit complete graph, O(n^2 log n).
/// Exists as an independent cross-check for euclidean_mst (same weight, and
/// the same edge set when all pairwise distances are distinct).
[[nodiscard]] std::vector<Edge> kruskal_mst(const geom::Pointset& points);

/// MST of collinear points: connects neighbours in sorted x order (the unique
/// MST on the line when gaps are distinct). Throws if any y != 0.
[[nodiscard]] std::vector<Edge> line_mst(const geom::Pointset& points);

/// Union of k rounds of MST over the complete graph with previously chosen
/// edges removed — the k-edge-connectivity construction referenced by the
/// paper's Remark 2 (following [11]). k = 1 equals euclidean_mst.
[[nodiscard]] std::vector<Edge> k_fold_mst(const geom::Pointset& points,
                                           int k);

/// Total Euclidean weight of an edge list.
[[nodiscard]] double total_weight(const geom::Pointset& points,
                                  std::span<const Edge> edges);

/// True iff `edges` forms a spanning tree on n nodes (n-1 edges, connected).
[[nodiscard]] bool is_spanning_tree(std::size_t n, std::span<const Edge> edges);

/// Disjoint-set forest with union by rank and path halving.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);
  /// Representative of x's component.
  [[nodiscard]] std::size_t find(std::size_t x);
  /// Merges the components of a and b; returns false if already merged.
  bool unite(std::size_t a, std::size_t b);
  [[nodiscard]] std::size_t num_components() const noexcept {
    return components_;
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::uint8_t> rank_;
  std::size_t components_;
};

}  // namespace wagg::mst

#endif  // WAGG_MST_MST_H
