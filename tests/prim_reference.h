#ifndef WAGG_TESTS_PRIM_REFERENCE_H
#define WAGG_TESTS_PRIM_REFERENCE_H

// Reference Euclidean MST for tests: dense Prim on the implicit complete
// graph, O(n^2). Relaxes from each newly added vertex with a strict <, and
// picks the closest fringe vertex breaking ties by smaller index — the
// order mst::euclidean_mst must reproduce edge for edge whenever pairwise
// distances are distinct.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/point.h"
#include "mst/mst.h"

namespace wagg::mst::testing {

inline std::vector<Edge> dense_prim(const geom::Pointset& points) {
  const std::size_t n = points.size();
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<std::int32_t> attach(n, -1);
  std::vector<bool> in_tree(n, false);
  std::vector<Edge> result;
  if (n < 2) return result;
  result.reserve(n - 1);
  std::size_t current = 0;
  in_tree[0] = true;
  for (std::size_t step = 1; step < n; ++step) {
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const double d = geom::distance(points[current], points[v]);
      if (d < best[v]) {
        best[v] = d;
        attach[v] = static_cast<std::int32_t>(current);
      }
    }
    std::size_t pick = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      if (pick == n || best[v] < best[pick]) pick = v;
    }
    in_tree[pick] = true;
    result.push_back(Edge{attach[pick], static_cast<std::int32_t>(pick)});
    current = pick;
  }
  return result;
}

}  // namespace wagg::mst::testing

#endif  // WAGG_TESTS_PRIM_REFERENCE_H
