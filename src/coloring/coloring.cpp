#include "coloring/coloring.h"

#include <algorithm>
#include <stdexcept>

namespace wagg::coloring {

std::vector<std::vector<std::size_t>> Coloring::classes() const {
  std::vector<std::vector<std::size_t>> result(
      static_cast<std::size_t>(num_colors));
  for (std::size_t v = 0; v < color_of.size(); ++v) {
    const int c = color_of[v];
    if (c < 0 || c >= num_colors) {
      throw std::logic_error("Coloring::classes: color out of range");
    }
    result[static_cast<std::size_t>(c)].push_back(v);
  }
  return result;
}

namespace {

void check_permutation(std::size_t n, std::span<const std::size_t> order) {
  if (order.size() != n) {
    throw std::invalid_argument("greedy_color: order size mismatch");
  }
  std::vector<bool> seen(n, false);
  for (std::size_t v : order) {
    if (v >= n || seen[v]) {
      throw std::invalid_argument("greedy_color: order is not a permutation");
    }
    seen[v] = true;
  }
}

/// The shared first-fit core: assigns vertex v the smallest color unused by
/// its neighbors (supplied by `neighbors_of`), updating the coloring in
/// place. greedy_color and greedy_recolor_rows both delegate here so the
/// first-fit rule cannot diverge between them.
template <typename NeighborsOf>
void first_fit_vertex(Coloring& coloring, std::size_t v,
                      NeighborsOf&& neighbors_of, std::vector<bool>& used) {
  used.assign(static_cast<std::size_t>(coloring.num_colors) + 1, false);
  for (const auto w : neighbors_of(v)) {
    const int c = coloring.color_of[static_cast<std::size_t>(w)];
    if (c >= 0 && c < coloring.num_colors) {
      used[static_cast<std::size_t>(c)] = true;
    }
  }
  int color = 0;
  while (used[static_cast<std::size_t>(color)]) ++color;
  coloring.color_of[v] = color;
  coloring.num_colors = std::max(coloring.num_colors, color + 1);
}

Coloring seed_coloring(std::span<const int> seed) {
  Coloring coloring;
  coloring.color_of.assign(seed.begin(), seed.end());
  for (const int c : seed) {
    coloring.num_colors = std::max(coloring.num_colors, c + 1);
  }
  return coloring;
}

}  // namespace

Coloring greedy_color(const conflict::Graph& graph,
                      std::span<const std::size_t> order) {
  const std::size_t n = graph.num_vertices();
  check_permutation(n, order);
  Coloring coloring;
  coloring.color_of.assign(n, -1);
  std::vector<bool> used;  // scratch: colors used by neighbours
  const auto neighbors_of = [&graph](std::size_t v) {
    return graph.neighbors(v);
  };
  for (std::size_t v : order) {
    first_fit_vertex(coloring, v, neighbors_of, used);
  }
  return coloring;
}

Coloring greedy_color_index_order(const conflict::Graph& graph) {
  std::vector<std::size_t> order(graph.num_vertices());
  for (std::size_t v = 0; v < order.size(); ++v) order[v] = v;
  return greedy_color(graph, order);
}

Coloring greedy_recolor_rows(std::span<const std::size_t> targets,
                             std::span<const std::vector<std::int32_t>> rows,
                             std::span<const int> seed) {
  if (targets.size() != rows.size()) {
    throw std::invalid_argument(
        "greedy_recolor_rows: targets/rows size mismatch");
  }
  Coloring coloring = seed_coloring(seed);
  std::vector<bool> used;
  for (std::size_t k = 0; k < targets.size(); ++k) {
    const std::size_t v = targets[k];
    if (v >= seed.size()) {
      throw std::invalid_argument("greedy_recolor_rows: target out of range");
    }
    const auto neighbors_of = [&rows, k](std::size_t) -> const std::vector<std::int32_t>& {
      return rows[k];
    };
    first_fit_vertex(coloring, v, neighbors_of, used);
  }
  return coloring;
}

Coloring dsatur(const conflict::Graph& graph) {
  const std::size_t n = graph.num_vertices();
  Coloring coloring;
  coloring.color_of.assign(n, -1);
  if (n == 0) return coloring;

  std::vector<std::vector<bool>> neighbour_colors(n);
  std::vector<int> saturation(n, 0);
  for (std::size_t step = 0; step < n; ++step) {
    // Select uncolored vertex with max saturation; break ties by degree,
    // then by index (deterministic).
    std::size_t pick = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (coloring.color_of[v] >= 0) continue;
      if (pick == n || saturation[v] > saturation[pick] ||
          (saturation[v] == saturation[pick] &&
           graph.degree(v) > graph.degree(pick))) {
        pick = v;
      }
    }
    auto& used = neighbour_colors[pick];
    int color = 0;
    while (static_cast<std::size_t>(color) < used.size() &&
           used[static_cast<std::size_t>(color)]) {
      ++color;
    }
    coloring.color_of[pick] = color;
    coloring.num_colors = std::max(coloring.num_colors, color + 1);
    for (const auto w : graph.neighbors(pick)) {
      auto& wc = neighbour_colors[static_cast<std::size_t>(w)];
      if (wc.size() <= static_cast<std::size_t>(color)) {
        wc.resize(static_cast<std::size_t>(color) + 1, false);
      }
      if (!wc[static_cast<std::size_t>(color)]) {
        wc[static_cast<std::size_t>(color)] = true;
        ++saturation[static_cast<std::size_t>(w)];
      }
    }
  }
  return coloring;
}

namespace {

struct ExactState {
  const conflict::Graph* graph;
  std::vector<int> color_of;
  long nodes_left;
  int best;  // best (smallest) feasible color count found so far

  bool feasible_with(std::size_t v, int c) const {
    for (const auto w : graph->neighbors(v)) {
      if (color_of[static_cast<std::size_t>(w)] == c) return false;
    }
    return true;
  }

  /// Backtracking: color vertices in index order; prune at `limit` colors.
  bool try_color(std::size_t v, int used, int limit) {
    if (nodes_left-- <= 0) throw std::overflow_error("budget");
    const std::size_t n = graph->num_vertices();
    if (v == n) return true;
    const int cap = std::min(used + 1, limit);
    for (int c = 0; c < cap; ++c) {
      if (!feasible_with(v, c)) continue;
      color_of[v] = c;
      if (try_color(v + 1, std::max(used, c + 1), limit)) return true;
      color_of[v] = -1;
    }
    return false;
  }
};

}  // namespace

std::optional<int> exact_chromatic_number(const conflict::Graph& graph,
                                          long node_budget) {
  const std::size_t n = graph.num_vertices();
  if (n == 0) return 0;
  ExactState state;
  state.graph = &graph;
  state.nodes_left = node_budget;
  const int lower = greedy_clique_lower_bound(graph);
  try {
    for (int k = std::max(1, lower);
         k <= static_cast<int>(n); ++k) {
      state.color_of.assign(n, -1);
      if (state.try_color(0, 0, k)) return k;
    }
  } catch (const std::overflow_error&) {
    return std::nullopt;
  }
  return static_cast<int>(n);  // unreachable: n colors always suffice
}

bool is_proper(const conflict::Graph& graph, const Coloring& coloring) {
  const std::size_t n = graph.num_vertices();
  if (coloring.color_of.size() != n) return false;
  std::vector<bool> color_used(
      static_cast<std::size_t>(std::max(coloring.num_colors, 0)), false);
  for (std::size_t v = 0; v < n; ++v) {
    const int c = coloring.color_of[v];
    if (c < 0 || c >= coloring.num_colors) return false;
    color_used[static_cast<std::size_t>(c)] = true;
    for (const auto w : graph.neighbors(v)) {
      if (coloring.color_of[static_cast<std::size_t>(w)] == c) return false;
    }
  }
  return std::all_of(color_used.begin(), color_used.end(),
                     [](bool used) { return used; });
}

int greedy_clique_lower_bound(const conflict::Graph& graph) {
  const std::size_t n = graph.num_vertices();
  if (n == 0) return 0;
  // Grow a clique greedily from each of the highest-degree vertices.
  std::vector<std::size_t> by_degree(n);
  for (std::size_t v = 0; v < n; ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(),
            [&](std::size_t a, std::size_t b) {
              if (graph.degree(a) != graph.degree(b)) {
                return graph.degree(a) > graph.degree(b);
              }
              return a < b;
            });
  int best = 1;
  const std::size_t tries = std::min<std::size_t>(n, 16);
  for (std::size_t t = 0; t < tries; ++t) {
    std::vector<std::size_t> clique{by_degree[t]};
    for (std::size_t v : by_degree) {
      if (v == by_degree[t]) continue;
      bool adjacent_to_all = true;
      for (std::size_t c : clique) {
        if (!graph.has_edge(v, c)) {
          adjacent_to_all = false;
          break;
        }
      }
      if (adjacent_to_all) clique.push_back(v);
    }
    best = std::max(best, static_cast<int>(clique.size()));
  }
  return best;
}

}  // namespace wagg::coloring
