#ifndef WAGG_COLORING_COLORING_H
#define WAGG_COLORING_COLORING_H

#include <optional>
#include <span>
#include <vector>

#include "conflict/graph.h"

namespace wagg::coloring {

/// A vertex coloring: color_of[v] in [0, num_colors).
struct Coloring {
  std::vector<int> color_of;
  int num_colors = 0;

  /// Color classes as vertex-index lists (the slots of a coloring schedule).
  [[nodiscard]] std::vector<std::vector<std::size_t>> classes() const;
};

/// First-fit greedy coloring processing vertices in the given order: each
/// vertex receives the smallest color unused by its already-colored
/// neighbours. With the non-increasing-length order this is the paper's
/// constant-approximation algorithm for G_f graphs (Appendix A, via constant
/// inductive independence [27]).
/// Throws std::invalid_argument if `order` is not a permutation.
[[nodiscard]] Coloring greedy_color(const conflict::Graph& graph,
                                    std::span<const std::size_t> order);

/// Greedy coloring in vertex-index order (baseline / ablation).
[[nodiscard]] Coloring greedy_color_index_order(const conflict::Graph& graph);

/// Seeded recoloring without materializing a Graph: targets[k] (its
/// conflict row given as rows[k], vertex indices) are first-fit colored in
/// order k = 0, 1, ... against the seed; all other vertices keep their seed
/// color (seed[v] >= 0). Same first-fit rule as greedy_color, which an
/// all-blank seed with every vertex targeted reproduces — the incremental
/// planner feeds it the conflict rows of its dirty links. Rows are not
/// validated against the (absent) graph; seed propriety is the caller's
/// responsibility. Throws std::invalid_argument when targets and rows
/// differ in size or a target lies outside the seed.
[[nodiscard]] Coloring greedy_recolor_rows(
    std::span<const std::size_t> targets,
    std::span<const std::vector<std::int32_t>> rows,
    std::span<const int> seed);

/// DSATUR (Brelaz 1979): picks the uncolored vertex with the highest color
/// saturation. A stronger general-purpose heuristic used for comparison.
[[nodiscard]] Coloring dsatur(const conflict::Graph& graph);

/// Exact chromatic number by branch-and-bound over colorings, feasible for
/// small graphs only. Returns std::nullopt if the search exceeds
/// `node_budget` backtracking nodes.
[[nodiscard]] std::optional<int> exact_chromatic_number(
    const conflict::Graph& graph, long node_budget = 2'000'000);

/// True iff adjacent vertices always have distinct colors and every color in
/// [0, num_colors) is used by some vertex.
[[nodiscard]] bool is_proper(const conflict::Graph& graph,
                             const Coloring& coloring);

/// Size of a greedily grown clique (a cheap chromatic lower bound).
[[nodiscard]] int greedy_clique_lower_bound(const conflict::Graph& graph);

}  // namespace wagg::coloring

#endif  // WAGG_COLORING_COLORING_H
