#ifndef WAGG_CONFLICT_GRAPH_H
#define WAGG_CONFLICT_GRAPH_H

#include <cstdint>
#include <span>
#include <vector>

namespace wagg::conflict {

/// Simple undirected graph with adjacency lists; vertices are link indices.
/// Edges may be added in any order; finalize() sorts and deduplicates the
/// adjacency lists (idempotent; called automatically by accessors that
/// require sorted order).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t num_vertices);
  /// Adopts sorted, duplicate-free, symmetric adjacency rows as they are
  /// (ConflictIndex::neighbors over every vertex).
  explicit Graph(std::vector<std::vector<std::int32_t>> rows);

  void add_edge(std::size_t u, std::size_t v);
  void finalize();

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }
  [[nodiscard]] bool has_edge(std::size_t u, std::size_t v) const;
  [[nodiscard]] std::span<const std::int32_t> neighbors(std::size_t v) const;
  [[nodiscard]] std::size_t degree(std::size_t v) const;
  [[nodiscard]] std::size_t max_degree() const;

  /// True iff no two vertices of `set` are adjacent.
  [[nodiscard]] bool is_independent(std::span<const std::size_t> set) const;

 private:
  std::vector<std::vector<std::int32_t>> adjacency_;
  std::size_t num_edges_ = 0;
  bool finalized_ = true;
};

}  // namespace wagg::conflict

#endif  // WAGG_CONFLICT_GRAPH_H
