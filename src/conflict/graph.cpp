#include "conflict/graph.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace wagg::conflict {

Graph::Graph(std::size_t num_vertices) : adjacency_(num_vertices) {}

Graph::Graph(std::vector<std::vector<std::int32_t>> rows)
    : adjacency_(std::move(rows)) {
  for (const auto& adj : adjacency_) num_edges_ += adj.size();
  num_edges_ /= 2;
}

void Graph::add_edge(std::size_t u, std::size_t v) {
  if (u >= adjacency_.size() || v >= adjacency_.size()) {
    throw std::out_of_range("Graph::add_edge: vertex out of range");
  }
  if (u == v) throw std::invalid_argument("Graph::add_edge: self-loop");
  adjacency_[u].push_back(static_cast<std::int32_t>(v));
  adjacency_[v].push_back(static_cast<std::int32_t>(u));
  finalized_ = false;
}

void Graph::finalize() {
  if (finalized_) return;
  num_edges_ = 0;
  for (auto& adj : adjacency_) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
    num_edges_ += adj.size();
  }
  num_edges_ /= 2;
  finalized_ = true;
}

bool Graph::has_edge(std::size_t u, std::size_t v) const {
  if (u >= adjacency_.size() || v >= adjacency_.size()) {
    throw std::out_of_range("Graph::has_edge: vertex out of range");
  }
  if (!finalized_) {
    throw std::logic_error("Graph::has_edge: call finalize() first");
  }
  const auto& adj = adjacency_[u];
  return std::binary_search(adj.begin(), adj.end(),
                            static_cast<std::int32_t>(v));
}

std::span<const std::int32_t> Graph::neighbors(std::size_t v) const {
  return adjacency_.at(v);
}

std::size_t Graph::degree(std::size_t v) const {
  return adjacency_.at(v).size();
}

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (const auto& adj : adjacency_) d = std::max(d, adj.size());
  return d;
}

bool Graph::is_independent(std::span<const std::size_t> set) const {
  if (!finalized_) {
    throw std::logic_error("Graph::is_independent: call finalize() first");
  }
  for (std::size_t a = 0; a < set.size(); ++a) {
    for (std::size_t b = a + 1; b < set.size(); ++b) {
      if (has_edge(set[a], set[b])) return false;
    }
  }
  return true;
}

}  // namespace wagg::conflict
