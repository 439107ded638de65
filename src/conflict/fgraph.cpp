#include "conflict/fgraph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace wagg::conflict {

void ConflictSpec::validate() const {
  if (!(gamma > 0.0)) {
    throw std::invalid_argument("ConflictSpec: gamma must be positive");
  }
  if (kind == Kind::kPowerLaw && !(delta > 0.0 && delta < 1.0)) {
    throw std::invalid_argument("ConflictSpec: delta must lie in (0, 1)");
  }
  if (kind == Kind::kLogarithmic && !(alpha > 2.0)) {
    throw std::invalid_argument("ConflictSpec: alpha must exceed 2");
  }
}

double ConflictSpec::f(double x) const {
  if (x < 1.0) throw std::invalid_argument("ConflictSpec::f: x must be >= 1");
  switch (kind) {
    case Kind::kConstant:
      return gamma;
    case Kind::kPowerLaw:
      return gamma * std::pow(x, delta);
    case Kind::kLogarithmic: {
      const double lg = std::log2(x);
      return gamma * std::max(1.0, std::pow(lg, 2.0 / (alpha - 2.0)));
    }
  }
  throw std::logic_error("ConflictSpec::f: unknown kind");
}

bool ConflictSpec::conflicting(const geom::LinkView& links, std::size_t i,
                               std::size_t j) const {
  if (i == j) return false;
  const double li = links.length(i);
  const double lj = links.length(j);
  const double lmin = std::min(li, lj);
  const double lmax = std::max(li, lj);
  // Independent iff d(i, j) / lmin > f(lmax / lmin). Division keeps every
  // intermediate within double range even on doubly-exponential instances.
  return links.link_distance(i, j) / lmin <= f(lmax / lmin);
}

std::string ConflictSpec::name() const {
  switch (kind) {
    case Kind::kConstant:
      return "G_gamma(" + std::to_string(gamma) + ")";
    case Kind::kPowerLaw:
      return "G^delta(" + std::to_string(delta) + ",gamma=" +
             std::to_string(gamma) + ")";
    case Kind::kLogarithmic:
      return "G_log(gamma=" + std::to_string(gamma) + ")";
  }
  return "G_?";
}

ConflictSpec ConflictSpec::constant(double gamma) {
  ConflictSpec spec;
  spec.kind = Kind::kConstant;
  spec.gamma = gamma;
  spec.validate();
  return spec;
}

ConflictSpec ConflictSpec::power_law(double gamma, double delta) {
  ConflictSpec spec;
  spec.kind = Kind::kPowerLaw;
  spec.gamma = gamma;
  spec.delta = delta;
  spec.validate();
  return spec;
}

ConflictSpec ConflictSpec::logarithmic(double gamma, double alpha) {
  ConflictSpec spec;
  spec.kind = Kind::kLogarithmic;
  spec.gamma = gamma;
  spec.alpha = alpha;
  spec.validate();
  return spec;
}

Graph build_conflict_graph(const geom::LinkView& links,
                           const ConflictSpec& spec) {
  spec.validate();
  Graph graph(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    for (std::size_t j = i + 1; j < links.size(); ++j) {
      if (spec.conflicting(links, i, j)) graph.add_edge(i, j);
    }
  }
  graph.finalize();
  return graph;
}

}  // namespace wagg::conflict
