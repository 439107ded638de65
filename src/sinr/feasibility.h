#ifndef WAGG_SINR_FEASIBILITY_H
#define WAGG_SINR_FEASIBILITY_H

#include <cstddef>
#include <span>
#include <vector>

#include "geom/linkset.h"
#include "sinr/model.h"
#include "sinr/power.h"

namespace wagg::sinr {

/// log2 of the relative interference (affectance) of link j on link i under
/// power P:  I_P(j, i) = (P_j / d_ji^alpha) / (P_i / l_i^alpha).
/// Returns -inf for j == i and +inf when d_ji == 0 (sender of j sits on the
/// receiver of i).
[[nodiscard]] double log2_affectance(const geom::LinkView& links,
                                     const SinrParams& params,
                                     const PowerAssignment& power,
                                     std::size_t j, std::size_t i);

/// True iff some node appears in two links of the set (half-duplex, single
/// radio per node: such sets are never schedulable in one slot).
[[nodiscard]] bool has_shared_node(const geom::LinkView& links,
                                   std::span<const std::size_t> set);

/// Result of an exact slot-feasibility check.
struct FeasibilityReport {
  bool feasible = false;
  /// max over links i in the set of beta * (sum_j I_P(j,i) + noise term);
  /// feasible iff <= 1 (up to tolerance) and no shared nodes.
  double max_load = 0.0;
  /// Link (index into the set) attaining max_load; set size on empty input.
  std::size_t worst_link = 0;
  bool shared_node = false;
};

/// Exact SINR feasibility of a set of links under a fixed power assignment.
/// `tolerance` loosens the SINR comparison multiplicatively to absorb
/// floating-point noise (load <= 1 + tolerance passes).
[[nodiscard]] FeasibilityReport check_feasible(
    const geom::LinkView& links, std::span<const std::size_t> set,
    const SinrParams& params, const PowerAssignment& power,
    double tolerance = 1e-9);

/// Convenience wrapper returning just the verdict.
[[nodiscard]] bool is_feasible(const geom::LinkView& links,
                               std::span<const std::size_t> set,
                               const SinrParams& params,
                               const PowerAssignment& power,
                               double tolerance = 1e-9);

/// Feasibility under *arbitrary power control* (the paper's "feasible" with
/// no fixed P): a set S admits a power vector P > 0 satisfying all SINR
/// constraints iff the spectral radius of the normalized gain matrix
///   M_ij = beta * (l_i / d_ji)^alpha   (i != j), M_ii = 0
/// is below 1. Decided by power iteration performed entirely in log2 space
/// (log-sum-exp) so the doubly-exponential instances do not overflow.
/// When feasible, the (log2) Perron vector is returned: it is itself a valid
/// power assignment with slack 1/rho, i.e. the output of a global power
/// control algorithm in the Foschini–Miljanic family.
struct PowerControlResult {
  bool feasible = false;
  /// Spectral radius estimate of M; feasible iff < 1 and no shared node.
  double spectral_radius = 0.0;
  bool shared_node = false;
  /// log2 of the computed power vector (aligned with `set`); empty if
  /// infeasible. Normalized so the maximum log2-power is 0 (noise-free).
  std::vector<double> log2_power;
  /// log2 of each member's SINR load under log2_power (aligned with `set`,
  /// -inf for a load of 0); empty if infeasible. Noise-free these are the
  /// Collatz–Wielandt ratios, all below 1 - strictness.
  std::vector<double> log2_load;
  int iterations = 0;
};

struct PowerControlOptions {
  int max_iterations = 256;
  double tolerance = 1e-10;
  /// Require rho <= 1 - strictness (strictness > 0 guards against sets that
  /// are only feasible with unbounded power ratios).
  double strictness = 1e-6;
};

[[nodiscard]] PowerControlResult power_control_feasible(
    const geom::LinkView& links, std::span<const std::size_t> set,
    const SinrParams& params, const PowerControlOptions& options = {});

/// Expands the per-set power vector from power_control_feasible into a
/// full-linkset PowerAssignment (links outside `set` keep log2 power 0).
[[nodiscard]] PowerAssignment embed_slot_power(
    const geom::LinkView& links, std::span<const std::size_t> set,
    const PowerControlResult& result);

/// Numerically stable log2(sum_i 2^x_i); -inf on empty input.
[[nodiscard]] double log2_sum_exp2(std::span<const double> values);

}  // namespace wagg::sinr

#endif  // WAGG_SINR_FEASIBILITY_H
