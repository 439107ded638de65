#include "sinr/feasibility.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wagg::sinr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// exp2 with saturation instead of overflow/underflow surprises.
double safe_exp2(double x) noexcept {
  if (x >= 1024.0) return kInf;
  if (x <= -1074.0) return 0.0;
  return std::exp2(x);
}

/// log2 of the noise load term beta * N * l_i^alpha / P_i, or -inf if N == 0.
double log2_noise_term(const geom::LinkView& links, const SinrParams& params,
                       const PowerAssignment& power, std::size_t i) {
  if (params.noise <= 0.0) return -kInf;
  return std::log2(params.noise) + params.alpha * std::log2(links.length(i)) -
         power.log2_power(i);
}

}  // namespace

double log2_sum_exp2(std::span<const double> values) {
  double max_v = -kInf;
  for (double v : values) max_v = std::max(max_v, v);
  if (max_v == -kInf) return -kInf;
  if (max_v == kInf) return kInf;
  double sum = 0.0;
  for (double v : values) {
    if (v == -kInf) continue;
    sum += std::exp2(v - max_v);
  }
  return max_v + std::log2(sum);
}

double log2_affectance(const geom::LinkView& links, const SinrParams& params,
                       const PowerAssignment& power, std::size_t j,
                       std::size_t i) {
  if (j == i) return -kInf;
  const double d = links.sinr_distance(j, i);
  if (d <= 0.0) return kInf;
  return power.log2_power(j) - power.log2_power(i) +
         params.alpha * (std::log2(links.length(i)) - std::log2(d));
}

bool has_shared_node(const geom::LinkView& links,
                     std::span<const std::size_t> set) {
  // Sort the 2|set| endpoint indices and look for an adjacent duplicate —
  // O(k log k) against the O(k^2) pairwise check this replaces.
  std::vector<std::int32_t> nodes;
  nodes.reserve(2 * set.size());
  for (const std::size_t i : set) {
    nodes.push_back(links.link(i).sender);
    nodes.push_back(links.link(i).receiver);
  }
  std::sort(nodes.begin(), nodes.end());
  return std::adjacent_find(nodes.begin(), nodes.end()) != nodes.end();
}

FeasibilityReport check_feasible(const geom::LinkView& links,
                                 std::span<const std::size_t> set,
                                 const SinrParams& params,
                                 const PowerAssignment& power,
                                 double tolerance) {
  params.validate();
  FeasibilityReport report;
  report.worst_link = set.size();
  if (set.empty()) {
    report.feasible = true;
    return report;
  }
  if (has_shared_node(links, set)) {
    report.shared_node = true;
    report.feasible = false;
    report.max_load = kInf;
    return report;
  }
  const double log2_beta = std::log2(params.beta);
  report.max_load = 0.0;
  // Hoisted per-link columns: log2 length and log2 power are re-read for
  // every pair in the inner loop, so computing them once per link removes
  // two transcendentals per matrix entry. Distances enter through
  // LinkView::log2_sinr_distance, saving the square root.
  std::vector<double> log2_len(set.size());
  std::vector<double> log2_pow(set.size());
  for (std::size_t a = 0; a < set.size(); ++a) {
    log2_len[a] = std::log2(links.length(set[a]));
    log2_pow[a] = power.log2_power(set[a]);
  }
  std::vector<double> terms;
  terms.reserve(set.size());
  for (std::size_t a = 0; a < set.size(); ++a) {
    terms.clear();
    const double alpha_log2_len = params.alpha * log2_len[a];
    for (std::size_t b = 0; b < set.size(); ++b) {
      if (b == a) continue;
      const double log2_d = links.log2_sinr_distance(set[b], set[a]);
      terms.push_back(log2_d == -kInf
                          ? kInf
                          : log2_pow[b] - log2_pow[a] + alpha_log2_len -
                                params.alpha * log2_d);
    }
    terms.push_back(log2_noise_term(links, params, power, set[a]));
    const double load = safe_exp2(log2_beta + log2_sum_exp2(terms));
    if (load > report.max_load) {
      report.max_load = load;
      report.worst_link = a;
    }
  }
  report.feasible = report.max_load <= 1.0 + tolerance;
  return report;
}

bool is_feasible(const geom::LinkView& links, std::span<const std::size_t> set,
                 const SinrParams& params, const PowerAssignment& power,
                 double tolerance) {
  return check_feasible(links, set, params, power, tolerance).feasible;
}

namespace {

/// log2 of the noise load beta * N * l_i^alpha at power 1; -inf if N == 0.
double log2_own_noise(const geom::LinkView& links, const SinrParams& params,
                      std::size_t i) {
  if (params.noise <= 0.0) return -kInf;
  return std::log2(params.beta * params.noise) +
         params.alpha * std::log2(links.length(i));
}

/// log2 of every member's load under log2 powers `lp`, given the log2 gain
/// matrix: log2(sum_j M_ij 2^lp_j + beta N l_i^alpha) - lp_i.
std::vector<double> log2_loads(const geom::LinkView& links,
                               std::span<const std::size_t> set,
                               const SinrParams& params,
                               std::span<const double> m,
                               std::span<const double> lp) {
  const std::size_t k = set.size();
  std::vector<double> loads(k);
  std::vector<double> terms(k + 1);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = 0; b < k; ++b) terms[b] = m[a * k + b] + lp[b];
    terms[k] = log2_own_noise(links, params, set[a]);
    loads[a] = log2_sum_exp2(terms) - lp[a];
  }
  return loads;
}

/// log2 of the normalized gain matrix M_ij = beta * (l_i / d_ji)^alpha,
/// row-major over the set; diagonal is -inf.
std::vector<double> log2_gain_matrix(const geom::LinkView& links,
                                     std::span<const std::size_t> set,
                                     const SinrParams& params) {
  const std::size_t k = set.size();
  const double log2_beta = std::log2(params.beta);
  std::vector<double> m(k * k, -kInf);
  for (std::size_t a = 0; a < k; ++a) {
    const double log2_len = std::log2(links.length(set[a]));
    const double row_const = log2_beta + params.alpha * log2_len;
    for (std::size_t b = 0; b < k; ++b) {
      if (a == b) continue;
      const double log2_d = links.log2_sinr_distance(set[b], set[a]);
      m[a * k + b] =
          log2_d == -kInf ? kInf : row_const - params.alpha * log2_d;
    }
  }
  return m;
}

}  // namespace

PowerControlResult power_control_feasible(const geom::LinkView& links,
                                          std::span<const std::size_t> set,
                                          const SinrParams& params,
                                          const PowerControlOptions& options) {
  params.validate();
  PowerControlResult result;
  if (set.empty()) {
    result.feasible = true;
    result.spectral_radius = 0.0;
    return result;
  }
  if (has_shared_node(links, set)) {
    result.shared_node = true;
    result.spectral_radius = kInf;
    return result;
  }
  const std::size_t k = set.size();
  const auto m = log2_gain_matrix(links, set, params);

  if (k == 1) {
    // No interference: any power works noise-free; with noise the
    // certification below raises it above the noise floor.
    result.feasible = true;
    result.log2_power = {0.0};
    result.log2_load = {-kInf};
  } else if (k == 2) {
    // Exact: rho([[0,a],[b,0]]) = sqrt(a*b), computed in log2 space.
    const double a = m[1];  // effect of link 2's power on link 1
    const double b = m[2];  // effect of link 1's power on link 2
    const double lg = 0.5 * (a + b);
    result.spectral_radius = safe_exp2(lg);
    result.iterations = 0;
    if (lg < std::log2(1.0 - options.strictness)) {
      if (a == -kInf && b == -kInf) {
        result.log2_power = {0.0, 0.0};
      } else if (a == -kInf) {
        // Only link 1 interferes with link 2: depress link 1's power.
        result.log2_power = {std::min(0.0, -b - 1.0), 0.0};
      } else if (b == -kInf) {
        result.log2_power = {0.0, std::min(0.0, -a - 1.0)};
      } else {
        // Balanced Perron powers p1/p2 = sqrt(M12 / M21).
        result.log2_power = {0.0, 0.5 * (b - a)};
      }
      const double mx =
          std::max(result.log2_power[0], result.log2_power[1]);
      for (double& p : result.log2_power) p -= mx;
      result.log2_load = {a + result.log2_power[1] - result.log2_power[0],
                          b + result.log2_power[0] - result.log2_power[1]};
      result.feasible = true;
    }
  } else {
    // Power iteration in log2 space. The Collatz–Wielandt inequality gives
    // rho <= max_i (Mx)_i / x_i for every positive x, so as soon as the max
    // ratio drops below the feasibility threshold we can stop: the current
    // iterate is itself a certified power vector (each link's load is at
    // most the max ratio). Ambiguous spectra iterate up to the budget.
    std::vector<double> v(k, 0.0), w(k, -kInf), terms(k);
    double rho_upper = kInf;
    double min_ratio = -kInf;  // Collatz–Wielandt lower bound on log2 rho
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      ++result.iterations;
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = 0; b < k; ++b) terms[b] = m[a * k + b] + v[b];
        w[a] = log2_sum_exp2(terms);
      }
      double max_ratio = -kInf;
      double max_w = -kInf;
      min_ratio = kInf;
      for (std::size_t a = 0; a < k; ++a) {
        if (w[a] != -kInf) max_ratio = std::max(max_ratio, w[a] - v[a]);
        min_ratio = std::min(min_ratio, w[a] - v[a]);
        max_w = std::max(max_w, w[a]);
      }
      if (max_ratio == -kInf) {
        // No interference at all; trivially feasible.
        result.spectral_radius = 0.0;
        result.feasible = true;
        result.log2_power.assign(k, 0.0);
        result.log2_load.assign(k, -kInf);
        return result;
      }
      const double new_upper = safe_exp2(max_ratio);
      const bool upper_conclusive = new_upper < 1.0 - options.strictness;
      const bool converged =
          std::isfinite(rho_upper) &&
          std::abs(new_upper - rho_upper) <=
              options.tolerance * std::max(1.0, rho_upper);
      rho_upper = new_upper;
      if (upper_conclusive && iter > 0) break;
      // Normalize to max 0. Links receiving zero interference have w = -inf;
      // pin them far below the pack (their own SINR is unconstrained and a
      // low power keeps their outgoing interference negligible).
      for (std::size_t a = 0; a < k; ++a) {
        v[a] = w[a] == -kInf ? -500.0 : w[a] - max_w;
      }
      if (converged) break;
    }
    const double log2_threshold = std::log2(1.0 - options.strictness);
    if (!(rho_upper < 1.0 - options.strictness) &&
        min_ratio < log2_threshold) {
      // The plain iteration stalls on nearly periodic gain matrices (a
      // strongly coupled pair plus weakly coupled rest puts eigenvalues
      // +-rho on the spectrum, and the upper bound then alternates between
      // the pair's members without dropping), so it rejects sets whose
      // spectral radius is far below 1. The CW lower bound has not proven
      // infeasibility, so continue on M + I: same eigenvectors, eigenvalues
      // shifted by 1, a strictly dominant Perron root, and the iterate's
      // ratios under M still certify or refute.
      rho_upper = kInf;
      for (int iter = 0; iter < options.max_iterations; ++iter) {
        ++result.iterations;
        double max_ratio = -kInf;
        double max_w = -kInf;
        min_ratio = kInf;
        for (std::size_t a = 0; a < k; ++a) {
          for (std::size_t b = 0; b < k; ++b) {
            terms[b] = m[a * k + b] + v[b];
          }
          w[a] = log2_sum_exp2(terms);  // (Mv)_a
          max_ratio = std::max(max_ratio, w[a] - v[a]);
          min_ratio = std::min(min_ratio, w[a] - v[a]);
        }
        const double new_upper = safe_exp2(max_ratio);
        const bool converged =
            std::isfinite(rho_upper) &&
            std::abs(new_upper - rho_upper) <=
                options.tolerance * std::max(1.0, rho_upper);
        rho_upper = new_upper;
        if (new_upper < 1.0 - options.strictness ||
            min_ratio >= log2_threshold || converged) {
          break;
        }
        for (std::size_t a = 0; a < k; ++a) {
          // ((M + I) v)_a = 2^w_a + 2^v_a, in log2 space.
          const double hi = std::max(w[a], v[a]);
          w[a] = hi + std::log2(std::exp2(w[a] - hi) + std::exp2(v[a] - hi));
          max_w = std::max(max_w, w[a]);
        }
        for (std::size_t a = 0; a < k; ++a) v[a] = w[a] - max_w;
      }
    }
    result.spectral_radius = rho_upper;
    if (rho_upper < 1.0 - options.strictness) {
      // Only the Collatz–Wielandt exit gets here feasible: w = Mv is the
      // last product, so each load is w_a - v_a.
      result.log2_load.resize(k);
      for (std::size_t a = 0; a < k; ++a) {
        result.log2_load[a] = w[a] == -kInf ? -kInf : w[a] - v[a];
      }
      result.log2_power = v;
      result.feasible = true;
    }
  }

  if (!result.feasible) return result;

  // Noise-free instances need no second pass: a feasible verdict above is
  // already certified by its power vector (the k == 2 branch solves the
  // 2x2 system exactly, and the iterative branch only accepts via the
  // Collatz–Wielandt bound — every link's load under the returned vector
  // is at most rho_upper < 1 - strictness). Re-deriving the same loads
  // through check_feasible would double the call's cost for nothing.
  if (params.noise <= 0.0) return result;

  // Certify with an explicit power vector. With noise, run the
  // Foschini–Miljanic fixed-point update in log2 space first.
  const PowerControlResult noise_free = result;
  PowerAssignment slot_power = embed_slot_power(links, set, result);
  if (params.noise > 0.0) {
    std::vector<double> lp(k);
    for (std::size_t a = 0; a < k; ++a) {
      lp[a] = std::log2((1.0 + params.epsilon) * params.beta * params.noise) +
              params.alpha * std::log2(links.length(set[a]));
    }
    std::vector<double> terms(k + 1);
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = 0; b < k; ++b) terms[b] = m[a * k + b] + lp[b];
        terms[k] = std::log2(params.beta * params.noise) +
                   params.alpha * std::log2(links.length(set[a]));
        lp[a] = log2_sum_exp2(terms);
      }
    }
    // Headroom against the exact-equality fixed point.
    for (double& p : lp) p += std::log2(1.0 + params.epsilon);
    result.log2_power = lp;
    result.log2_load = log2_loads(links, set, params, m, lp);
    slot_power = embed_slot_power(links, set, result);
  }
  result.feasible =
      check_feasible(links, set, params, slot_power, 1e-7).feasible;
  if (!result.feasible) {
    // The update contracts at rate ~rho per sweep, so near rho = 1 the
    // budget ends short of the fixed point. The noise-free vector still
    // certifies the set: its loads are at most r < 1, and scaled up until
    // noise adds at most (1 - r) / 2 to any load it stays valid.
    double log2_r = -kInf;
    double log2_scale = -kInf;
    for (std::size_t a = 0; a < k; ++a) {
      log2_r = std::max(log2_r, noise_free.log2_load[a]);
      log2_scale = std::max(log2_scale, log2_own_noise(links, params, set[a]) -
                                            noise_free.log2_power[a]);
    }
    log2_scale -= std::log2(0.5 * (1.0 - safe_exp2(log2_r)));
    result.log2_power = noise_free.log2_power;
    for (double& p : result.log2_power) p += log2_scale;
    result.log2_load = log2_loads(links, set, params, m, result.log2_power);
    slot_power = embed_slot_power(links, set, result);
    result.feasible =
        check_feasible(links, set, params, slot_power, 1e-7).feasible;
  }
  return result;
}

PowerAssignment embed_slot_power(const geom::LinkView& links,
                                 std::span<const std::size_t> set,
                                 const PowerControlResult& result) {
  if (result.log2_power.size() != set.size()) {
    throw std::invalid_argument("embed_slot_power: size mismatch");
  }
  std::vector<double> lp(links.size(), 0.0);
  for (std::size_t a = 0; a < set.size(); ++a) {
    lp.at(set[a]) = result.log2_power[a];
  }
  return PowerAssignment(std::move(lp), "power-control");
}

}  // namespace wagg::sinr
