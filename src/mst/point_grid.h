#ifndef WAGG_MST_POINT_GRID_H
#define WAGG_MST_POINT_GRID_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

// wagg-lint: allow(class-grid) cell_key mixer only; no grid/row-cache state
#include "conflict/class_grid.h"
#include "geom/point.h"

namespace wagg::mst::detail {

/// One nearest-candidate answer: the point id minimizing (squared distance,
/// id), or id == -1 when no admissible point exists. w2 is in rescaled
/// units (distances times an exact power of two ~ 1 / cell): it ranks like
/// the world squared distance without overflowing at extreme scales.
struct NearCandidate {
  std::int32_t id = -1;
  double w2 = std::numeric_limits<double>::infinity();
};

/// Uniform hash grid over a point set — the EXACT nearest-neighbor index
/// behind euclidean_mst's cone star and IncrementalMst. It shares
/// conflict::detail::ClassGrid's mixed cell keys and saturating coordinates.
///
/// Searches walk expanding Chebyshev rings of cells, and within a ring only
/// the cells meeting a still-open 60-degree cone and the occupied window
/// (occupied cells plus the query's cell). A cone closes once its best is
/// strictly closer than the ring, or once no window cell of the ring meets
/// it: the window is a rectangle around the query, so its intersection with
/// the cone is convex and every later ring would cross this one first. Hull
/// points with empty cones thus stop at the window edge. A search that
/// walks more cells than the grid occupies falls back to one exact sweep.
class PointGrid {
 public:
  PointGrid() = default;

  /// Resets to an empty grid with the given cell size (> 0) whose cell
  /// (0, 0) has its lower-left corner at `origin` — pass a corner of the
  /// instance so cell coordinates stay small and precise.
  void reset(double cell, const geom::Point& origin = {}) {
    if (!(cell > 0.0) || !std::isfinite(cell)) {
      throw std::invalid_argument("PointGrid: cell size must be positive");
    }
    cells_.clear();
    cell_ = cell;
    origin_ = origin;
    int exponent = 0;
    std::frexp(cell, &exponent);
    scale_ = std::ldexp(1.0, -exponent);
    num_points_ = 0;
    min_cx_ = min_cy_ = std::numeric_limits<std::int64_t>::max();
    max_cx_ = max_cy_ = std::numeric_limits<std::int64_t>::min();
  }

  /// Resets to an empty grid tuned for `points` (any range of geom::Point):
  /// the cell holds ~8 points of a uniform instance, so searches resolve in
  /// O(1) rings there (a probe costs about as much as several considered
  /// points, so finer cells cost cone searches 15-30% more); degenerate
  /// extents get a unit cell. The grid's origin is the points' lower-left
  /// corner.
  template <typename Points>
  void reset_for(const Points& points) {
    geom::Point lo{}, hi{};
    std::size_t count = 0;
    for (const geom::Point& p : points) {
      lo = count == 0 ? p : geom::Point{std::min(lo.x, p.x),
                                        std::min(lo.y, p.y)};
      hi = count++ == 0 ? p : geom::Point{std::max(hi.x, p.x),
                                          std::max(hi.y, p.y)};
    }
    const double diag = std::hypot(hi.x - lo.x, hi.y - lo.y);
    const double cell =
        2.0 * diag / (std::sqrt(static_cast<double>(count)) + 1.0);
    reset(cell > 0.0 && std::isfinite(cell) ? cell : 1.0, lo);
  }

  /// Lifetime count of searches that fell back to the exact occupied-cell
  /// sweep (survives reset()), surfaced as mst.grid_fallback_sweeps — a
  /// climb means the cell tuning no longer matches the density spread.
  [[nodiscard]] std::uint64_t fallback_sweeps() const noexcept {
    return fallback_sweeps_;
  }

  void insert(std::int32_t id, const geom::Point& p) {
    const auto [cx, cy] = coords(p);
    cells_[conflict::detail::cell_key(cx, cy)].push_back(Entry{p, id});
    ++num_points_;
    min_cx_ = std::min(min_cx_, cx);
    max_cx_ = std::max(max_cx_, cx);
    min_cy_ = std::min(min_cy_, cy);
    max_cy_ = std::max(max_cy_, cy);
  }

  /// Removes one (id, p) entry inserted earlier; `p` must be bit-identical
  /// to the inserted position. Throws std::logic_error when absent. The
  /// occupied window never shrinks: staleness costs walks, not correctness.
  void erase(std::int32_t id, const geom::Point& p) {
    const auto [cx, cy] = coords(p);
    const auto it = cells_.find(conflict::detail::cell_key(cx, cy));
    if (it == cells_.end()) {
      throw std::logic_error("PointGrid::erase: cell not found");
    }
    auto& entries = it->second;
    const auto pos =
        std::find_if(entries.begin(), entries.end(),
                     [&](const Entry& e) { return e.id == id; });
    if (pos == entries.end()) {
      throw std::logic_error("PointGrid::erase: id not in cell");
    }
    *pos = entries.back();
    entries.pop_back();
    if (entries.empty()) cells_.erase(it);
    --num_points_;
  }

  /// The 60-degree cone containing direction (dx, dy): cone k spans the
  /// angles [-180 + 60k, -120 + 60k) degrees. Two directions in one cone are
  /// at most 60 degrees apart (up to boundary rounding), which is what makes
  /// nearest-per-cone a sufficient MST candidate star. No trigonometry.
  [[nodiscard]] static int cone_of(double dx, double dy) noexcept {
    constexpr double kSqrt3 = 1.7320508075688772;
    if (dy >= 0.0) {
      if (dy < kSqrt3 * dx) return 3;
      return dy > -kSqrt3 * dx ? 4 : 5;
    }
    if (dy > kSqrt3 * dx) return 0;
    return dy < -kSqrt3 * dx ? 1 : 2;
  }

  /// Exact nearest admissible point per 60-degree cone around `from`,
  /// minimizing (squared distance, id) within each cone. `excluded(id)`
  /// filters (e.g. the query point itself). Cones with no admissible point
  /// report id == -1.
  template <typename ExcludeFn>
  [[nodiscard]] std::array<NearCandidate, 6> cone_nearest(
      const geom::Point& from, ExcludeFn&& excluded) const {
    std::array<NearCandidate, 6> best{};
    search(from, excluded, best, std::numeric_limits<double>::infinity());
    return best;
  }

  /// Exact nearest admissible point overall (same contract, one cone-less
  /// answer) — the reconnection primitive of IncrementalMst::detach.
  /// `limit_w2` (WORLD squared distance) prunes the search: the answer is
  /// exact for squared distances <= limit_w2, and id == -1 beyond it
  /// (callers that already hold a candidate at limit_w2 lose nothing).
  /// Points AT the limit are still found, so (w2, id) tie-breaks against
  /// the caller's candidate stay exact.
  template <typename ExcludeFn>
  [[nodiscard]] NearCandidate nearest(
      const geom::Point& from, ExcludeFn&& excluded,
      double limit_w2 = std::numeric_limits<double>::infinity()) const {
    std::array<NearCandidate, 1> best{};
    search(from, excluded, best, limit_w2 * scale_ * scale_);
    return best[0];
  }

 private:
  struct Entry {
    geom::Point p;
    std::int32_t id = -1;
  };
  /// A cone's lateral slopes {lo, hi} across one ring side (NaN: it faces
  /// away from the side).
  using Slopes = std::array<double, 2>;

  /// Cells a search may walk (or the occupied count, if larger) before it
  /// falls back to the exact sweep.
  static constexpr std::size_t kRingBudget = 128;
  /// Beyond this, cell coordinates lose sub-cell precision: sweep instead.
  static constexpr double kWindowLimit = 1125899906842624.0;  // 2^50

  [[nodiscard]] std::pair<std::int64_t, std::int64_t> coords(
      const geom::Point& p) const {
    return {conflict::detail::saturating_cell((p.x - origin_.x) / cell_),
            conflict::detail::saturating_cell((p.y - origin_.y) / cell_)};
  }

  /// slopes()[side][cone], sides right, top, left, bottom: lateral offset
  /// per unit of outward distance over the cone's directions facing the
  /// side (+-inf at the side's parallel). Angles in units of 30 degrees.
  static const std::array<std::array<Slopes, 6>, 4>& slopes() {
    static const auto table = [] {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      constexpr double kTan[7] = {-kInf, -1.7320508075688772,
                                  -0.57735026918962573, 0.0,
                                  0.57735026918962573, 1.7320508075688772,
                                  kInf};
      constexpr int kNormal[4] = {0, 3, 6, -3};
      constexpr int kSign[4] = {1, -1, -1, 1};
      constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
      std::array<std::array<Slopes, 6>, 4> out;
      for (auto& side : out) side.fill({kNaN, kNaN});
      for (int side = 0; side < 4; ++side) {
        for (int cone = 0; cone < 6; ++cone) {
          int lo = -6 + 2 * cone - kNormal[side];
          while (lo <= -6) lo += 12;
          while (lo > 6) lo -= 12;
          const int hi = lo + 2;
          if (lo >= 3 || hi <= -3) continue;
          const double t_lo = kTan[std::max(lo, -3) + 3];
          const double t_hi = kTan[std::min(hi, 3) + 3];
          out[side][cone] = kSign[side] > 0 ? Slopes{t_lo, t_hi}
                                            : Slopes{-t_hi, -t_lo};
        }
      }
      return out;
    }();
    return table;
  }

  template <std::size_t N, typename ExcludeFn>
  void consider(const geom::Point& from, const ExcludeFn& excluded,
                std::array<NearCandidate, N>& best, const Entry& e) const {
    if (excluded(e.id)) return;
    const double dx = (e.p.x - from.x) * scale_;
    const double dy = (e.p.y - from.y) * scale_;
    const double w2 = dx * dx + dy * dy;
    NearCandidate& slot =
        best[N == 1 ? 0 : static_cast<std::size_t>(cone_of(dx, dy))];
    if (w2 < slot.w2 || (w2 == slot.w2 && e.id < slot.id)) {
      slot.id = e.id;
      slot.w2 = w2;
    }
  }

  template <std::size_t N, typename ExcludeFn>
  void sweep_all(const geom::Point& from, const ExcludeFn& excluded,
                 std::array<NearCandidate, N>& best) const {
    for (const auto& [key, entries] : cells_) {
      for (const Entry& e : entries) consider(from, excluded, best, e);
    }
  }

  template <std::size_t N, typename ExcludeFn>
  void probe(std::int64_t cx, std::int64_t cy, const geom::Point& from,
             const ExcludeFn& excluded,
             std::array<NearCandidate, N>& best) const {
    const auto it = cells_.find(conflict::detail::cell_key(cx, cy));
    if (it == cells_.end()) return;
    for (const Entry& e : it->second) {
      consider(from, excluded, best, e);
    }
  }

  template <std::size_t N, typename ExcludeFn>
  void search(const geom::Point& from, const ExcludeFn& excluded,
              std::array<NearCandidate, N>& best, double limit_w2) const {
    if (num_points_ == 0) return;

    // Query position in cell units; (fx, fy) is its offset inside its own
    // cell and `slack` absorbs the rounding of every cell-unit coordinate.
    const double ux = (from.x - origin_.x) / cell_;
    const double uy = (from.y - origin_.y) / cell_;
    if (!(std::abs(ux) < kWindowLimit && std::abs(uy) < kWindowLimit) ||
        std::max({-min_cx_, max_cx_, -min_cy_, max_cy_}) >
            static_cast<std::int64_t>(kWindowLimit)) {
      ++fallback_sweeps_;
      sweep_all(from, excluded, best);
      return;
    }
    const auto [cx, cy] = coords(from);
    const double fx = ux - static_cast<double>(cx);
    const double fy = uy - static_cast<double>(cy);
    const double slack = 1e-9 * (1.0 + std::abs(ux) + std::abs(uy));
    // The occupied window plus the query's cell, relative to the query's
    // cell: ring cells outside it hold no points.
    const std::int64_t win_x0 = std::min(min_cx_, cx) - cx;
    const std::int64_t win_x1 = std::max(max_cx_, cx) - cx;
    const std::int64_t win_y0 = std::min(min_cy_, cy) - cy;
    const std::int64_t win_y1 = std::max(max_cy_, cy) - cy;
    const double margin = std::min({fx, 1.0 - fx, fy, 1.0 - fy});
    const double unit = cell_ * scale_;  // one cell in rescaled units
    const std::size_t budget = std::max(kRingBudget, cells_.size());

    const auto& table = slopes();
    probe(cx, cy, from, excluded, best);
    std::size_t probed = 1;
    std::array<bool, N> open;
    open.fill(true);
    for (std::int64_t r = 1;; ++r) {
      // Certification: every ring-r cell lies at least ring_min from the
      // query, so a strictly closer best is final (strict, because an
      // equal-distance point with a smaller id could still appear). Past
      // the caller's limit, unseen points are irrelevant by contract.
      const double ring_min =
          std::max(0.0, (static_cast<double>(r) - 1.0 + margin - slack) * unit);
      const double ring_min2 = ring_min * ring_min;
      if (ring_min2 > limit_w2) return;
      bool any_open = false;
      for (std::size_t k = 0; k < N; ++k) {
        open[k] = open[k] && !(best[k].w2 < ring_min2);
        any_open = any_open || open[k];
      }
      if (!any_open) return;
      if (probed > budget) {
        ++fallback_sweeps_;
        sweep_all(from, excluded, best);
        return;
      }
      // Walk the four sides: right, top, left, bottom. Each side is one
      // column or row of cells at outward distance [u0, u1] from the query
      // (cell units), indexed along the side relative to the query's cell.
      std::array<bool, N> reached{};
      for (int side = 0; side < 4; ++side) {
        const bool vertical = side == 0 || side == 2;
        const std::int64_t at = side < 2 ? r : -r;
        if (vertical ? (at < win_x0 || at > win_x1)
                     : (at < win_y0 || at > win_y1)) {
          continue;
        }
        const double offset = side < 2 ? static_cast<double>(r) -
                                             (vertical ? fx : fy)
                                       : (vertical ? fx : fy) +
                                             static_cast<double>(r) - 1.0;
        const double along = vertical ? fy : fx;
        const std::int64_t lo_bound =
            std::max(vertical ? win_y0 : win_x0, vertical ? 1 - r : -r);
        const std::int64_t hi_bound =
            std::min(vertical ? win_y1 : win_x1, vertical ? r - 1 : r);
        if (lo_bound > hi_bound) continue;
        // Probe the span of cells the open cones cross on this side.
        double first = std::numeric_limits<double>::infinity();
        double last = -first;
        for (std::size_t k = 0; k < N; ++k) {
          if (!open[k]) continue;
          double lo = -std::numeric_limits<double>::infinity();
          double hi = std::numeric_limits<double>::infinity();
          if constexpr (N == 6) {
            const Slopes& s = table[static_cast<std::size_t>(side)][k];
            if (std::isnan(s[0])) continue;
            if (std::isfinite(s[0])) {
              lo = along + (s[0] < 0.0 ? offset + 1.0 : offset) * s[0];
            }
            if (std::isfinite(s[1])) {
              hi = along + (s[1] > 0.0 ? offset + 1.0 : offset) * s[1];
            }
          }
          lo = std::max(std::floor(lo - slack), static_cast<double>(lo_bound));
          hi = std::min(std::floor(hi + slack), static_cast<double>(hi_bound));
          if (lo > hi) continue;
          reached[k] = true;
          first = std::min(first, lo);
          last = std::max(last, hi);
        }
        if (first > last) continue;
        for (auto j = static_cast<std::int64_t>(first);
             j <= static_cast<std::int64_t>(last); ++j) {
          probe(vertical ? cx + at : cx + j, vertical ? cy + j : cy + at,
                from, excluded, best);
          ++probed;
        }
      }
      // A cone that met no window cell on this ring never will again.
      for (std::size_t k = 0; k < N; ++k) open[k] = open[k] && reached[k];
    }
  }

  double cell_ = 1.0;
  geom::Point origin_{};
  double scale_ = 1.0;  ///< exact power of two with cell_ * scale_ in [0.5, 1)
  std::size_t num_points_ = 0;
  std::int64_t min_cx_ = 0, max_cx_ = 0, min_cy_ = 0, max_cy_ = 0;
  std::unordered_map<std::uint64_t, std::vector<Entry>> cells_;
  /// Queries are const; the fallback tally is telemetry, not state.
  mutable std::uint64_t fallback_sweeps_ = 0;
};

}  // namespace wagg::mst::detail

#endif  // WAGG_MST_POINT_GRID_H
