#ifndef WAGG_CONFLICT_CLASS_GRID_H
#define WAGG_CONFLICT_CLASS_GRID_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "geom/point.h"

namespace wagg::conflict::detail {

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t v) noexcept {
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ULL;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebULL;
  v ^= v >> 31;
  return v;
}

/// Cell key of integer grid coordinates. Both coordinates pass through a
/// full-width mix before combining, so coordinates beyond 32 bits (huge
/// extents or tiny cells) produce scattered — not systematically aliased —
/// keys. The old `(x << 32) ^ (y & 0xffffffff)` scheme silently collapsed
/// every x with equal low bits onto one bucket past 2^32, inflating
/// candidate lists. Deterministic: a pure function of (x, y).
[[nodiscard]] inline std::uint64_t cell_key(std::int64_t x,
                                            std::int64_t y) noexcept {
  return mix64(static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ULL) ^
         mix64(static_cast<std::uint64_t>(y) + 0x517cc1b727220a95ULL);
}

/// floor() result saturated into int64 — coordinates farther than 2^62 cells
/// from the origin clamp to the boundary instead of invoking UB on the cast.
/// Clamped cells merge, which only ever widens candidate lists (queries and
/// inserts saturate identically), never drops a true neighbor cell.
[[nodiscard]] inline std::int64_t saturating_cell(double q) noexcept {
  constexpr double kLimit = 4.611686018427387904e18;  // 2^62
  if (!(q > -kLimit)) return -(1LL << 62);            // also catches NaN
  if (q >= kLimit) return 1LL << 62;
  return static_cast<std::int64_t>(std::floor(q));
}

/// Uniform grid over the link endpoints of one power-of-two length class at
/// one cell size (ConflictIndex keeps one per class and query scale).
/// Values are link identifiers; every link contributes exactly two entries,
/// one per endpoint.
template <typename V>
class ClassGrid {
 public:
  ClassGrid(double cell, double origin_x, double origin_y)
      : cell_(cell), origin_x_(origin_x), origin_y_(origin_y) {}

  void insert(const geom::Point& p, V value) {
    const auto [cx, cy] = coords(p);
    auto& cell = cells_[cell_key(cx, cy)];
    if (cell.values.empty()) {
      cell.cx = cx;
      cell.cy = cy;
    }
    cell.values.push_back(value);
  }

  /// Removes one (p, value) entry inserted earlier; `p` must be the exact
  /// point given to insert (same bits, same cell). Throws std::logic_error
  /// when the entry is absent — the caller's bookkeeping desynchronized.
  void erase(const geom::Point& p, V value) {
    const auto it = cells_.find(key(p));
    if (it == cells_.end()) {
      throw std::logic_error("ClassGrid::erase: cell not found");
    }
    auto& bucket = it->second.values;
    const auto pos = std::find(bucket.begin(), bucket.end(), value);
    if (pos == bucket.end()) {
      throw std::logic_error("ClassGrid::erase: value not in cell");
    }
    *pos = bucket.back();
    bucket.pop_back();
    if (bucket.empty()) cells_.erase(it);
  }

  /// Collects the values of every cell meeting the square of half-width
  /// `radius` around `a` or around `b` (over-approximate, cell granularity,
  /// possibly with duplicates) and returns the number of cells looked up.
  /// When walking the two squares would touch more cells than the grid
  /// occupies, it scans the occupied cells instead and keeps each by the
  /// SAME cell-coordinate criterion, so both paths collect the identical
  /// set.
  std::size_t collect(const geom::Point& a, const geom::Point& b,
                      double radius, std::vector<V>& out) const {
    const Box box_a = box_of(a, radius);
    const Box box_b = box_of(b, radius);
    if (box_a.cells() + box_b.cells() >
        static_cast<double>(cells_.size()) + 64.0) {
      for (const auto& [k, cell] : cells_) {
        if (box_a.contains(cell.cx, cell.cy) ||
            box_b.contains(cell.cx, cell.cy)) {
          out.insert(out.end(), cell.values.begin(), cell.values.end());
        }
      }
      return cells_.size();
    }
    std::size_t probes = 0;
    for (const Box* box : {&box_a, &box_b}) {
      for (std::int64_t x = box->x0; x <= box->x1; ++x) {
        for (std::int64_t y = box->y0; y <= box->y1; ++y) {
          if (box == &box_b && box_a.contains(x, y)) continue;
          ++probes;
          const auto it = cells_.find(cell_key(x, y));
          if (it == cells_.end()) continue;
          out.insert(out.end(), it->second.values.begin(),
                     it->second.values.end());
        }
      }
    }
    return probes;
  }

 private:
  /// One occupied cell; the coordinates allow distance pruning when
  /// scanning occupied cells instead of walking a query square (the mixed
  /// map key cannot be inverted).
  struct Cell {
    std::int64_t cx = 0;
    std::int64_t cy = 0;
    std::vector<V> values;
  };

  /// Inclusive cell-coordinate rectangle.
  struct Box {
    std::int64_t x0, x1, y0, y1;
    [[nodiscard]] double cells() const {
      return (static_cast<double>(x1) - static_cast<double>(x0) + 1.0) *
             (static_cast<double>(y1) - static_cast<double>(y0) + 1.0);
    }
    [[nodiscard]] bool contains(std::int64_t x, std::int64_t y) const {
      return x >= x0 && x <= x1 && y >= y0 && y <= y1;
    }
  };

  /// Cells meeting the square [p - radius, p + radius]^2. Coordinates
  /// saturate, so the bounds stay inside int64 for any radius.
  [[nodiscard]] Box box_of(const geom::Point& p, double radius) const {
    return {saturating_cell((p.x - radius - origin_x_) / cell_),
            saturating_cell((p.x + radius - origin_x_) / cell_),
            saturating_cell((p.y - radius - origin_y_) / cell_),
            saturating_cell((p.y + radius - origin_y_) / cell_)};
  }
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> coords(
      const geom::Point& p) const {
    return {saturating_cell((p.x - origin_x_) / cell_),
            saturating_cell((p.y - origin_y_) / cell_)};
  }
  [[nodiscard]] std::uint64_t key(const geom::Point& p) const {
    const auto [cx, cy] = coords(p);
    return cell_key(cx, cy);
  }

  double cell_;
  double origin_x_;
  double origin_y_;
  std::unordered_map<std::uint64_t, Cell> cells_;
};

}  // namespace wagg::conflict::detail

#endif  // WAGG_CONFLICT_CLASS_GRID_H
