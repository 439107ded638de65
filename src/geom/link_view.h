#ifndef WAGG_GEOM_LINK_VIEW_H
#define WAGG_GEOM_LINK_VIEW_H

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geom/point.h"

namespace wagg::geom {

/// Stable 64-bit link identifier. Ids are allocated by a LinkStore (or are
/// the identity 0..n-1 for containers built without one) and never reused,
/// so they survive node insertion/removal/movement across epochs. -1 marks
/// "no link".
using LinkId = std::int64_t;

inline constexpr LinkId kNoLink = -1;

/// A directed communication request from sender node to receiver node,
/// stored as indices into the owning container's pointset.
struct Link {
  std::int32_t sender = -1;
  std::int32_t receiver = -1;

  friend bool operator==(const Link&, const Link&) = default;
};

/// The dense, contiguous read surface every per-plan consumer operates on
/// (conflict graphs, coloring, schedules, SINR feasibility, power control).
///
/// A LinkView is a snapshot: links occupy dense indices 0..size()-1, each
/// carrying its stable LinkId (ids()[i]); lengths are precomputed columns.
/// Mutation-aware producers (geom::LinkStore via the dynamic planner) build
/// one view per epoch from only the live link set and reuse it across every
/// pipeline stage; static pipelines use the owning subclass LinkSet, whose
/// validating constructor assigns identity ids.
///
/// Notation follows the paper: for links i, j
///   l_i          = length(i)                (sender-to-receiver distance)
///   d_ji         = sinr_distance(j, i)      (sender of j to receiver of i)
///   d(i, j)      = link_distance(i, j)      (min over the 4 node pairs)
///   Delta        = delta()                  (max length / min length)
class LinkView {
 public:
  LinkView() = default;

  [[nodiscard]] std::size_t size() const noexcept { return links_.size(); }
  [[nodiscard]] bool empty() const noexcept { return links_.empty(); }
  [[nodiscard]] std::size_t num_points() const noexcept {
    return points_.size();
  }

  [[nodiscard]] const Pointset& points() const noexcept { return points_; }
  [[nodiscard]] std::span<const Link> links() const noexcept { return links_; }
  [[nodiscard]] const Link& link(std::size_t i) const { return links_.at(i); }

  /// Stable ids, aligned with dense indices. Views built without a store
  /// (plain LinkSets) use the identity mapping ids()[i] == i.
  [[nodiscard]] std::span<const LinkId> ids() const noexcept { return ids_; }
  [[nodiscard]] LinkId id_of(std::size_t i) const { return ids_.at(i); }

  [[nodiscard]] const Point& sender_pos(std::size_t i) const {
    return points_[static_cast<std::size_t>(links_[i].sender)];
  }
  [[nodiscard]] const Point& receiver_pos(std::size_t i) const {
    return points_[static_cast<std::size_t>(links_[i].receiver)];
  }

  /// l_i: the length of link i.
  [[nodiscard]] double length(std::size_t i) const { return lengths_[i]; }
  [[nodiscard]] std::span<const double> lengths() const noexcept {
    return lengths_;
  }

  /// d_ji = d(s_j, r_i): the SINR interference distance from link j's sender
  /// to link i's receiver. sinr_distance(i, i) == length(i).
  [[nodiscard]] double sinr_distance(std::size_t j, std::size_t i) const {
    return distance(sender_pos(j), receiver_pos(i));
  }
  [[nodiscard]] double squared_sinr_distance(std::size_t j,
                                             std::size_t i) const {
    return squared_distance(sender_pos(j), receiver_pos(i));
  }
  /// log2 d_ji as 0.5 * log2(d_ji^2), with no square root, while the square
  /// is a finite positive double; past that (coordinates beyond ~1e154,
  /// where the square overflows) through sinr_distance's overflow-safe
  /// hypot. -inf when the two nodes coincide.
  [[nodiscard]] double log2_sinr_distance(std::size_t j, std::size_t i) const {
    const double d2 = squared_sinr_distance(j, i);
    if (d2 > 0.0 && d2 <= std::numeric_limits<double>::max()) {
      return 0.5 * std::log2(d2);
    }
    return std::log2(sinr_distance(j, i));
  }

  /// d(i, j): minimum distance between the nodes of links i and j
  /// (0 if they share a node). This is the metric of the conflict graphs.
  [[nodiscard]] double link_distance(std::size_t i, std::size_t j) const;

  [[nodiscard]] double min_length() const;
  [[nodiscard]] double max_length() const;

  /// Delta = max link length / min link length. Throws if empty.
  [[nodiscard]] double delta() const;

  /// log2(Delta), computed without forming the ratio (survives instances
  /// whose Delta is representable only in log space via lengths; for lengths
  /// already stored as doubles this is exact enough).
  [[nodiscard]] double log2_delta() const;

  /// True if links i and j share an endpoint node (index equality).
  [[nodiscard]] bool shares_node(std::size_t i, std::size_t j) const noexcept;

  /// The sub-view induced by the given link indices. The pointset is
  /// compacted to the endpoints actually referenced, so the result costs
  /// O(|indices|), not O(num_points). Stable ids carry over.
  [[nodiscard]] LinkView subset_view(std::span<const std::size_t> indices)
      const;

  /// Indices 0..size()-1 sorted by non-increasing length; ties broken by
  /// link index so the order (and thus every schedule) is deterministic.
  [[nodiscard]] std::vector<std::size_t> by_decreasing_length() const;

  /// Indices sorted by non-decreasing length, same deterministic tie-break.
  [[nodiscard]] std::vector<std::size_t> by_increasing_length() const;

 protected:
  /// Trusted assembly for subclasses and the store snapshotter: columns must
  /// be consistent (same size, valid indices, positive lengths).
  LinkView(Pointset points, std::vector<Link> links,
           std::vector<double> lengths, std::vector<LinkId> ids)
      : points_(std::move(points)),
        links_(std::move(links)),
        lengths_(std::move(lengths)),
        ids_(std::move(ids)) {}

  Pointset points_;
  std::vector<Link> links_;
  std::vector<double> lengths_;
  std::vector<LinkId> ids_;

  friend class LinkStore;
};

}  // namespace wagg::geom

#endif  // WAGG_GEOM_LINK_VIEW_H
