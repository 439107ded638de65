#ifndef WAGG_SCHEDULE_LEDGER_H
#define WAGG_SCHEDULE_LEDGER_H

#include <cstddef>
#include <span>
#include <vector>

#include "geom/linkset.h"
#include "sinr/feasibility.h"
#include "sinr/model.h"
#include "sinr/power.h"

namespace wagg::schedule {

/// One slot's ledger entry: its members, a log2 power x_i per member, and a
/// load bound r_i per member with
///   r_i >= beta * (sum_{j != i} 2^(x_j - x_i) (l_i / d_ji)^alpha
///                  + N l_i^alpha / 2^x_i),
/// i.e. an upper bound on member i's SINR load under the powers x. Vectors
/// are aligned with `members` (dense indices of the ledger's view).
struct LedgerSlot {
  std::vector<std::size_t> members;
  std::vector<double> log2_power;
  std::vector<double> load;
  /// The bounds equal the exact loads: nothing left the slot since they
  /// were computed (a departure leaves r_i as a stale upper bound).
  bool exact = false;

  /// 0 for an empty slot; +inf while any member's powers are unknown.
  [[nodiscard]] double max_load() const noexcept;
};

/// Feasibility decisions a ledger answered from its bounds (hits) versus
/// those that ran the exact decision (misses).
struct CertificateCounts {
  std::size_t hits = 0;
  std::size_t misses = 0;
};

/// The certified slot ledger of one LinkView: maintains LedgerSlots under
/// single-link insertions in O(|slot|) each and decides slot feasibility
/// from the bounds, falling back to the exact decision only when the bounds
/// cannot.
///
/// Two power rules:
///   * pinned (fixed-power modes): x is the mode's PowerAssignment; a slot
///     is feasible iff every load is <= 1 + tolerance, the exact check of
///     sinr::is_feasible. Bounds that went stale through a departure are
///     recomputed exactly (O(|slot|^2)) before a rejection is final.
///   * carried (arbitrary power control): x is carried from the last
///     certificate; an inserted link j gets the power that puts its own load
///     at kInsertLoad. max_i r_i <= 1 - strictness certifies the slot (the
///     Collatz–Wielandt bound: the slot's spectral radius is below the
///     threshold and x itself is a valid power vector). Otherwise the
///     decision falls to sinr::power_control_feasible, whose vector (and
///     loads) re-seed the slot when it accepts — a miss gives exactly the
///     cold oracle's verdict.
///
/// Holds probe work buffers: one instance per thread.
class SlotLedger {
 public:
  /// Pinned rule: powers fixed to `power` (indexed like `links`, copied).
  /// `links` must outlive the ledger.
  SlotLedger(const geom::LinkView& links, const sinr::SinrParams& params,
             const sinr::PowerAssignment& power, double tolerance = 1e-9);
  /// Carried rule: arbitrary power control. `links` must outlive the
  /// ledger.
  SlotLedger(const geom::LinkView& links, const sinr::SinrParams& params,
             sinr::PowerControlOptions options = {});

  [[nodiscard]] const geom::LinkView& links() const noexcept {
    return links_;
  }
  /// max_i r_i within the acceptance threshold.
  [[nodiscard]] bool certifies(const LedgerSlot& slot) const noexcept {
    return slot.max_load() <= bound_;
  }

  /// A slot of `members` whose powers are unknown: x pinned (or 0), every
  /// bound +inf, so any decision on it runs the exact check. O(|members|).
  [[nodiscard]] LedgerSlot unknown(
      std::span<const std::size_t> members) const;
  /// The singleton slot {link} with exact bounds.
  [[nodiscard]] LedgerSlot open(std::size_t link);
  /// Adds `link` unconditionally in O(|slot|): one row (its own load) and
  /// one column (its load on every member). A shared node makes its load
  /// +inf. Returns whether the link's own load and every member's new
  /// bound stay within the threshold: for a slot that certified before,
  /// whether it still does.
  bool insert(LedgerSlot& slot, std::size_t link);
  /// Adds `link` with an unknown (+inf) bound in O(1). Loads only grow
  /// under insertion, so this is for a slot already over bound, whose
  /// verdict no further insertion can bring back within it.
  void append(LedgerSlot& slot, std::size_t link) const;
  /// Recomputes the exact loads under the slot's current x. O(|slot|^2).
  void reseed(LedgerSlot& slot) const;

  /// Decides whether the slot as it stands is feasible: a hit when the
  /// bounds certify it (or, pinned, exactly reject it), else the exact
  /// decision — pinned, the members re-added in order, stopping at the
  /// first overload. On acceptance the slot holds powers and bounds that
  /// certify the verdict (pinned: its exact loads); a rejected slot is left
  /// as it was.
  [[nodiscard]] bool settle(LedgerSlot& slot, CertificateCounts& counts);
  /// Decides whether `link` may join `sub`, adding it on acceptance; `sub`
  /// itself must be feasible. Same hit/miss rule as settle.
  [[nodiscard]] bool admit(LedgerSlot& sub, std::size_t link,
                           CertificateCounts& counts);

 private:
  /// A new member's own load under the carried rule.
  static constexpr double kInsertLoad = 0.3;

  SlotLedger(const geom::LinkView& links, const sinr::SinrParams& params,
             const sinr::PowerAssignment* power, double bound,
             sinr::PowerControlOptions options);
  /// Pinned exact decision: rebuilds the slot's loads by insertion in
  /// member order, false at the first overload (slot untouched).
  bool rebuild(LedgerSlot& slot);
  /// Replaces the slot's x and bounds with a feasible power-control result
  /// computed on exactly `slot.members` (in that order).
  static void seed(LedgerSlot& slot, const sinr::PowerControlResult& result);
  /// What inserting `link` would do, computed into the probe buffers
  /// without touching the slot; true iff every load stays within bound.
  /// With stop_early the probe ends at the first overload (and must not be
  /// committed).
  bool probe(const LedgerSlot& slot, std::size_t link, bool stop_early);
  [[nodiscard]] bool pinned() const noexcept { return pinned_; }
  void commit(LedgerSlot& slot, std::size_t link) const;
  /// beta * 2^(x_j - x_i) * (l_i / d_ji)^alpha given log2 d_ji,
  /// saturating instead of overflowing.
  [[nodiscard]] double term(double x_j, double x_i, std::size_t i,
                            double log2_d) const noexcept;
  /// beta * N * l_i^alpha / 2^x_i.
  [[nodiscard]] double noise_load(std::size_t i, double x_i) const noexcept;

  const geom::LinkView& links_;
  sinr::SinrParams params_;
  bool pinned_ = false;
  sinr::PowerControlOptions options_;
  double bound_ = 1.0;
  double log2_beta_ = 0.0;
  std::vector<double> log2_len_;
  std::vector<double> pinned_power_;  ///< pinned rule: each link's log2 power
  std::vector<double> pinned_noise_;  ///< pinned rule: each link's noise load
  // ---- probe buffers ----
  double probe_power_ = 0.0;
  double probe_load_ = 0.0;
  std::vector<double> probe_gain_;    ///< j's load on each member
  std::vector<double> probe_log2_d_;  ///< log2 d_kj per member k
  std::vector<double> probe_row_;     ///< carried rule: log-sum-exp input
  std::vector<std::size_t> trial_;
};

}  // namespace wagg::schedule

#endif  // WAGG_SCHEDULE_LEDGER_H
