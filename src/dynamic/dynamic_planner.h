#ifndef WAGG_DYNAMIC_DYNAMIC_PLANNER_H
#define WAGG_DYNAMIC_DYNAMIC_PLANNER_H

#include <cstdint>
#include <span>
#include <vector>

#include "conflict/conflict_index.h"
#include "core/planner.h"
#include "dynamic/mutation.h"
#include "geom/link_store.h"
#include "geom/linkset.h"
#include "geom/point.h"
#include "mst/incremental.h"
#include "schedule/ledger.h"
#include "schedule/schedule.h"
#include "sinr/power.h"

namespace wagg::dynamic {

struct DynamicOptions {
  core::PlannerConfig config{};
  /// Re-plan every epoch from scratch as well, cross-checking the
  /// incremental plan's validity and recording rate/length deltas.
  bool audit = false;

  void validate() const;
};

/// Wall-clock breakdown of one epoch, milliseconds. One stage clock
/// (obs::StageSpan) bills every field: each equals the exclusive self time
/// of the span named after it (`mst_update`, `orient`, `conflict_maintain`,
/// `conflict_query`, `recolor`, `repair`, `power`) — every epoch, a
/// full_replan one included, runs the same stages. audit_ms covers only audit
/// mode's from-scratch replan and checks (`audit_full` + `audit` spans), so
/// incremental_ms() is the honest cost of the incremental engine. power_ms
/// covers on-demand slot-power materialization (slot_powers()), which runs
/// only when a consumer asks.
struct EpochTimings {
  /// Tree-layer cost, split so a dynamic-tree regression is visible
  /// separately from orientation-replay cost:
  ///   mst_update_ms — IncrementalMst point updates (dynamic-tree
  ///                   link/cut/path_max work, grid upkeep, bulk rebuilds);
  ///   orient_ms     — replaying the journaled edge diff onto the
  ///                   LinkStore (rehang flips, length refreshes) plus the
  ///                   dense per-epoch snapshot build, minus the index
  ///                   upkeep nested inside it.
  double mst_update_ms = 0.0;
  double orient_ms = 0.0;
  double conflict_maintain_ms = 0.0;  ///< ConflictIndex add/remove/update
  double conflict_query_ms = 0.0;     ///< dirty-row queries
  double recolor_ms = 0.0;  ///< dirty detection + seeded recoloring
  /// Slot carry-over + patch repair; a full_replan epoch's from-scratch
  /// plan check too.
  double repair_ms = 0.0;
  double power_ms = 0.0;    ///< on-demand per-slot power materialization
  double audit_ms = 0.0;    ///< audit-mode full replan + full verification

  /// The whole MST component of the epoch (tree updates + orientation).
  [[nodiscard]] double mst_ms() const noexcept {
    return mst_update_ms + orient_ms;
  }
  /// The whole conflict layer: index maintenance + row queries.
  [[nodiscard]] double conflict_ms() const noexcept {
    return conflict_maintain_ms + conflict_query_ms;
  }
  [[nodiscard]] double incremental_ms() const noexcept {
    return mst_ms() + conflict_ms() + recolor_ms + repair_ms;
  }
};

/// What one epoch did and produced.
struct EpochReport {
  std::size_t epoch = 0;              ///< 0 is the initial full plan
  std::size_t mutations_applied = 0;
  std::size_t num_nodes = 0;
  std::size_t num_links = 0;

  /// Links whose geometry or existence changed (the recolor set).
  std::size_t dirty_links = 0;
  /// Every link was re-planned (dirty_links == num_links): construction,
  /// the recovery after a failed epoch, and every noise-coupled epoch
  /// (fixed power with noise > 0). Nothing carried over, so `valid` is then
  /// a from-scratch check of every slot.
  bool full_replan = false;

  std::size_t slots = 0;
  /// Final slots carried over untouched from the previous epoch (zero
  /// oracle calls spent on them).
  std::size_t reused_slots = 0;
  /// Final slots produced by patch repair of changed color classes.
  std::size_t touched_slots = 0;
  /// Slot-feasibility decisions this epoch (what repair cost scales
  /// with). Each is a certificate hit (the slot ledger's bounds decided it
  /// in O(|slot|)) or a miss (the exact decision ran): oracle_calls ==
  /// hits + misses.
  std::size_t oracle_calls = 0;
  std::size_t certificate_hits = 0;
  std::size_t certificate_misses = 0;

  /// slot_powers() bookkeeping: slots whose powers were served from the
  /// slot ledger (the vector that certified the slot in repair) vs slots
  /// settled afresh because a failed epoch dropped their ledger entry.
  std::size_t power_slots_cached = 0;
  std::size_t power_slots_computed = 0;

  double rate = 0.0;
  /// Structural validity (schedule partitions the links). Feasibility of
  /// every slot is certified by a decision on exactly its membership — a
  /// ledger certificate or the oracle, either this epoch or, for slots
  /// whose membership did not change, a previous one; audit mode re-checks
  /// everything from scratch. A full_replan epoch checks every slot from
  /// scratch (kGlobal: under the powers that certified it).
  bool valid = false;

  EpochTimings timings;

  // ---- audit mode only ----
  bool audited = false;
  /// Every slot of the incremental schedule passed a fresh oracle check.
  bool audit_valid = false;
  /// kGlobal: every slot's carried ledger power vector passes
  /// sinr::check_feasible on its slot (tolerance 1e-6) — the audit
  /// certifies the deployed powers, not only the membership. Slots the
  /// ledger does not cover yet are skipped; fixed-power modes deploy their
  /// assignment, which audit_valid already checks.
  bool audit_power_valid = false;
  /// Incremental MST weight matches the from-scratch MST weight.
  bool audit_tree_match = false;
  /// The diff-maintained LinkStore orientation equals a from-scratch
  /// re-orientation (same edges, same sink-ward direction, same lengths).
  bool audit_store_match = false;
  /// The persistent ConflictIndex answers every link's conflict row exactly
  /// as a from-scratch bucket-grid query over the same snapshot, AND a
  /// repeat query served entirely from the diff-maintained row cache
  /// returns the same rows (cache ≡ from-scratch equality).
  bool audit_index_match = false;
  std::size_t audit_full_slots = 0;  ///< schedule length of the full replan
  double audit_full_rate = 0.0;
  double audit_full_ms = 0.0;        ///< wall clock of the full replan
};

/// Incremental planning session: wraps the paper's pipeline behind a
/// mutation-stream API and maintains a valid aggregation plan across epochs
/// at a cost proportional to the change, not the instance.
///
/// The cross-epoch source of truth is a geom::LinkStore in id-space: links
/// carry stable 64-bit ids that survive node insertion/removal/movement,
/// tree re-orientations are applied as in-place flips along the rehung
/// chains (no container rebuild), and per-field generation counters mark
/// exactly which links changed. Dense-index pipeline stages (conflict rows,
/// coloring, repair, verification) run on a geom::LinkView snapshot built
/// once per epoch from only the live set — no per-epoch LinkSet
/// reconstruction, no length recomputation, no key remapping.
///
/// Epoch pipeline:
///   1. mutations -> IncrementalMst (localized tree updates, exact), which
///      journals the edge diff;
///   2. the diff is replayed onto the LinkStore: removed edges drop their
///      links, added edges re-root the detached component by reversing the
///      parent chain (one store.flip per hop); links incident to moved
///      nodes refresh their length column;
///   3. a LinkView snapshot is built (dense order = increasing link id) and
///      links are classified dirty iff their store generation advanced
///      since the last plan;
///   4. conflict rows are queried for ONLY the dirty links (bucket-grid
///      subset queries) and first-fit recolored, seeding every surviving
///      link with its previous final slot (read from an id-indexed array);
///   5. slots whose membership is unchanged carry over verbatim (their old
///      certificate applies — no monotonicity assumption), slots that
///      shrank are re-checked with one decision each, and classes that
///      gained members are patch-repaired (schedule::patch_slot) against
///      the slot ledger: every final slot keeps its members' powers and
///      load bounds keyed by stable LinkId, so an insertion is decided in
///      O(|slot|) and only ledger misses run the exact oracle.
/// Every epoch runs this one loop. Construction, the recovery after a
/// failed epoch and noise-coupled epochs are the case where every link is
/// dirty: no seeds, every class all-loose, and the finished plan is checked
/// from scratch. Bulk mutation batches rebuild the tree wholesale and
/// reconcile the store against it (surviving pairs keep their ids, so their
/// slots still seed the recolor).
///
/// Not thread-safe; one session per thread (runtime::PlanService sessions
/// wrap instances for service use).
class DynamicPlanner : private geom::LinkStoreListener {
 public:
  /// Plans the initial epoch (every link dirty). The pointset's indices become
  /// stable node ids 0..n-1; options.config.sink names the sink node.
  DynamicPlanner(const geom::Pointset& initial, DynamicOptions options);

  // The planner registers itself as the store's mutation listener (the
  // conflict index rides the mutation path); moving it would leave the
  // store pointing at the old address.
  DynamicPlanner(const DynamicPlanner&) = delete;
  DynamicPlanner& operator=(const DynamicPlanner&) = delete;
  DynamicPlanner(DynamicPlanner&&) = delete;
  DynamicPlanner& operator=(DynamicPlanner&&) = delete;

  /// Applies one epoch: all mutations, then one incremental replan.
  /// Mutations referencing dead nodes, removing the sink, or shrinking the
  /// instance below 2 nodes throw std::invalid_argument. The plan is left
  /// on the previous epoch; the mutations preceding the bad one stay
  /// applied, and since their dirty tracking is lost with the failed call,
  /// the next successful epoch replans (and re-verifies) from scratch.
  EpochReport apply(std::span<const Mutation> mutations);
  EpochReport apply(const Mutation& mutation) {
    return apply(std::span<const Mutation>(&mutation, 1));
  }

  /// Applies a whole churn trace, one epoch per entry.
  std::vector<EpochReport> apply_trace(const ChurnTrace& trace);

  [[nodiscard]] const EpochReport& last_report() const noexcept {
    return report_;
  }
  [[nodiscard]] std::size_t epoch() const noexcept { return report_.epoch; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return mst_.num_alive();
  }
  [[nodiscard]] NodeId sink() const noexcept { return sink_id_; }
  [[nodiscard]] bool alive(NodeId id) const noexcept { return mst_.alive(id); }
  [[nodiscard]] const DynamicOptions& options() const noexcept {
    return options_;
  }

  /// Read access to the id-space link store (stable link ids, generation
  /// counters). Links reference stable node ids; snapshot().links holds the
  /// dense per-epoch view of the same data.
  [[nodiscard]] const geom::LinkStore& link_store() const noexcept {
    return store_;
  }

  /// The persistent conflict index maintained over the store's mutation
  /// stream (the planner is the store's listener). Always mirrors the live
  /// link set; epochs query dirty rows against it with zero rebuild.
  [[nodiscard]] const conflict::ConflictIndex& conflict_index()
      const noexcept {
    return conflict_index_;
  }

  /// The current plan, materialized with compact indices (ids[i] is the
  /// stable id of compact node i). Links and slots index into `links`;
  /// links.ids() exposes the stable link ids of the store.
  struct Snapshot {
    geom::Pointset points;
    std::vector<NodeId> ids;
    std::int32_t sink = 0;
    geom::LinkSet links;
    schedule::Schedule schedule;
    double rate = 0.0;
  };
  [[nodiscard]] const Snapshot& snapshot() const noexcept { return current_; }

  /// kGlobal only: the per-slot power vectors of the current schedule
  /// (aligned with snapshot().schedule.slots), materialized on demand. Each
  /// slot ships the vector that certified it in repair from the slot
  /// ledger (an embedding, no solve). Only a failed epoch
  /// leaves slots uncovered; those are settled afresh through
  /// SlotLedger::settle, which re-seeds their ledger. The cost and
  /// counts land in last_report().timings.power_ms / power_slots_cached /
  /// power_slots_computed. Throws std::logic_error for fixed-power modes
  /// (their assignment is sinr::*_power, not per-slot).
  [[nodiscard]] const std::vector<sinr::PowerAssignment>& slot_powers();

 private:
  static constexpr NodeId kNoParent = -2;  ///< broken / dead / unset

  // ---- geom::LinkStoreListener (the store -> conflict-index bridge):
  // every store mutation lands in the index with positions resolved through
  // the maintained MST, so the index never needs a per-epoch rebuild. ----
  void on_add(geom::LinkId id) override;
  void on_remove(geom::LinkId id) override;
  void on_flip(geom::LinkId id) override;
  void on_set_length(geom::LinkId id) override;
  void on_touch(geom::LinkId id) override;

  /// Replans after the MST is up to date. `touched` holds the node ids
  /// added or moved this epoch; geometry-dirty links are those incident to
  /// them.
  void replan(const std::vector<NodeId>& touched, EpochReport& report);
  void run_audit(EpochReport& report);

  /// Grows the id-indexed node arrays to cover `id`.
  void ensure_node(NodeId id);
  /// Replays a journaled edge diff onto the store: removals break parent
  /// chains, additions re-root detached components via in-place flips.
  void apply_structural_diff(const mst::MstDelta& delta);
  /// From-scratch orientation (BFS in id-space) reconciled against the
  /// store: surviving pairs keep their ids, orientations are flipped in
  /// place, stale links dropped, missing ones added, lengths refreshed.
  /// With reseed_index the conflict index is then rebuilt from the store.
  void reconcile_full(bool reseed_index);
  /// Marks the tree links incident to `touched` nodes geometry-dirty and
  /// refreshes their lengths.
  void refresh_touched(const std::vector<NodeId>& touched);
  /// Re-roots the detached component containing `child` onto `parent`
  /// (sink side), reversing the old parent chain with in-place flips.
  void rehang(NodeId child, NodeId parent);
  /// True iff the parent chain from `node` currently reaches the sink.
  [[nodiscard]] bool reaches_sink(NodeId node) const;
  /// Drops all carried plan state (slot seeds, slot ledger) and forces the
  /// next epoch through reconcile_full (index re-seed included) with every
  /// link dirty.
  void invalidate_carried_state();
  /// Stores a certified slot's powers and bounds (dense indices of
  /// `links`) in the id-keyed ledger.
  void record_certificate(const geom::LinkView& links,
                          const schedule::LedgerSlot& slot);
  /// Writes slot `s`'s carried ledger powers into `dense` (indexed like the
  /// current snapshot's links); false when the ledger does not cover it.
  [[nodiscard]] bool carried_powers(std::size_t s,
                                    std::vector<double>& dense) const;
  /// Pushes the finished epoch into the global obs::Registry: report
  /// counters verbatim, engine lifetime counters as deltas against the
  /// marks below, stage timings into per-epoch histograms, and on audited
  /// epochs the slot drift (slots over the from-scratch plan's slots).
  void publish_epoch_metrics(const EpochReport& report);

  DynamicOptions options_;
  NodeId sink_id_ = 0;
  mst::IncrementalMst mst_;

  /// The mutation-aware id-space link container (the tree's directed links,
  /// child -> parent).
  geom::LinkStore store_;
  /// Persistent per-length-class conflict grids over the live links,
  /// maintained through the store's listener hooks.
  conflict::ConflictIndex conflict_index_;
  // ---- id-space orientation state, indexed by NodeId ----
  std::vector<NodeId> parent_;          ///< kNoParent dead/broken; -1 sink
  std::vector<geom::LinkId> uplink_;    ///< node's upward link, kNoLink none
  std::vector<std::vector<NodeId>> tree_adj_;  ///< current tree neighbors

  /// Previous epoch's final slot of every link, indexed by stable LinkId
  /// (-1 unknown). Every final slot is conflict-independent and
  /// oracle-feasible, so this doubles as a proper coloring seed for the
  /// next epoch.
  std::vector<int> slot_of_;
  /// Member count per previous final slot (including links that died
  /// since) — membership-unchanged certification needs exact counts.
  std::vector<std::size_t> prev_slot_count_;
  /// Store clock at the end of the last successful replan; links whose
  /// generation exceeds it are dirty.
  std::uint64_t plan_clock_ = 0;
  /// Set for construction and after failed epochs: the next replan must
  /// rebuild orientation from scratch (bulk rebuilds signal it through the
  /// MST delta).
  bool force_reconcile_ = true;

  // ---- slot ledger (schedule::LedgerSlot state of every final slot,
  // keyed by stable LinkId so it survives the dense re-indexing) ----
  /// Each link's log2 power in its final slot (kGlobal: the carried
  /// certificate; fixed-power modes: the pinned assignment).
  std::vector<double> ledger_power_;
  /// Each link's load bound in its final slot; +inf when the slot's powers
  /// are unknown (a failed epoch leaves every slot so until it is
  /// re-seeded).
  std::vector<double> ledger_load_;
  /// Per previous final slot: its bounds are exact (no departure since
  /// they were computed) — a pinned ledger's rejection is then final.
  std::vector<char> ledger_exact_;
  std::vector<sinr::PowerAssignment> slot_powers_;
  bool slot_powers_current_ = false;

  Snapshot current_;
  EpochReport report_;

  /// Telemetry marks: the engines' lifetime counters as of the last
  /// publish_epoch_metrics — diffing against them attributes work per epoch
  /// without putting a single atomic in the engines' hot loops.
  mst::IncrementalMstStats mst_stats_mark_;
  conflict::ConflictIndexStats conflict_stats_mark_;
};

}  // namespace wagg::dynamic

#endif  // WAGG_DYNAMIC_DYNAMIC_PLANNER_H
