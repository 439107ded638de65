#ifndef WAGG_CONFLICT_CONFLICT_INDEX_H
#define WAGG_CONFLICT_CONFLICT_INDEX_H

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "conflict/class_grid.h"
#include "conflict/fgraph.h"
#include "geom/link_view.h"
#include "geom/point.h"

namespace wagg::conflict {

namespace detail {

/// A relaxed-order telemetry counter that stays copyable/movable (raw
/// std::atomic would delete the owner's move constructor). Relaxed is
/// enough: each count is independent, and the owning index requires
/// exclusive access for everything except stats() snapshots anyway.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter& other)
      : value_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t load() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

}  // namespace detail

/// Maintenance and shape counters of a ConflictIndex, snapshotted by value
/// from ConflictIndex::stats(). maintain_ms is the accumulated duration of
/// every add/remove/update since construction, each billed from its own
/// `conflict_maintain` stage span (obs::StageSpan) — callers diff it across
/// an epoch to attribute index upkeep separately from query time.
struct ConflictIndexStats {
  std::size_t adds = 0;
  std::size_t removes = 0;
  std::size_t updates = 0;
  /// Updates that moved a link to a different length class.
  std::size_t reclasses = 0;
  double maintain_ms = 0.0;
  /// Rows answered — one per query index across all neighbors() calls.
  std::uint64_t rows_queried = 0;
  /// Grid candidates skipped because the visit stamp already saw them via
  /// the other endpoint bucket of the same row computation.
  std::uint64_t dedupe_hits = 0;
  /// Candidates rejected by the squared-distance prune before the exact
  /// conflict predicate ran.
  std::uint64_t cells_pruned = 0;
  // ---- materialized row cache ----
  /// Queries served as an O(row) copy of a cached id-space row.
  std::uint64_t row_cache_hits = 0;
  /// Queries that computed their row from the grids (and cached it).
  std::uint64_t row_cache_misses = 0;
  /// Single-id insert/erase edits applied to cached rows on the mutation
  /// path (the diff maintenance work).
  std::uint64_t row_cache_patches = 0;
  /// Cached rows dropped for a reason other than capacity: spec change,
  /// link removal/re-class-update of the row's owner, clear().
  std::uint64_t row_cache_invalidations = 0;
  /// Cached rows dropped by the LRU capacity sweep.
  std::uint64_t row_cache_evictions = 0;
  /// Rows currently materialized (a gauge, not a monotone counter).
  std::size_t rows_cached = 0;
};

/// A persistent, mutation-aware version of the per-length-class bucket grids
/// that build_conflict_graph_bucketed / conflict_neighbors_bucketed erect
/// from scratch on every call. The index lives alongside a geom::LinkStore
/// across epochs and is maintained under add / remove / update by stable
/// LinkId, so a dynamic planner answers dirty-row conflict queries with ZERO
/// per-epoch rebuild — O(dirty) queries against standing state instead of an
/// O(n) grid construction.
///
/// Length classes are anchored to ABSOLUTE lengths: class c holds links with
/// length in [2^c, 2^(c+1)), cell size 2^c. The one-shot builders anchor to
/// the instance's min_length, which drifts under churn — an absolute anchor
/// means a link is re-classed only when ITS OWN length crosses a power of
/// two (lazy re-classing: update() moves it between grids just then), never
/// because some other link shrank the global minimum. Query radii are
/// computed from each class's actual absolute bounds, so the answers are
/// identical to the from-scratch builders (property-tested; audit mode
/// cross-checks every epoch).
///
/// On top of the grids the index keeps a MATERIALIZED ROW CACHE: the exact
/// id-space conflict row of a link under the spec of the most recent query,
/// maintained by DIFF on the mutation path. conflict(y, z) depends only on
/// the geometry of y and z, so a mutation at link x can change only rows
/// containing x: add/update compute x's new row once (one grid probe) and
/// insert x into the cached rows of exactly those partners; remove/update
/// erase x from the cached rows it sat in (x's own cached row names them
/// exactly; a grid probe over the OLD geometry bounds them otherwise). An
/// epoch with k mutations therefore touches O(k · row-degree) cache entries,
/// and neighbors() serves every unchanged dirty row — notably links dirtied
/// only by orientation flips, which never reach the index — as an O(row)
/// copy instead of a grid probe. Rows live in id-space (dense indices are
/// per-epoch) and are translated through the view at query time; id order
/// equals dense order, so translated rows stay sorted. The cache is keyed to
/// one ConflictSpec at a time: a query under a different spec flushes it.
/// Capacity is bounded by a total-entry cap with deterministic
/// least-recently-used eviction (recency is a monotone use serial, never
/// wall clock, so runs replay bit-identically).
///
/// The index stores endpoint positions by value: the owning planner feeds
/// them in on every geometry change (LinkStore carries node ids, not
/// positions). Queries take the per-epoch geom::LinkView snapshot of the
/// same store — the view supplies the dense-index space of the answer rows;
/// its geometry must be bit-identical to the mirrored columns (both sides of
/// the planner copy the same coordinates), which audit mode re-checks every
/// epoch by comparing against the view-based from-scratch builder.
///
/// Thread safety: NONE — one session per thread, like the DynamicPlanner
/// that owns it. Mutations obviously require exclusive access; neighbors()
/// and build_graph() are logically const but memoize rows and reuse stamp
/// scratch internally, so even concurrent const queries on one instance are
/// data races. The query-side counters are relaxed atomics purely so that
/// stats() reads taken while another thread OWNS the index (e.g. a metrics
/// scraper racing a planner epoch) are well-defined loads rather than UB —
/// they do not make any other member safe to share.
class ConflictIndex {
 public:
  ConflictIndex() = default;

  /// Inserts a live link. `id` must not already be present
  /// (std::invalid_argument); length must be positive.
  void add(geom::LinkId id, const geom::Point& sender,
           const geom::Point& receiver, double length);

  /// Drops a link. Throws std::invalid_argument on unknown ids.
  void remove(geom::LinkId id);

  /// Refreshes a link's endpoints/length after its geometry changed.
  /// Re-classing happens lazily: the link moves to another grid only when
  /// its length crossed a class boundary; an in-class move just re-buckets
  /// the two endpoint cells. A bit-identical geometry refresh (the
  /// set_length + touch double fire of the store's refresh path) touches
  /// neither the grids nor the row cache.
  void update(geom::LinkId id, const geom::Point& sender,
              const geom::Point& receiver, double length);

  /// Drops every link and every cached row. Counters and accumulated stats
  /// survive; the re-seed path (planner reconcile_full) relies on this to
  /// guarantee a failed epoch cannot leave stale rows behind.
  void clear();

  [[nodiscard]] bool contains(geom::LinkId id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < entries_.size() &&
           entries_[static_cast<std::size_t>(id)].live;
  }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  /// Non-empty length classes currently held.
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return classes_.size();
  }
  /// Snapshot of the lifetime counters (by value: the query-side fields are
  /// atomics internally, composed into a plain struct here).
  [[nodiscard]] ConflictIndexStats stats() const noexcept;

  /// Rows currently materialized in the cache.
  [[nodiscard]] std::size_t rows_cached() const noexcept { return rows_live_; }

  /// Total cached row entries (sum of cached row sizes) the LRU sweep keeps
  /// the cache under. Lowering the cap evicts immediately; 0 disables
  /// caching entirely (every query recomputes, nothing is stored).
  void set_row_cache_entry_cap(std::size_t cap);
  [[nodiscard]] std::size_t row_cache_entry_cap() const noexcept {
    return row_cache_entry_cap_;
  }

  /// Conflict rows for a subset of dense link indices: result[k] holds the
  /// sorted dense indices conflicting with queries[k] — byte-identical to
  /// conflict_neighbors_bucketed on the same view, without its O(n) per-call
  /// grid build. Cached rows are served as copies; misses compute the row
  /// from the standing grids and materialize it. `links` must be the
  /// snapshot of the store this index mirrors (same live ids, increasing-id
  /// dense order, bit-identical geometry); a desynchronized view throws
  /// std::logic_error.
  [[nodiscard]] std::vector<std::vector<std::int32_t>> neighbors(
      const geom::LinkView& links, const ConflictSpec& spec,
      std::span<const std::size_t> queries) const;

  /// The full conflict graph G_f assembled from index queries (one row per
  /// link) — equal to build_conflict_graph_bucketed on the same view. Used
  /// by full-replan fallbacks that already pay for an index so even the
  /// fallback skips the from-scratch grid construction. Warms the row cache
  /// as a side effect (every row materializes), which is what hands the
  /// initial full plan's rows to the following incremental epochs.
  [[nodiscard]] Graph build_graph(const geom::LinkView& links,
                                  const ConflictSpec& spec) const;

 private:
  struct Entry {
    geom::Point sender{};
    geom::Point receiver{};
    double length = 0.0;
    int cls = 0;
    bool live = false;
  };

  /// A materialized conflict row: the exact sorted id-space neighbor set of
  /// its owner under cached_spec_, kept exact by diff patching.
  struct Row {
    std::vector<geom::LinkId> ids;
    std::uint64_t last_used = 0;  ///< monotone use serial (LRU key)
    bool cached = false;
  };

  [[nodiscard]] Entry& checked(geom::LinkId id);
  /// Inserts into (possibly creating) the class grid.
  void grid_insert(const Entry& entry, geom::LinkId id);
  /// Erases from the class grid, dropping the grid when it empties.
  void grid_erase(const Entry& entry, geom::LinkId id);

  /// Exact conflict predicate on index entries — bit-identical to
  /// ConflictSpec::conflicting on a view with the same geometry (coincident
  /// endpoints give an exact 0.0 distance either way). Self-pairs must be
  /// excluded by id before calling.
  [[nodiscard]] bool conflicting_entries(const Entry& a,
                                         const Entry& b) const;
  /// Deduplicated grid candidates around the given geometry (the same
  /// two-sided class radius as the one-shot builders). May include the
  /// probing link's own id. `prune` additionally applies the squared
  /// distance prune (exact-row computation wants it; erase-target probing
  /// wants the raw superset).
  void collect_candidates(const geom::Point& sender,
                          const geom::Point& receiver, double length,
                          bool prune,
                          std::vector<geom::LinkId>& out) const;
  /// The exact sorted id-space conflict row of live link `id` under
  /// cached_spec_, computed from the grids.
  [[nodiscard]] std::vector<geom::LinkId> compute_row(geom::LinkId id) const;

  /// Stores `ids` as the cached row of `id` and bumps its recency.
  void store_row(geom::LinkId id, std::vector<geom::LinkId> ids) const;
  /// Drops the cached row of `id` if present, charging `counter`.
  void drop_row(geom::LinkId id, detail::RelaxedCounter& counter) const;
  /// Erases `x` from the cached rows of every id in `targets` (no-op for
  /// uncached targets and rows not containing x).
  void patch_erase(std::span<const geom::LinkId> targets, geom::LinkId x);
  /// Inserts `x` into the cached rows of every id in `targets`.
  void patch_insert(std::span<const geom::LinkId> targets, geom::LinkId x);
  /// Drops every cached row (spec change / clear), charging `counter`.
  void flush_rows(detail::RelaxedCounter& counter) const;
  /// LRU capacity sweep: evicts least-recently-used rows down to half the
  /// cap once the entry total exceeds it.
  void maybe_evict() const;

  std::vector<Entry> entries_;  ///< indexed by LinkId (ids never reused)
  std::map<int, detail::ClassGrid<geom::LinkId>> classes_;
  /// Query scratch (per-id visit stamps + candidate buffers): logically
  /// const, reused across row computations. One reason the index is not
  /// thread-safe.
  mutable std::vector<std::uint64_t> stamp_;
  mutable std::uint64_t stamp_serial_ = 0;
  mutable std::vector<geom::LinkId> candidates_scratch_;
  mutable std::vector<geom::LinkId> row_scratch_;
  std::size_t live_ = 0;
  /// Grid origin, captured from the first endpoint ever inserted to keep
  /// cell coordinates small on far-from-zero instances.
  bool have_origin_ = false;
  double origin_x_ = 0.0;
  double origin_y_ = 0.0;

  // ---- materialized row cache (logically const memoization) ----
  mutable std::vector<Row> rows_;  ///< indexed by LinkId, like entries_
  mutable std::size_t rows_live_ = 0;      ///< rows currently cached
  mutable std::size_t cached_entries_ = 0;  ///< sum of cached row sizes
  mutable std::uint64_t use_serial_ = 0;    ///< monotone recency clock
  mutable ConflictSpec cached_spec_{};
  mutable bool cache_enabled_ = false;  ///< cached_spec_ is meaningful
  std::size_t row_cache_entry_cap_ = kDefaultRowCacheEntryCap;
  static constexpr std::size_t kDefaultRowCacheEntryCap = std::size_t{1}
                                                          << 22;

  // ---- counters ----
  // Mutation-path counters are plain fields (mutations require exclusive
  // access anyway); query-path counters are relaxed atomics so that a
  // stats() racing the owning thread reads defined values (see the class
  // comment — this is telemetry hygiene, not thread safety).
  std::size_t adds_ = 0;
  std::size_t removes_ = 0;
  std::size_t updates_ = 0;
  std::size_t reclasses_ = 0;
  double maintain_ms_ = 0.0;
  std::uint64_t row_patches_ = 0;
  mutable detail::RelaxedCounter rows_queried_;
  mutable detail::RelaxedCounter dedupe_hits_;
  mutable detail::RelaxedCounter cells_pruned_;
  mutable detail::RelaxedCounter row_hits_;
  mutable detail::RelaxedCounter row_misses_;
  mutable detail::RelaxedCounter row_invalidations_;
  mutable detail::RelaxedCounter row_evictions_;
};

}  // namespace wagg::conflict

#endif  // WAGG_CONFLICT_CONFLICT_INDEX_H
