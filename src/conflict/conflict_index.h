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
  /// Grid cells the walk looked up (or scanned, on an occupied-cell scan).
  std::uint64_t cell_probes = 0;
  /// Grid entries skipped as already seen in the same row computation.
  std::uint64_t dedupe_hits = 0;
  /// Distinct links rejected by the per-pair prune.
  std::uint64_t candidates_pruned = 0;
  /// Distinct links that reached the exact conflict predicate (a
  /// cold all-rows query examines each unordered pair once).
  std::uint64_t candidates = 0;
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

/// The one conflict-graph builder: per-length-class endpoint grids kept
/// alongside a geom::LinkStore across epochs and maintained under add /
/// remove / update by stable LinkId. A dynamic planner answers dirty-row
/// queries against standing state, and core::schedule_links builds G_f
/// from a transient one (of()).
///
/// Classes are anchored to ABSOLUTE lengths — class c holds lengths in
/// [2^c, 2^(c+1)) — so a link is re-classed only when its own length
/// crosses a power of two, never because another link moved the minimum.
///
/// The candidate walk is output-sensitive. Per class, the two-sided radius
/// min(l_q, class_hi) * f(x_max) covers every partner; each class keeps one
/// grid per cell size 2^k, built on first use, and the walk reads the one
/// whose cell is 2-4x the radius, so it looks up at most four cells per
/// endpoint whatever the length ratio. A per-pair prune, d > min(l_q, l_j) *
/// f(x_max), runs before the exact predicate. When a query covers every
/// uncached row, each of them walks only toward the pairs it owns (longer
/// classes, later ids of its own class), skipping the widest radii
/// altogether.
///
/// On top of the grids sits a MATERIALIZED ROW CACHE: each link's exact
/// id-space row under the most recent query's spec, maintained by DIFF on
/// the mutation path. conflict(y, z) depends only on y and z, so a mutation
/// at x changes only rows containing x: add/update insert x into its new
/// partners' rows, remove/update erase it from the old ones (its own cached
/// row names them; otherwise its row is recomputed over the old geometry).
/// An epoch with k mutations touches O(k · row-degree) entries, and
/// neighbors() serves unchanged rows — notably links dirtied only by
/// orientation flips — as O(row) copies, translated to the view's dense
/// indices (id order equals dense order, so rows stay sorted). A query
/// under another spec flushes the cache; a total-entry cap evicts by a
/// deterministic LRU use serial (never wall clock).
///
/// Endpoint positions are stored by value (LinkStore carries node ids);
/// the query view's geometry must be bit-identical to them, which audit
/// mode re-checks every epoch against a from-scratch index.
///
/// Thread safety: NONE — one session per thread, like the owning
/// DynamicPlanner. neighbors() and build_graph() are logically const but
/// memoize rows and grids, so even concurrent const queries race. The
/// query counters are relaxed atomics only so that a stats() read racing
/// the owner (a metrics scraper) is a defined load.
class ConflictIndex {
 public:
  ConflictIndex() = default;

  /// A transient index over `links` (keyed by the view's ids, row cache
  /// off): the builder behind from-scratch plans and the audit's reference
  /// rows.
  [[nodiscard]] static ConflictIndex of(const geom::LinkView& links);

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
  /// sorted dense indices conflicting with queries[k] — the rows of
  /// build_conflict_graph on the same view. Cached rows are served as
  /// copies; misses compute the row from the standing grids and
  /// materialize it. When every uncached live link is queried (a cold
  /// index asked for all rows), each unordered pair is emitted once, by its
  /// shorter side: an uncached row walks just the partners it owns and a
  /// cached row hands over its owned uncached partners; otherwise each miss
  /// walks its whole row. `links` must be the snapshot of the store this
  /// index mirrors (same live ids, increasing-id dense order, bit-identical
  /// geometry); a desynchronized view throws std::logic_error.
  [[nodiscard]] std::vector<std::vector<std::int32_t>> neighbors(
      const geom::LinkView& links, const ConflictSpec& spec,
      std::span<const std::size_t> queries) const;

  /// The full conflict graph G_f — equal to build_conflict_graph on the
  /// same view: neighbors() over every link, packed into a Graph. Warms the
  /// row cache as a side effect (every row materializes).
  [[nodiscard]] Graph build_graph(const geom::LinkView& links,
                                  const ConflictSpec& spec) const;

 private:
  struct Entry {
    geom::Point sender{};
    geom::Point receiver{};
    double length = 0.0;
    int cls = 0;
    std::size_t class_slot = 0;  ///< position in its class's member list
    bool live = false;
  };
  /// One length class: its members, and one endpoint grid per cell size
  /// 2^k (keyed by k), each built on first use and maintained from then on.
  struct LengthClass {
    std::vector<geom::LinkId> members;
    std::map<int, detail::ClassGrid<geom::LinkId>> levels;
  };

  /// A materialized conflict row: the exact sorted id-space neighbor set of
  /// its owner under cached_spec_, kept exact by diff patching.
  struct Row {
    std::vector<geom::LinkId> ids;
    std::uint64_t last_used = 0;  ///< monotone use serial (LRU key)
    bool cached = false;
  };

  [[nodiscard]] Entry& checked(geom::LinkId id);
  /// add() without the span, the counter and the row-cache maintenance.
  void insert_entry(geom::LinkId id, const geom::Point& sender,
                    const geom::Point& receiver, double length);
  /// Adds to (possibly creating) the entry's class and its grids.
  void grid_insert(Entry& entry, geom::LinkId id);
  /// Removes from the entry's class, dropping the class when it empties.
  void grid_erase(const Entry& entry, geom::LinkId id);
  /// The class's grid with cell 2^k, built from its members on first use.
  [[nodiscard]] const detail::ClassGrid<geom::LinkId>& level(
      LengthClass& length_class, int k) const;

  /// Exact conflict predicate on index entries — bit-identical to
  /// ConflictSpec::conflicting on a view with the same geometry (coincident
  /// endpoints give an exact 0.0 distance either way). Self-pairs must be
  /// excluded by id before calling.
  [[nodiscard]] bool conflicting_entries(const Entry& a,
                                         const Entry& b) const;
  /// Appends to `out` the ids of the live links conflicting with `e` under
  /// cached_spec_ (unsorted), excluding `self`. `one_sided` restricts the
  /// walk to longer classes and to later ids of e's own class — each
  /// unordered pair of an all-rows query is then examined exactly once.
  void walk(const Entry& e, geom::LinkId self, bool one_sided,
            std::vector<geom::LinkId>& out) const;
  /// The exact sorted id-space conflict row of live link `id` under
  /// cached_spec_, computed from the grids.
  [[nodiscard]] std::vector<geom::LinkId> compute_row(geom::LinkId id) const;
  /// Fills dense_scratch_ (id -> the view's dense index). Throws
  /// std::logic_error unless `links` holds exactly the indexed links.
  void map_view(const geom::LinkView& links) const;
  /// Syncs cached_spec_ to `spec`, flushing rows cached under another one.
  void use_spec(const ConflictSpec& spec) const;

  /// Row-cache diff maintenance around a geometry change: unlink_rows
  /// erases `id` from every cached row holding it (and drops its own);
  /// link_rows inserts it into its partners' rows and caches its own.
  void unlink_rows(geom::LinkId id);
  void link_rows(geom::LinkId id);
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
  /// Logically const: queries add grids for the cell sizes they need.
  mutable std::map<int, LengthClass> classes_;
  /// Query scratch (per-id visit stamps + candidate buffers): logically
  /// const, reused across row computations. One reason the index is not
  /// thread-safe.
  mutable std::vector<std::uint64_t> stamp_;
  mutable std::uint64_t stamp_serial_ = 0;
  mutable std::vector<geom::LinkId> candidates_scratch_;
  mutable std::vector<geom::LinkId> row_scratch_;
  mutable std::vector<std::int32_t> dense_scratch_;  ///< id -> dense index
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
  mutable detail::RelaxedCounter cell_probes_;
  mutable detail::RelaxedCounter dedupe_hits_;
  mutable detail::RelaxedCounter candidates_pruned_;
  mutable detail::RelaxedCounter candidates_;
  mutable detail::RelaxedCounter row_hits_;
  mutable detail::RelaxedCounter row_misses_;
  mutable detail::RelaxedCounter row_invalidations_;
  mutable detail::RelaxedCounter row_evictions_;
};

}  // namespace wagg::conflict

#endif  // WAGG_CONFLICT_CONFLICT_INDEX_H
