#include "conflict/conflict_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace wagg::conflict {

namespace {

/// Absolute length class: c such that length lies in [2^c, 2^(c+1)).
[[nodiscard]] int class_of(double length) {
  return static_cast<int>(std::floor(std::log2(length)));
}

}  // namespace

ConflictIndex::Entry& ConflictIndex::checked(geom::LinkId id) {
  if (!contains(id)) {
    throw std::invalid_argument("ConflictIndex: unknown link id " +
                                std::to_string(id));
  }
  return entries_[static_cast<std::size_t>(id)];
}

void ConflictIndex::grid_insert(Entry& entry, geom::LinkId id) {
  auto& length_class = classes_[entry.cls];
  entry.class_slot = length_class.members.size();
  length_class.members.push_back(id);
  for (auto& [k, grid] : length_class.levels) {
    grid.insert(entry.sender, id);
    grid.insert(entry.receiver, id);
  }
}

void ConflictIndex::grid_erase(const Entry& entry, geom::LinkId id) {
  const auto it = classes_.find(entry.cls);
  if (it == classes_.end()) {
    throw std::logic_error("ConflictIndex: class missing for live link");
  }
  auto& length_class = it->second;
  for (auto& [k, grid] : length_class.levels) {
    grid.erase(entry.sender, id);
    grid.erase(entry.receiver, id);
  }
  auto& members = length_class.members;
  const geom::LinkId moved = members.back();
  members[entry.class_slot] = moved;
  entries_[static_cast<std::size_t>(moved)].class_slot = entry.class_slot;
  members.pop_back();
  if (members.empty()) classes_.erase(it);
}

const detail::ClassGrid<geom::LinkId>& ConflictIndex::level(
    LengthClass& length_class, int k) const {
  auto [it, inserted] = length_class.levels.try_emplace(
      k, std::exp2(static_cast<double>(k)), origin_x_, origin_y_);
  if (inserted) {
    for (const geom::LinkId id : length_class.members) {
      const Entry& entry = entries_[static_cast<std::size_t>(id)];
      it->second.insert(entry.sender, id);
      it->second.insert(entry.receiver, id);
    }
  }
  return it->second;
}

bool ConflictIndex::conflicting_entries(const Entry& a,
                                        const Entry& b) const {
  const double lmin = std::min(a.length, b.length);
  const double lmax = std::max(a.length, b.length);
  // Same operand roles and association as LinkView::link_distance; links
  // sharing a node carry bit-identical endpoint coordinates, so the min is
  // an exact 0.0 there, matching the view's shares_node short-circuit.
  const double d =
      std::min(std::min(geom::distance(a.sender, b.sender),
                        geom::distance(a.sender, b.receiver)),
               std::min(geom::distance(a.receiver, b.sender),
                        geom::distance(a.receiver, b.receiver)));
  return d / lmin <= cached_spec_.f(lmax / lmin);
}

void ConflictIndex::walk(const Entry& e, geom::LinkId self, bool one_sided,
                         std::vector<geom::LinkId>& out) const {
  if (stamp_.size() < entries_.size()) stamp_.resize(entries_.size(), 0);
  const std::uint64_t serial = ++stamp_serial_;
  std::uint64_t probes = 0;
  std::uint64_t dedupe = 0;
  std::uint64_t pruned = 0;
  std::uint64_t reached = 0;
  auto& cells = candidates_scratch_;
  const double length = e.length;
  for (auto it = one_sided ? classes_.lower_bound(e.cls) : classes_.begin();
       it != classes_.end(); ++it) {
    const int cs = it->first;
    // Partner j in class cs has class_lo <= l_j < class_hi, so conflict
    // needs d <= lmin * f(lmax / lmin) with lmin = min(l_q, l_j) and the
    // ratio at most x_max: f non-decreasing makes `radius` cover every
    // pair, and `guard` absorbs rounding at exact-threshold ties.
    const double class_lo = std::exp2(static_cast<double>(cs));
    const double class_hi = 2.0 * class_lo;
    const double f_max =
        cached_spec_.f(std::max({1.0, length / class_lo, class_hi / length}));
    const double guard = 1e-12 * std::max(length, class_hi);
    const double radius = std::min(length, class_hi) * f_max + guard;
    // Read the grid whose cell is 2-4x the radius, so each endpoint's
    // square meets at most 2x2 cells; past 40 octaves above the class,
    // collect() scans the occupied cells instead. Clamping before the +2
    // keeps an infinite radius (ilogb = INT_MAX) defined, and the cap keeps
    // the cell 2^k finite.
    const int k = std::min(std::clamp(std::ilogb(radius), cs - 2, cs + 38) + 2,
                           std::numeric_limits<double>::max_exponent - 1);
    cells.clear();
    probes += level(it->second, k).collect(e.sender, e.receiver, radius,
                                           cells);
    for (const geom::LinkId id : cells) {
      const auto slot = static_cast<std::size_t>(id);
      if (stamp_[slot] == serial) {  // seen via another endpoint or cell
        ++dedupe;
        continue;
      }
      stamp_[slot] = serial;
      if (id == self || (one_sided && cs == e.cls && id < self)) continue;
      // Per-pair prune: d > lmin * f_max (+ guard) rules the pair out; the
      // relative slack covers the exact predicate's own rounding, and an
      // overflowing product keeps the pair for the overflow-safe predicate.
      const Entry& other = entries_[slot];
      const double reach =
          (std::min(length, other.length) * f_max + guard) * (1.0 + 4e-12);
      const double d2 =
          std::min(std::min(geom::squared_distance(e.sender, other.sender),
                            geom::squared_distance(e.sender, other.receiver)),
                   std::min(geom::squared_distance(e.receiver, other.sender),
                            geom::squared_distance(e.receiver,
                                                   other.receiver)));
      if (d2 > reach * reach) {
        ++pruned;
        continue;
      }
      ++reached;
      if (conflicting_entries(e, other)) out.push_back(id);
    }
  }
  cell_probes_.add(probes);
  if (dedupe != 0) dedupe_hits_.add(dedupe);
  if (pruned != 0) candidates_pruned_.add(pruned);
  if (reached != 0) candidates_.add(reached);
}

std::vector<geom::LinkId> ConflictIndex::compute_row(geom::LinkId id) const {
  std::vector<geom::LinkId> row;
  walk(entries_[static_cast<std::size_t>(id)], id, /*one_sided=*/false, row);
  std::sort(row.begin(), row.end());
  return row;
}

void ConflictIndex::use_spec(const ConflictSpec& spec) const {
  // The cache is keyed to one spec at a time: another spec flushes every
  // materialized row. cached_spec_ is also what the mutation-path
  // maintenance and the walk evaluate against.
  if (!cache_enabled_ || !(spec == cached_spec_)) {
    flush_rows(row_invalidations_);
    cached_spec_ = spec;
    cache_enabled_ = true;
  }
}

void ConflictIndex::store_row(geom::LinkId id,
                              std::vector<geom::LinkId> ids) const {
  if (row_cache_entry_cap_ == 0) return;
  const auto slot = static_cast<std::size_t>(id);
  if (rows_.size() <= slot) rows_.resize(slot + 1);
  auto& row = rows_[slot];
  if (row.cached) {
    cached_entries_ -= row.ids.size();
  } else {
    row.cached = true;
    ++rows_live_;
  }
  row.ids = std::move(ids);
  cached_entries_ += row.ids.size();
  row.last_used = ++use_serial_;
}

void ConflictIndex::drop_row(geom::LinkId id,
                             detail::RelaxedCounter& counter) const {
  const auto slot = static_cast<std::size_t>(id);
  if (slot >= rows_.size() || !rows_[slot].cached) return;
  auto& row = rows_[slot];
  cached_entries_ -= row.ids.size();
  row.ids.clear();
  row.ids.shrink_to_fit();
  row.cached = false;
  --rows_live_;
  counter.add(1);
}

void ConflictIndex::patch_erase(std::span<const geom::LinkId> targets,
                                geom::LinkId x) {
  std::uint64_t patches = 0;
  for (const geom::LinkId y : targets) {
    if (y == x) continue;
    const auto slot = static_cast<std::size_t>(y);
    if (slot >= rows_.size() || !rows_[slot].cached) continue;
    auto& ids = rows_[slot].ids;
    const auto it = std::lower_bound(ids.begin(), ids.end(), x);
    if (it != ids.end() && *it == x) {
      ids.erase(it);
      --cached_entries_;
      ++patches;
    }
  }
  row_patches_ += patches;
}

void ConflictIndex::patch_insert(std::span<const geom::LinkId> targets,
                                 geom::LinkId x) {
  std::uint64_t patches = 0;
  for (const geom::LinkId y : targets) {
    if (y == x) continue;
    const auto slot = static_cast<std::size_t>(y);
    if (slot >= rows_.size() || !rows_[slot].cached) continue;
    auto& ids = rows_[slot].ids;
    const auto it = std::lower_bound(ids.begin(), ids.end(), x);
    if (it == ids.end() || *it != x) {
      ids.insert(it, x);
      ++cached_entries_;
      ++patches;
    }
  }
  row_patches_ += patches;
}

void ConflictIndex::flush_rows(detail::RelaxedCounter& counter) const {
  if (rows_live_ != 0) {
    counter.add(static_cast<std::uint64_t>(rows_live_));
  }
  rows_.clear();
  rows_live_ = 0;
  cached_entries_ = 0;
}

void ConflictIndex::maybe_evict() const {
  if (row_cache_entry_cap_ == 0 || cached_entries_ <= row_cache_entry_cap_) {
    return;
  }
  // Deterministic LRU: recency is the monotone use serial (bumped on query
  // use and materialization, never by patches), so every run evicts the
  // same rows in the same order — no wall clock anywhere near the cache.
  std::vector<std::pair<std::uint64_t, geom::LinkId>> order;
  order.reserve(rows_live_);
  for (std::size_t slot = 0; slot < rows_.size(); ++slot) {
    if (rows_[slot].cached) {
      order.emplace_back(rows_[slot].last_used,
                         static_cast<geom::LinkId>(slot));
    }
  }
  std::sort(order.begin(), order.end());
  // Hysteresis: sweep down to half the cap so a cache sitting at the
  // boundary does not evict on every materialization.
  const std::size_t target = row_cache_entry_cap_ / 2;
  for (const auto& [used, id] : order) {
    if (cached_entries_ <= target) break;
    drop_row(id, row_evictions_);
  }
}

void ConflictIndex::set_row_cache_entry_cap(std::size_t cap) {
  row_cache_entry_cap_ = cap;
  if (cap == 0) {
    flush_rows(row_evictions_);
  } else {
    maybe_evict();
  }
}

ConflictIndexStats ConflictIndex::stats() const noexcept {
  ConflictIndexStats s;
  s.adds = adds_;
  s.removes = removes_;
  s.updates = updates_;
  s.reclasses = reclasses_;
  s.maintain_ms = maintain_ms_;
  s.rows_queried = rows_queried_.load();
  s.cell_probes = cell_probes_.load();
  s.dedupe_hits = dedupe_hits_.load();
  s.candidates_pruned = candidates_pruned_.load();
  s.candidates = candidates_.load();
  s.row_cache_hits = row_hits_.load();
  s.row_cache_misses = row_misses_.load();
  s.row_cache_patches = row_patches_;
  s.row_cache_invalidations = row_invalidations_.load();
  s.row_cache_evictions = row_evictions_.load();
  s.rows_cached = rows_live_;
  return s;
}

void ConflictIndex::insert_entry(geom::LinkId id, const geom::Point& sender,
                                 const geom::Point& receiver, double length) {
  if (entries_.size() <= static_cast<std::size_t>(id)) {
    entries_.resize(static_cast<std::size_t>(id) + 1);
  }
  if (!have_origin_) {
    origin_x_ = sender.x;
    origin_y_ = sender.y;
    have_origin_ = true;
  }
  auto& entry = entries_[static_cast<std::size_t>(id)];
  entry = Entry{sender, receiver, length, class_of(length), 0, true};
  grid_insert(entry, id);
  ++live_;
}

ConflictIndex ConflictIndex::of(const geom::LinkView& links) {
  ConflictIndex index;
  index.row_cache_entry_cap_ = 0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (!(links.length(i) > 0.0)) {
      throw std::invalid_argument(
          "ConflictIndex::of: lengths must be positive");
    }
    index.insert_entry(links.id_of(i), links.sender_pos(i),
                       links.receiver_pos(i), links.length(i));
  }
  return index;
}

void ConflictIndex::add(geom::LinkId id, const geom::Point& sender,
                        const geom::Point& receiver, double length) {
  obs::StageSpan span("conflict_maintain");
  if (id < 0) {
    throw std::invalid_argument("ConflictIndex::add: negative link id");
  }
  if (!(length > 0.0)) {
    throw std::invalid_argument("ConflictIndex::add: length must be positive");
  }
  if (contains(id)) {
    throw std::invalid_argument("ConflictIndex::add: id already present");
  }
  insert_entry(id, sender, receiver, length);
  // While no row is cached, bulk re-seeds (clear() + adds) stay pure grid
  // inserts.
  if (rows_live_ > 0) link_rows(id);
  ++adds_;
  maintain_ms_ += span.close();
}

void ConflictIndex::unlink_rows(geom::LinkId id) {
  if (rows_live_ == 0) return;
  // Erase the link from every cached row containing it: its own cached row
  // names them exactly; without one, its row over the current geometry.
  const auto slot = static_cast<std::size_t>(id);
  if (slot < rows_.size() && rows_[slot].cached) {
    auto& row = rows_[slot];
    std::vector<geom::LinkId> targets = std::move(row.ids);
    row.ids.clear();
    row.cached = false;
    cached_entries_ -= targets.size();
    --rows_live_;
    row_invalidations_.add(1);
    patch_erase(targets, id);
  } else {
    patch_erase(compute_row(id), id);
  }
}

void ConflictIndex::link_rows(geom::LinkId id) {
  // The link belongs in exactly the rows of its own partners (conflict(y,
  // z) depends only on y and z), so one row serves both the symmetric
  // patches and its own materialized row.
  auto fresh = compute_row(id);
  patch_insert(fresh, id);
  store_row(id, std::move(fresh));
  maybe_evict();
}

void ConflictIndex::remove(geom::LinkId id) {
  obs::StageSpan span("conflict_maintain");
  auto& entry = checked(id);
  unlink_rows(id);
  grid_erase(entry, id);
  entry.live = false;
  --live_;
  ++removes_;
  maintain_ms_ += span.close();
}

void ConflictIndex::update(geom::LinkId id, const geom::Point& sender,
                           const geom::Point& receiver, double length) {
  obs::StageSpan span("conflict_maintain");
  if (!(length > 0.0)) {
    throw std::invalid_argument(
        "ConflictIndex::update: length must be positive");
  }
  auto& entry = checked(id);
  // A bit-identical refresh (the store's set_length + touch double fire)
  // changes no cell and no row.
  if (entry.sender != sender || entry.receiver != receiver ||
      entry.length != length) {
    const bool rows_active = rows_live_ > 0;
    unlink_rows(id);  // against the OLD geometry
    const int cls = class_of(length);
    if (cls != entry.cls) ++reclasses_;
    grid_erase(entry, id);
    entry = Entry{sender, receiver, length, cls, 0, true};
    grid_insert(entry, id);
    if (rows_active) link_rows(id);  // against the NEW geometry
  }
  ++updates_;
  maintain_ms_ += span.close();
}

void ConflictIndex::clear() {
  entries_.clear();
  classes_.clear();
  flush_rows(row_invalidations_);
  live_ = 0;
}

void ConflictIndex::map_view(const geom::LinkView& links) const {
  if (links.size() != live_) {
    throw std::logic_error(
        "ConflictIndex: view holds " + std::to_string(links.size()) +
        " links, index holds " + std::to_string(live_) +
        " — not a snapshot of the mirrored store");
  }
  // Only the view's ids are written: rows name live links alone, and the
  // view holds every live link, so stale slots are never read.
  if (dense_scratch_.size() < entries_.size()) {
    dense_scratch_.resize(entries_.size());
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    const geom::LinkId id = links.id_of(i);
    if (!contains(id)) {
      throw std::logic_error(
          "ConflictIndex: view link absent from the index — not a snapshot "
          "of the mirrored store");
    }
    dense_scratch_[static_cast<std::size_t>(id)] =
        static_cast<std::int32_t>(i);
  }
}

std::vector<std::vector<std::int32_t>> ConflictIndex::neighbors(
    const geom::LinkView& links, const ConflictSpec& spec,
    std::span<const std::size_t> queries) const {
  spec.validate();
  map_view(links);
  std::vector<std::vector<std::int32_t>> result(queries.size());
  if (live_ < 2) return result;

  use_spec(spec);
  const auto& dense = dense_scratch_;
  // miss_at[i]: the result position that computes dense link i's uncached
  // row (its first query); -1 for cached or unqueried links.
  std::vector<std::int32_t> miss_at(links.size(), -1);
  std::size_t walks = 0;
  std::uint64_t hits = 0;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const std::size_t i = queries[k];
    const auto slot = static_cast<std::size_t>(links.id_of(i));
    if (slot < rows_.size() && rows_[slot].cached) {
      ++hits;
    } else if (miss_at[i] < 0) {
      miss_at[i] = static_cast<std::int32_t>(k);
      ++walks;
    }
  }

  if (walks > 0 && walks == live_ - rows_live_) {
    // Every uncached live link is queried, so each unordered pair with an
    // uncached side is emitted once, by its shorter side (lower class, then
    // lower id): an uncached row walks just the partners it owns and emits
    // into both rows, a cached row hands over its owned uncached partners.
    for (std::size_t i = 0; i < links.size(); ++i) {
      const geom::LinkId id = links.id_of(i);
      const Entry& e = entries_[static_cast<std::size_t>(id)];
      const bool cached = miss_at[i] < 0;
      if (!cached) {
        row_scratch_.clear();
        walk(e, id, /*one_sided=*/true, row_scratch_);
      }
      for (const geom::LinkId j :
           cached ? rows_[static_cast<std::size_t>(id)].ids : row_scratch_) {
        const std::int32_t dj = dense[static_cast<std::size_t>(j)];
        if (!cached) {
          result[static_cast<std::size_t>(miss_at[i])].push_back(dj);
        } else {
          const Entry& other = entries_[static_cast<std::size_t>(j)];
          if (other.cls < e.cls || (other.cls == e.cls && j < id)) continue;
        }
        const std::int32_t at = miss_at[static_cast<std::size_t>(dj)];
        if (at >= 0) {
          result[static_cast<std::size_t>(at)].push_back(
              static_cast<std::int32_t>(i));
        }
      }
    }
  } else {
    for (std::size_t k = 0; k < queries.size(); ++k) {
      if (miss_at[queries[k]] != static_cast<std::int32_t>(k)) continue;
      for (const geom::LinkId j : compute_row(links.id_of(queries[k]))) {
        result[k].push_back(dense[static_cast<std::size_t>(j)]);
      }
    }
  }

  // Serve the cached rows, sort and materialize the computed ones. Rows are
  // sorted in id-space and dense order is increasing id, so translated rows
  // come out sorted.
  rows_queried_.add(static_cast<std::uint64_t>(queries.size()));
  if (hits != 0) row_hits_.add(hits);
  if (hits != queries.size()) row_misses_.add(queries.size() - hits);
  const bool may_cache = row_cache_entry_cap_ > 0;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const std::size_t i = queries[k];
    const geom::LinkId id = links.id_of(i);
    auto& out = result[k];
    if (miss_at[i] < 0) {
      auto& row = rows_[static_cast<std::size_t>(id)];
      row.last_used = ++use_serial_;
      out.reserve(row.ids.size());
      for (const geom::LinkId j : row.ids) {
        out.push_back(dense[static_cast<std::size_t>(j)]);
      }
    } else if (miss_at[i] != static_cast<std::int32_t>(k)) {
      out = result[static_cast<std::size_t>(miss_at[i])];  // repeat query
    } else {
      std::sort(out.begin(), out.end());
      if (!may_cache) continue;
      std::vector<geom::LinkId> ids;
      ids.reserve(out.size());
      for (const std::int32_t j : out) {
        ids.push_back(links.id_of(static_cast<std::size_t>(j)));
      }
      store_row(id, std::move(ids));
    }
  }
  maybe_evict();
  return result;
}

Graph ConflictIndex::build_graph(const geom::LinkView& links,
                                 const ConflictSpec& spec) const {
  std::vector<std::size_t> all(links.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return Graph(neighbors(links, spec, all));
}

}  // namespace wagg::conflict
