#include "conflict/conflict_index.h"

#include <algorithm>
#include <cmath>
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

void ConflictIndex::grid_insert(const Entry& entry, geom::LinkId id) {
  auto [it, inserted] = classes_.try_emplace(
      entry.cls, std::exp2(static_cast<double>(entry.cls)), origin_x_,
      origin_y_);
  it->second.insert(entry.sender, id);
  it->second.insert(entry.receiver, id);
}

void ConflictIndex::grid_erase(const Entry& entry, geom::LinkId id) {
  const auto it = classes_.find(entry.cls);
  if (it == classes_.end()) {
    throw std::logic_error("ConflictIndex: class grid missing for live link");
  }
  it->second.erase(entry.sender, id);
  it->second.erase(entry.receiver, id);
  if (it->second.empty()) classes_.erase(it);
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

void ConflictIndex::collect_candidates(const geom::Point& sender,
                                       const geom::Point& receiver,
                                       double length, bool prune,
                                       std::vector<geom::LinkId>& out) const {
  out.clear();
  if (stamp_.size() < entries_.size()) stamp_.resize(entries_.size(), 0);
  const std::uint64_t serial = ++stamp_serial_;
  std::uint64_t dedupe = 0;
  std::uint64_t pruned = 0;
  auto& candidates = candidates_scratch_;
  for (const auto& [cs, grid] : classes_) {
    // Two-sided bound, identical to conflict_neighbors_bucketed but with
    // ABSOLUTE class bounds: partner j in class cs has
    // class_lo <= l_j < class_hi, so conflict requires
    //   d(q, j) <= lmin_pair * f(lmax_pair / lmin_pair)
    // with lmin_pair <= min(lq, class_hi) and the ratio at most x_max;
    // f non-decreasing makes the radius an over-approximation of every
    // pair. Guard formula matches the one-shot builders exactly so
    // threshold ties agree across all three.
    const double class_lo = std::exp2(static_cast<double>(cs));
    const double class_hi = 2.0 * class_lo;
    const double x_max = std::max({1.0, length / class_lo,
                                   class_hi / length});
    const double radius = std::min(length, class_hi) * cached_spec_.f(x_max) +
                          1e-12 * std::max(length, class_hi);
    // The exact-distance prune needs its own RELATIVE slack: for specs
    // with large f the absolute 1e-12 * max(...) term can fall below one
    // ulp of the radius product, and a threshold pair the exact predicate
    // accepts (its comparison carries ~ulp rounding of its own) would be
    // pruned. The cell-granularity collect is immune — it always has a
    // full cell of slack — so only the squared threshold is inflated.
    const double prune_radius = radius * (1.0 + 4e-12);
    const double radius2 = prune_radius * prune_radius;
    candidates.clear();
    grid.collect(sender, receiver, radius, candidates);
    for (const geom::LinkId id : candidates) {
      const auto slot = static_cast<std::size_t>(id);
      if (stamp_[slot] == serial) {  // seen via the other endpoint
        ++dedupe;
        continue;
      }
      stamp_[slot] = serial;
      if (prune) {
        // Cheap squared-distance prune before the exact predicate: the
        // radius over-approximates every conflict distance for this class,
        // so anything farther cannot conflict. Overflowing products land on
        // +inf and the comparison keeps the pair (the exact predicate is
        // overflow-safe), never drops it.
        const Entry& entry = entries_[slot];
        const double d2 =
            std::min(std::min(geom::squared_distance(sender, entry.sender),
                              geom::squared_distance(sender, entry.receiver)),
                     std::min(geom::squared_distance(receiver, entry.sender),
                              geom::squared_distance(receiver,
                                                     entry.receiver)));
        if (d2 > radius2) {
          ++pruned;
          continue;
        }
      }
      out.push_back(id);
    }
  }
  if (dedupe != 0) dedupe_hits_.add(dedupe);
  if (pruned != 0) cells_pruned_.add(pruned);
}

std::vector<geom::LinkId> ConflictIndex::compute_row(geom::LinkId id) const {
  const auto slot = static_cast<std::size_t>(id);
  const Entry& e = entries_[slot];
  collect_candidates(e.sender, e.receiver, e.length, /*prune=*/true,
                     row_scratch_);
  std::vector<geom::LinkId> row;
  row.reserve(row_scratch_.size());
  for (const geom::LinkId cid : row_scratch_) {
    if (cid == id) continue;  // a link's own endpoints are grid candidates
    if (conflicting_entries(e, entries_[static_cast<std::size_t>(cid)])) {
      row.push_back(cid);
    }
  }
  std::sort(row.begin(), row.end());
  return row;
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
  s.dedupe_hits = dedupe_hits_.load();
  s.cells_pruned = cells_pruned_.load();
  s.row_cache_hits = row_hits_.load();
  s.row_cache_misses = row_misses_.load();
  s.row_cache_patches = row_patches_;
  s.row_cache_invalidations = row_invalidations_.load();
  s.row_cache_evictions = row_evictions_.load();
  s.rows_cached = rows_live_;
  return s;
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
  if (entries_.size() <= static_cast<std::size_t>(id)) {
    entries_.resize(static_cast<std::size_t>(id) + 1);
  }
  if (!have_origin_) {
    origin_x_ = sender.x;
    origin_y_ = sender.y;
    have_origin_ = true;
  }
  auto& entry = entries_[static_cast<std::size_t>(id)];
  entry = Entry{sender, receiver, length, class_of(length), true};
  grid_insert(entry, id);
  ++live_;
  // Diff-maintain the row cache: the new link belongs in exactly the rows
  // of its own conflict partners (conflict(y, z) depends only on y and z's
  // geometry, so no other row can change). Computing the row once serves
  // both the symmetric patches and the link's own materialized row. Gated
  // on the cache holding anything at all so bulk re-seeds (clear() + adds,
  // with zero rows standing) stay pure grid inserts.
  if (rows_live_ > 0) {
    auto fresh = compute_row(id);
    patch_insert(fresh, id);
    store_row(id, std::move(fresh));
    maybe_evict();
  }
  ++adds_;
  maintain_ms_ += span.close();
}

void ConflictIndex::remove(geom::LinkId id) {
  obs::StageSpan span("conflict_maintain");
  auto& entry = checked(id);
  if (rows_live_ > 0) {
    // Erase the link from every cached row containing it. Its own cached
    // row names those rows exactly; without one, a grid probe over the
    // current geometry bounds them (a superset — patch_erase no-ops on rows
    // not holding the id).
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
      collect_candidates(entry.sender, entry.receiver, entry.length,
                         /*prune=*/false, row_scratch_);
      patch_erase(row_scratch_, id);
    }
  }
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
  if (entry.sender == sender && entry.receiver == receiver &&
      entry.length == length) {
    // Bit-identical geometry (the store's set_length + touch refresh double
    // fires here): no cell and no row can change.
    ++updates_;
    maintain_ms_ += span.close();
    return;
  }
  const bool rows_active = rows_live_ > 0;
  if (rows_active) {
    // Erase phase against the OLD geometry (see remove()).
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
      collect_candidates(entry.sender, entry.receiver, entry.length,
                         /*prune=*/false, row_scratch_);
      patch_erase(row_scratch_, id);
    }
  }
  const int cls = class_of(length);
  const bool moved =
      entry.sender != sender || entry.receiver != receiver;
  if (cls == entry.cls) {
    // Lazy re-classing: the length stayed inside its power-of-two class, so
    // only the endpoint cells can need refreshing.
    if (moved) {
      auto& grid = classes_.at(entry.cls);
      grid.erase(entry.sender, id);
      grid.erase(entry.receiver, id);
      grid.insert(sender, id);
      grid.insert(receiver, id);
    }
    entry.sender = sender;
    entry.receiver = receiver;
    entry.length = length;
  } else {
    grid_erase(entry, id);
    entry = Entry{sender, receiver, length, cls, true};
    grid_insert(entry, id);
    ++reclasses_;
  }
  if (rows_active) {
    // Insert phase against the NEW geometry: one probe serves both the
    // symmetric neighbor patches and the link's own rematerialized row.
    auto fresh = compute_row(id);
    patch_insert(fresh, id);
    store_row(id, std::move(fresh));
    maybe_evict();
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

std::vector<std::vector<std::int32_t>> ConflictIndex::neighbors(
    const geom::LinkView& links, const ConflictSpec& spec,
    std::span<const std::size_t> queries) const {
  spec.validate();
  if (links.size() != live_) {
    throw std::logic_error(
        "ConflictIndex::neighbors: view holds " +
        std::to_string(links.size()) + " links, index holds " +
        std::to_string(live_) + " — not a snapshot of the mirrored store");
  }
  std::vector<std::vector<std::int32_t>> result(queries.size());
  if (live_ < 2) return result;

  // The cache is keyed to one spec at a time: a query under a different
  // spec flushes every materialized row. cached_spec_ is also what the
  // mutation-path maintenance and compute_row evaluate against, so it must
  // be synced before any row work below.
  if (!cache_enabled_ || !(spec == cached_spec_)) {
    flush_rows(row_invalidations_);
    cached_spec_ = spec;
    cache_enabled_ = true;
  }

  // Dense index of a stable id: the snapshot's dense order is increasing id.
  const auto link_ids = links.ids();
  const auto dense_of = [&](geom::LinkId id) {
    const auto it = std::lower_bound(link_ids.begin(), link_ids.end(), id);
    if (it == link_ids.end() || *it != id) {
      throw std::logic_error(
          "ConflictIndex::neighbors: indexed link absent from the view");
    }
    return static_cast<std::int32_t>(it - link_ids.begin());
  };

  rows_queried_.add(static_cast<std::uint64_t>(queries.size()));
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  const bool may_cache = row_cache_entry_cap_ > 0;
  std::vector<geom::LinkId> fresh;
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const geom::LinkId id = links.id_of(queries[k]);
    if (!contains(id)) {
      throw std::logic_error(
          "ConflictIndex::neighbors: view link absent from the index — not "
          "a snapshot of the mirrored store");
    }
    const auto slot = static_cast<std::size_t>(id);
    const std::vector<geom::LinkId>* ids = nullptr;
    if (slot < rows_.size() && rows_[slot].cached) {
      ++hits;
      rows_[slot].last_used = ++use_serial_;
      ids = &rows_[slot].ids;
    } else {
      ++misses;
      fresh = compute_row(id);
      if (may_cache) {
        store_row(id, std::move(fresh));
        ids = &rows_[slot].ids;
      } else {
        ids = &fresh;
      }
    }
    // Rows are sorted in id-space and dense order is increasing id, so the
    // translated row comes out sorted — byte-identical to the one-shot
    // builders' dense rows.
    auto& out = result[k];
    out.reserve(ids->size());
    for (const geom::LinkId nid : *ids) out.push_back(dense_of(nid));
  }
  if (hits != 0) row_hits_.add(hits);
  if (misses != 0) row_misses_.add(misses);
  maybe_evict();
  return result;
}

Graph ConflictIndex::build_graph(const geom::LinkView& links,
                                 const ConflictSpec& spec) const {
  Graph graph(links.size());
  if (links.size() < 2) {
    graph.finalize();
    return graph;
  }
  std::vector<std::size_t> all(links.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto rows = neighbors(links, spec, all);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (const std::int32_t j : rows[i]) {
      // Every edge surfaces from both endpoints; keep the i < j sighting.
      if (static_cast<std::size_t>(j) > i) {
        graph.add_edge(i, static_cast<std::size_t>(j));
      }
    }
  }
  graph.finalize();
  return graph;
}

}  // namespace wagg::conflict
