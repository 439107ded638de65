#include "dynamic/dynamic_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "coloring/coloring.h"
#include "conflict/fgraph.h"
#include "mst/tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "schedule/ledger.h"
#include "schedule/repair.h"
#include "schedule/verify.h"
#include "sinr/feasibility.h"

namespace wagg::dynamic {

namespace {

constexpr double kUnknownLoad = std::numeric_limits<double>::infinity();

/// The planner's registry handles, resolved once (registration takes the
/// registry mutex; after that every epoch publishes against stable
/// references — no lookups, no locks). Registry::reset() zeroes values but
/// keeps registrations, so the references stay valid across metric windows.
struct PlannerMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& epochs = reg.counter("dynamic.epochs");
  obs::Counter& mutations = reg.counter("dynamic.mutations");
  obs::Counter& dirty_links = reg.counter("dynamic.dirty_links");
  obs::Counter& full_replans = reg.counter("dynamic.full_replans");
  obs::Counter& oracle_calls = reg.counter("dynamic.oracle_calls");
  obs::Counter& reused_slots = reg.counter("dynamic.reused_slots");
  obs::Counter& touched_slots = reg.counter("dynamic.touched_slots");
  obs::Counter& audit_failures = reg.counter("dynamic.audit_failures");
  obs::Counter& delta_added = reg.counter("mst.delta_added");
  obs::Counter& delta_removed = reg.counter("mst.delta_removed");
  obs::Counter& rebuilds = reg.counter("mst.rebuilds");
  obs::Counter& path_max_swaps = reg.counter("mst.path_max_swaps");
  obs::Counter& boruvka_rounds = reg.counter("mst.boruvka_rounds");
  obs::Counter& grid_fallbacks = reg.counter("mst.grid_fallback_sweeps");
  obs::Counter& rows_queried = reg.counter("conflict.rows_queried");
  obs::Counter& cell_probes = reg.counter("conflict.cell_probes");
  obs::Counter& dedupe_hits = reg.counter("conflict.dedupe_hits");
  obs::Counter& candidates_pruned = reg.counter("conflict.candidates_pruned");
  obs::Counter& candidates = reg.counter("conflict.candidates");
  obs::Counter& row_cache_hits = reg.counter("conflict.row_cache_hits");
  obs::Counter& row_cache_misses = reg.counter("conflict.row_cache_misses");
  obs::Counter& row_cache_patches = reg.counter("conflict.row_cache_patches");
  obs::Counter& row_cache_invalidations =
      reg.counter("conflict.row_cache_invalidations");
  obs::Counter& row_cache_evictions =
      reg.counter("conflict.row_cache_evictions");
  obs::Counter& certificate_hits = reg.counter("repair.certificate_hits");
  obs::Counter& certificate_misses =
      reg.counter("repair.certificate_misses");
  obs::Counter& power_hits = reg.counter("power.slot_cache_hits");
  obs::Counter& power_misses = reg.counter("power.slot_cache_misses");
  obs::Histogram& epoch_ms = reg.histogram("dynamic.epoch_ms");
  obs::Histogram& mst_ms = reg.histogram("dynamic.mst_ms");
  obs::Histogram& conflict_ms = reg.histogram("dynamic.conflict_ms");
  obs::Histogram& recolor_ms = reg.histogram("dynamic.recolor_ms");
  obs::Histogram& repair_ms = reg.histogram("dynamic.repair_ms");
  obs::Histogram& power_ms = reg.histogram("dynamic.power_ms");
  obs::Histogram& dirty_per_epoch =
      reg.histogram("dynamic.dirty_links_per_epoch");
  obs::Histogram& slot_drift = reg.histogram("dynamic.slot_drift");
};

PlannerMetrics& planner_metrics() {
  static PlannerMetrics metrics;
  return metrics;
}

}  // namespace

void DynamicOptions::validate() const {
  config.validate();
  if (config.tree != core::TreeKind::kMst) {
    throw std::invalid_argument(
        "DynamicOptions: only TreeKind::kMst supports incremental updates");
  }
}

void DynamicPlanner::on_add(geom::LinkId id) {
  conflict_index_.add(id, mst_.position(store_.sender(id)),
                      mst_.position(store_.receiver(id)), store_.length(id));
}

void DynamicPlanner::on_remove(geom::LinkId id) { conflict_index_.remove(id); }

void DynamicPlanner::on_flip(geom::LinkId id) {
  // An orientation flip leaves the undirected endpoint pair — the conflict
  // metric's only input — untouched; the index needs no update.
  (void)id;
}

void DynamicPlanner::on_set_length(geom::LinkId id) {
  conflict_index_.update(id, mst_.position(store_.sender(id)),
                         mst_.position(store_.receiver(id)),
                         store_.length(id));
}

void DynamicPlanner::on_touch(geom::LinkId id) {
  // touch marks geometry context changes; the endpoints may have moved even
  // when the cached length survived, so refresh the index cells.
  on_set_length(id);
}

DynamicPlanner::DynamicPlanner(const geom::Pointset& initial,
                               DynamicOptions options)
    : options_(std::move(options)), mst_(geom::Pointset{}) {
  options_.validate();
  store_.set_listener(this);
  if (initial.size() < 2) {
    throw std::invalid_argument("DynamicPlanner: need >= 2 initial points");
  }
  if (options_.config.sink < 0 ||
      static_cast<std::size_t>(options_.config.sink) >= initial.size()) {
    throw std::invalid_argument("DynamicPlanner: sink out of range");
  }
  sink_id_ = options_.config.sink;

  EpochReport report;
  report.epoch = 0;
  {
    obs::Span epoch_span("epoch");
    // The seed tree is the construction epoch's tree update.
    obs::StageSpan mst_span("mst_update");
    mst_ = mst::IncrementalMst(initial);
    report.timings.mst_update_ms = mst_span.close();
    replan({}, report);
    if (options_.audit) run_audit(report);
  }
  publish_epoch_metrics(report);
  report_ = report;
}

EpochReport DynamicPlanner::apply(std::span<const Mutation> mutations) {
  EpochReport report;
  report.epoch = report_.epoch + 1;
  report.mutations_applied = mutations.size();

  obs::Span epoch_span("epoch");
  obs::StageSpan mst_span("mst_update");
  // Past ~n/8 mutations bulk epochs defer tree updates and rebuild once
  // with the batch cone-star Prim; below it, per-update cost (polylog plus
  // the occasional component walk) keeps localized patching ahead.
  const bool bulk =
      mutations.size() >= std::max<std::size_t>(8, mst_.num_alive() / 8);
  std::vector<NodeId> touched;
  touched.reserve(mutations.size());
  try {
    for (const auto& mutation : mutations) {
      switch (mutation.kind) {
        case Mutation::Kind::kAdd:
          touched.push_back(bulk ? mst_.add_point_deferred(mutation.position)
                                 : mst_.add_point(mutation.position));
          break;
        case Mutation::Kind::kRemove:
          if (mutation.node == sink_id_) {
            throw std::invalid_argument(
                "DynamicPlanner: the sink cannot be removed");
          }
          if (mst_.num_alive() <= 2) {
            throw std::invalid_argument(
                "DynamicPlanner: removal would drop below 2 nodes");
          }
          if (bulk) {
            mst_.remove_point_deferred(mutation.node);
          } else {
            mst_.remove_point(mutation.node);
          }
          break;
        case Mutation::Kind::kMove:
          if (bulk) {
            mst_.move_point_deferred(mutation.node, mutation.position);
          } else {
            mst_.move_point(mutation.node, mutation.position);
          }
          touched.push_back(mutation.node);
          break;
      }
    }
  } catch (...) {
    // Applied prefix stays applied (documented). The prefix's touched nodes
    // are lost with this frame, so carried slot certificates can no longer
    // tell clean links from moved ones, and the store's lengths may be
    // stale. Drop everything FIRST — the carried state must be invalidated
    // even if the recovery rebuild below throws too — so the next epoch
    // reconciles the store and replans (and re-verifies) from scratch.
    invalidate_carried_state();
    // The tree must still be consistent for the next epoch: bulk epochs
    // postponed their updates entirely, and even a per-mutation update can
    // die partway through its in-place dtree/adjacency/grid edits — so
    // rebuild unconditionally (error path).
    mst_.rebuild();
    throw;
  }
  if (bulk) mst_.rebuild();
  report.timings.mst_update_ms = mst_span.close();

  try {
    replan(touched, report);
    if (options_.audit) run_audit(report);
  } catch (...) {
    // replan may have mutated the store/index/plan partway (or run_audit
    // died after the plan advanced); either way the carried validity chain
    // is broken, so drop it before propagating — the next successful epoch
    // re-anchors from scratch.
    invalidate_carried_state();
    throw;
  }
  publish_epoch_metrics(report);
  report_ = report;
  return report;
}

std::vector<EpochReport> DynamicPlanner::apply_trace(const ChurnTrace& trace) {
  std::vector<EpochReport> reports;
  reports.reserve(trace.size());
  for (const auto& epoch_mutations : trace) {
    reports.push_back(apply(epoch_mutations));
  }
  return reports;
}

void DynamicPlanner::invalidate_carried_state() {
  std::fill(slot_of_.begin(), slot_of_.end(), -1);
  prev_slot_count_.clear();
  std::fill(ledger_load_.begin(), ledger_load_.end(), kUnknownLoad);
  ledger_exact_.clear();
  slot_powers_.clear();
  slot_powers_current_ = false;
  force_reconcile_ = true;
}

void DynamicPlanner::ensure_node(NodeId id) {
  const auto needed = static_cast<std::size_t>(id) + 1;
  if (parent_.size() < needed) {
    parent_.resize(needed, kNoParent);
    uplink_.resize(needed, geom::kNoLink);
    tree_adj_.resize(needed);
  }
}

bool DynamicPlanner::reaches_sink(NodeId node) const {
  NodeId cur = node;
  for (std::size_t steps = 0; steps <= parent_.size(); ++steps) {
    if (cur == sink_id_) return true;
    const NodeId up = parent_[static_cast<std::size_t>(cur)];
    if (up < 0) return false;  // broken root (or inconsistent state)
    cur = up;
  }
  throw std::logic_error("DynamicPlanner: parent-chain cycle detected");
}

void DynamicPlanner::rehang(NodeId child, NodeId parent) {
  // Attach the detached component at `child` and re-root it there: walk the
  // old parent chain up to the broken root, reversing one pointer — and
  // flipping one store link in place — per hop. Cost is the path length,
  // not the component (let alone the instance).
  geom::LinkId new_link = store_.add(
      child, parent,
      geom::distance(mst_.position(child), mst_.position(parent)));
  NodeId cur = child;
  NodeId new_parent = parent;
  for (std::size_t steps = 0; steps <= parent_.size(); ++steps) {
    const NodeId old_parent = parent_[static_cast<std::size_t>(cur)];
    const geom::LinkId old_link = uplink_[static_cast<std::size_t>(cur)];
    parent_[static_cast<std::size_t>(cur)] = new_parent;
    uplink_[static_cast<std::size_t>(cur)] = new_link;
    if (old_parent == kNoParent) return;  // reached the broken root
    if (old_parent < 0) {
      throw std::logic_error(
          "DynamicPlanner::rehang: chain ran into the sink — the attached "
          "component already contained it");
    }
    store_.flip(old_link);  // was cur -> old_parent, now old_parent -> cur
    new_parent = cur;
    new_link = old_link;
    cur = old_parent;
  }
  throw std::logic_error("DynamicPlanner::rehang: parent-chain cycle");
}

void DynamicPlanner::apply_structural_diff(const mst::MstDelta& delta) {
  const auto& final_edges = mst_.edges();  // sorted by (a, b), a < b
  const auto in_tree = [&](NodeId a, NodeId b) {
    const mst::IdEdge probe = a < b ? mst::IdEdge{a, b} : mst::IdEdge{b, a};
    return std::binary_search(
        final_edges.begin(), final_edges.end(), probe,
        [](const mst::IdEdge& x, const mst::IdEdge& y) {
          if (x.a != y.a) return x.a < y.a;
          return x.b < y.b;
        });
  };

  // The journal over-approximates: an edge removed and re-added within the
  // epoch nets out. Filter to the exact diff against the store (which still
  // mirrors the pre-epoch tree), deduplicating repeats.
  std::vector<std::pair<NodeId, NodeId>> removed;
  std::vector<std::uint64_t> seen;
  for (const auto& e : delta.removed) {
    if (store_.find_pair(e.a, e.b) == geom::kNoLink) continue;
    if (in_tree(e.a, e.b)) continue;
    const auto key = geom::LinkStore::pair_key(e.a, e.b);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    removed.emplace_back(e.a, e.b);
  }
  std::vector<std::pair<NodeId, NodeId>> pending;
  seen.clear();
  for (const auto& e : delta.added) {
    if (!in_tree(e.a, e.b)) continue;
    if (store_.find_pair(e.a, e.b) != geom::kNoLink) continue;
    const auto key = geom::LinkStore::pair_key(e.a, e.b);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    pending.emplace_back(e.a, e.b);
  }

  // Removals first: break the child side's parent pointer. The store drops
  // the link; the component below keeps its orientation toward the (now
  // broken) root.
  for (const auto& [a, b] : removed) {
    auto& adj_a = tree_adj_[static_cast<std::size_t>(a)];
    auto& adj_b = tree_adj_[static_cast<std::size_t>(b)];
    const auto it_a = std::find(adj_a.begin(), adj_a.end(), b);
    const auto it_b = std::find(adj_b.begin(), adj_b.end(), a);
    if (it_a == adj_a.end() || it_b == adj_b.end()) {
      throw std::logic_error(
          "DynamicPlanner: removed edge missing from adjacency");
    }
    adj_a.erase(it_a);
    adj_b.erase(it_b);
    NodeId child;
    if (parent_[static_cast<std::size_t>(a)] == b) {
      child = a;
    } else if (parent_[static_cast<std::size_t>(b)] == a) {
      child = b;
    } else {
      throw std::logic_error(
          "DynamicPlanner: removed edge inconsistent with orientation");
    }
    store_.remove(uplink_[static_cast<std::size_t>(child)]);
    uplink_[static_cast<std::size_t>(child)] = geom::kNoLink;
    parent_[static_cast<std::size_t>(child)] = kNoParent;
  }

  for (const auto& [a, b] : pending) {
    ensure_node(a > b ? a : b);
    tree_adj_[static_cast<std::size_t>(a)].push_back(b);
    tree_adj_[static_cast<std::size_t>(b)].push_back(a);
  }

  // Reattach detached components. An added edge is processable once one
  // endpoint reaches the sink through already-settled structure; chained
  // reconnections settle over multiple passes (the final tree is connected,
  // so each pass resolves at least one edge).
  while (!pending.empty()) {
    bool progressed = false;
    for (std::size_t k = 0; k < pending.size();) {
      const auto [a, b] = pending[k];
      if (reaches_sink(a)) {
        rehang(b, a);
      } else if (reaches_sink(b)) {
        rehang(a, b);
      } else {
        ++k;
        continue;
      }
      progressed = true;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
    }
    if (!progressed) {
      throw std::logic_error(
          "DynamicPlanner: edge diff left the tree disconnected");
    }
  }
}

void DynamicPlanner::reconcile_full(bool reseed_index) {
  // From-scratch orientation in id-space (BFS from the sink), reconciled
  // against the store so surviving pairs keep their stable ids: stale links
  // are dropped, mis-directed ones flipped in place, missing ones added,
  // and every length refreshed (bit-identical values do not bump
  // generations, so clean links stay clean).
  const auto ids = mst_.alive_ids();
  if (!ids.empty()) ensure_node(ids.back());
  for (const auto id : ids) {
    parent_[static_cast<std::size_t>(id)] = kNoParent;
    uplink_[static_cast<std::size_t>(id)] = geom::kNoLink;
    tree_adj_[static_cast<std::size_t>(id)].clear();
  }
  for (const auto& e : mst_.edges()) {
    tree_adj_[static_cast<std::size_t>(e.a)].push_back(e.b);
    tree_adj_[static_cast<std::size_t>(e.b)].push_back(e.a);
  }

  parent_[static_cast<std::size_t>(sink_id_)] = -1;
  std::vector<NodeId> frontier{sink_id_};
  std::size_t head = 0;
  while (head < frontier.size()) {
    const NodeId v = frontier[head++];
    for (const NodeId w : tree_adj_[static_cast<std::size_t>(v)]) {
      if (parent_[static_cast<std::size_t>(w)] != kNoParent) continue;
      parent_[static_cast<std::size_t>(w)] = v;
      frontier.push_back(w);
    }
  }
  if (frontier.size() != ids.size()) {
    throw std::logic_error(
        "DynamicPlanner: maintained tree does not span the alive nodes");
  }

  for (const auto link : store_.live_ids()) {
    const NodeId s = store_.sender(link);
    const NodeId r = store_.receiver(link);
    const bool live_pair = mst_.alive(s) && mst_.alive(r);
    if (live_pair && parent_[static_cast<std::size_t>(s)] == r) {
      uplink_[static_cast<std::size_t>(s)] = link;
    } else if (live_pair && parent_[static_cast<std::size_t>(r)] == s) {
      store_.flip(link);
      uplink_[static_cast<std::size_t>(r)] = link;
    } else {
      store_.remove(link);
    }
  }
  for (const auto id : ids) {
    if (id == sink_id_) continue;
    const NodeId up = parent_[static_cast<std::size_t>(id)];
    const double len =
        geom::distance(mst_.position(id), mst_.position(up));
    if (uplink_[static_cast<std::size_t>(id)] == geom::kNoLink) {
      uplink_[static_cast<std::size_t>(id)] = store_.add(id, up, len);
    } else {
      store_.set_length(uplink_[static_cast<std::size_t>(id)], len);
    }
  }

  // The listener kept the conflict index structurally in sync above. After
  // a FAILED epoch that is not enough: its touched-node list died with the
  // exception frame, so a node may have moved while its uplink length
  // stayed bit-identical — the set_length refresh above then fires no
  // event and the index would keep the endpoint's OLD position (wrong grid
  // cell, wrong distance prune). Re-seed it from the reconciled truth.
  if (!reseed_index) return;
  conflict_index_.clear();
  for (const auto link : store_.live_ids()) {
    conflict_index_.add(link, mst_.position(store_.sender(link)),
                        mst_.position(store_.receiver(link)),
                        store_.length(link));
  }
}

void DynamicPlanner::refresh_touched(const std::vector<NodeId>& touched) {
  for (const NodeId v : touched) {
    if (!mst_.alive(v)) continue;  // added/moved, then removed in-batch
    for (const NodeId u : tree_adj_[static_cast<std::size_t>(v)]) {
      const NodeId child = parent_[static_cast<std::size_t>(u)] == v ? u : v;
      const geom::LinkId link = uplink_[static_cast<std::size_t>(child)];
      const NodeId up = parent_[static_cast<std::size_t>(child)];
      store_.set_length(
          link, geom::distance(mst_.position(child), mst_.position(up)));
      // The length alone cannot express a moved endpoint (SINR distances to
      // every other link shifted even when the length survived), so bump
      // the generation unconditionally.
      store_.touch(link);
    }
  }
}

void DynamicPlanner::replan(const std::vector<NodeId>& touched,
                            EpochReport& report) {
  const auto& config = options_.config;

  // ---- bring the id-space store in line with the maintained tree ----
  // One stage clock: every EpochTimings field below is billed from the
  // stage span named after it. Conflict-index upkeep rides the store's
  // listener hooks inside this stage as nested conflict_maintain spans;
  // carving their total out of orient_ms leaves orient its self time.
  const double maintain_mark = conflict_index_.stats().maintain_ms;
  obs::StageSpan stage_span("orient");
  const auto delta = mst_.take_delta();
  {
    auto& metrics = planner_metrics();
    metrics.delta_added.add(delta.added.size());
    metrics.delta_removed.add(delta.removed.size());
    if (delta.rebuilt) metrics.rebuilds.add();
  }
  if (force_reconcile_ || delta.rebuilt) {
    // Construction's listener adds already seeded the index; only the
    // recovery after a failed epoch re-seeds it.
    reconcile_full(/*reseed_index=*/force_reconcile_ && report.epoch > 0);
    force_reconcile_ = false;
  } else {
    apply_structural_diff(delta);
  }
  refresh_touched(touched);

  // ---- dense per-epoch snapshot (increasing-id order) ----
  auto ids = mst_.alive_ids();
  geom::Pointset points;
  points.reserve(ids.size());
  for (const auto id : ids) points.push_back(mst_.position(id));
  std::vector<std::int32_t> node_index(
      ids.empty() ? 0 : static_cast<std::size_t>(ids.back()) + 1, -1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    node_index[static_cast<std::size_t>(ids[i])] =
        static_cast<std::int32_t>(i);
  }
  const auto sink_it = std::lower_bound(ids.begin(), ids.end(), sink_id_);
  const auto sink_idx = static_cast<std::int32_t>(sink_it - ids.begin());
  geom::LinkSet links(store_.snapshot(points, node_index));
  const std::size_t n = links.size();
  const double maintain_ms =
      conflict_index_.stats().maintain_ms - maintain_mark;
  report.timings.conflict_maintain_ms += maintain_ms;
  report.timings.orient_ms += stage_span.next("recolor") - maintain_ms;

  // ---- dirty detection via generation counters (no conflict graph
  // needed: the pairwise conflict relation of two geometrically unchanged
  // links cannot change); billed to recolor ----
  // Fixed-power modes with ambient noise couple every power to the global
  // max link length; any change then invalidates every link.
  const bool noise_coupled = config.power_mode != core::PowerMode::kGlobal &&
                             config.sinr.noise > 0.0;
  if (slot_of_.size() < store_.capacity()) {
    slot_of_.resize(store_.capacity(), -1);
    ledger_power_.resize(store_.capacity(), 0.0);
    ledger_load_.resize(store_.capacity(), kUnknownLoad);
  }
  std::vector<bool> dirty(n, false);
  std::vector<std::size_t> dirty_indices;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::size_t>(links.id_of(i));
    dirty[i] = noise_coupled || slot_of_[id] < 0 ||
               store_.generation(links.id_of(i)) > plan_clock_;
    if (dirty[i]) dirty_indices.push_back(i);
  }
  report.dirty_links = dirty_indices.size();
  report.num_nodes = points.size();
  report.num_links = n;
  // Construction, the recovery after a failed epoch and noise-coupled
  // epochs re-plan every link: no seed, every class all-loose.
  const bool full = dirty_indices.size() == n;
  report.full_replan = full;

  // ---- conflict rows for the dirty links ----
  // Conflict adjacency is needed only for the dirty links: the relation
  // between two unchanged links cannot change, and clean links keep their
  // colors. The persistent index answers those rows against its standing
  // per-class grids — output-sensitive queries with ZERO per-epoch rebuild.
  report.timings.recolor_ms += stage_span.next("conflict_query");
  if (config.order == core::ColoringOrder::kDecreasingLength) {
    dirty_indices = schedule::pack_order(links, dirty_indices);
  } else {
    std::sort(dirty_indices.begin(), dirty_indices.end(),
              [&](std::size_t a, std::size_t b) {
                if (links.length(a) != links.length(b)) {
                  return links.length(a) < links.length(b);
                }
                return a < b;
              });
  }
  const auto spec = core::spec_for_mode(config);
  const auto neighbor_rows =
      conflict_index_.neighbors(links, spec, dirty_indices);
  report.timings.conflict_query_ms += stage_span.next("recolor");

  // Seeded recolor: surviving links keep their final slot (final slots are
  // independent sets, so the seed is proper); only dirty links are
  // first-fit colored against their conflict rows.
  std::vector<int> seed(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!dirty[i]) seed[i] = slot_of_[links.id_of(i)];
  }
  const auto recolored =
      coloring::greedy_recolor_rows(dirty_indices, neighbor_rows, seed);
  report.timings.recolor_ms += stage_span.next("repair");

  // Slot carry-over + patch repair against the slot ledger. Soundness does
  // NOT assume oracle monotonicity under member departure: a slot's verdict
  // is carried over only when its membership is UNCHANGED; a class that
  // shrank is re-checked — its carried bounds are still upper bounds under
  // the same powers — before serving as a kept sub-slot or a final slot.
  const bool carried = config.power_mode == core::PowerMode::kGlobal;
  auto ledger = core::ledger_for_mode(links, config);
  std::vector<std::vector<std::size_t>> classes(
      static_cast<std::size_t>(recolored.num_colors));
  for (std::size_t i = 0; i < n; ++i) {
    classes[static_cast<std::size_t>(recolored.color_of[i])].push_back(i);
  }
  schedule::Schedule final_schedule;
  std::vector<char> next_exact;  // ledger_exact_ of the final slots
  std::vector<schedule::LedgerSlot> certificates;  // full epochs only
  for (std::size_t c = 0; c < classes.size(); ++c) {
    auto& members = classes[c];
    if (members.empty()) continue;
    std::vector<std::size_t> kept;
    std::vector<std::size_t> loose;
    for (const auto i : members) {
      (dirty[i] ? loose : kept).push_back(i);
    }
    // Unchanged membership <=> every previous member survived clean; the
    // old certificate then applies verbatim. A shrunk class is handled by
    // patch_slot's uncertified-kept path: one re-check, or a repack if it
    // is now rejected.
    const bool kept_certified =
        kept.empty() ||
        (c < prev_slot_count_.size() && kept.size() == prev_slot_count_[c]);
    const bool was_exact = c < ledger_exact_.size() && ledger_exact_[c];
    if (loose.empty() && kept_certified) {
      ++report.reused_slots;
      final_schedule.slots.push_back(std::move(kept));
      next_exact.push_back(was_exact);
      continue;
    }
    // Kept clean links were all in previous slot c: their powers and bounds
    // carry over from the id-keyed ledger (bounds only loosen as members
    // depart, so they stay sound).
    auto kept_slot = ledger.unknown(kept);
    for (std::size_t a = 0; a < kept.size(); ++a) {
      const auto id = static_cast<std::size_t>(links.id_of(kept[a]));
      if (carried) kept_slot.log2_power[a] = ledger_power_[id];
      kept_slot.load[a] = ledger_load_[id];
    }
    kept_slot.exact = was_exact && kept_certified;
    auto patch = schedule::patch_slot(ledger, std::move(kept_slot), loose,
                                      kept_certified);
    report.oracle_calls += patch.oracle_calls;
    report.certificate_hits += patch.certificates.hits;
    report.certificate_misses += patch.certificates.misses;
    report.touched_slots += patch.sub_slots.size();
    for (auto& sub : patch.sub_slots) {
      record_certificate(links, sub);
      next_exact.push_back(sub.exact);
      final_schedule.slots.push_back(sub.members);
      if (full) certificates.push_back(std::move(sub));
    }
  }
  if (full) {
    // No slot carried a verdict over: check the whole plan from scratch,
    // kGlobal slots under the powers that certified them in repair.
    const auto oracle = core::oracle_for_mode(links, config);
    report.valid = (carried ? schedule::verify_certified(
                                  final_schedule, certificates, ledger, oracle)
                            : schedule::verify_schedule(links, final_schedule,
                                                        oracle))
                       .ok();
  } else {
    report.valid = schedule::is_partition(final_schedule, n);
  }
  report.timings.repair_ms += stage_span.close();

  report.slots = final_schedule.length();
  report.rate = final_schedule.empty() ? 0.0 : final_schedule.coloring_rate();

  // ---- persist state for the next epoch (id-indexed arrays: no key
  // remapping, no hashing) ----
  prev_slot_count_.assign(final_schedule.slots.size(), 0);
  for (std::size_t s = 0; s < final_schedule.slots.size(); ++s) {
    prev_slot_count_[s] = final_schedule.slots[s].size();
    for (const auto i : final_schedule.slots[s]) {
      slot_of_[static_cast<std::size_t>(links.id_of(i))] =
          static_cast<int>(s);
    }
  }
  ledger_exact_ = std::move(next_exact);
  plan_clock_ = store_.clock();
  slot_powers_current_ = false;
  current_.points = std::move(points);
  current_.ids = std::move(ids);
  current_.sink = sink_idx;
  current_.links = std::move(links);
  current_.schedule = std::move(final_schedule);
  current_.rate = report.rate;
}

void DynamicPlanner::record_certificate(const geom::LinkView& links,
                                        const schedule::LedgerSlot& slot) {
  for (std::size_t a = 0; a < slot.members.size(); ++a) {
    const auto id = static_cast<std::size_t>(links.id_of(slot.members[a]));
    ledger_power_[id] = slot.log2_power[a];
    ledger_load_[id] = slot.load[a];
  }
}

bool DynamicPlanner::carried_powers(std::size_t s,
                                    std::vector<double>& dense) const {
  const auto& links = current_.links;
  const auto& slot = current_.schedule.slots[s];
  dense.assign(links.size(), 0.0);
  for (const auto i : slot) {
    const auto id = static_cast<std::size_t>(links.id_of(i));
    if (!std::isfinite(ledger_load_[id])) return false;
    dense[i] = ledger_power_[id];
  }
  return true;
}

const std::vector<sinr::PowerAssignment>& DynamicPlanner::slot_powers() {
  if (options_.config.power_mode != core::PowerMode::kGlobal) {
    throw std::logic_error(
        "DynamicPlanner::slot_powers: fixed-power modes use sinr::*_power, "
        "not per-slot power vectors");
  }
  if (slot_powers_current_) return slot_powers_;
  obs::StageSpan span("power");
  const auto& links = current_.links;
  slot_powers_.clear();
  slot_powers_.reserve(current_.schedule.slots.size());
  std::vector<double> dense;
  std::optional<schedule::SlotLedger> ledger;
  for (std::size_t s = 0; s < current_.schedule.slots.size(); ++s) {
    if (carried_powers(s, dense)) {
      ++report_.power_slots_cached;
      planner_metrics().power_hits.add();
      slot_powers_.emplace_back(std::move(dense), "power-control");
      continue;
    }
    // A failed epoch dropped the slot's ledger entry: settle the slot
    // afresh, which re-seeds the entry.
    ++report_.power_slots_computed;
    planner_metrics().power_misses.add();
    if (!ledger) ledger.emplace(links, options_.config.sinr);
    auto slot = ledger->unknown(current_.schedule.slots[s]);
    schedule::CertificateCounts counts;
    if (!ledger->settle(slot, counts)) {
      slot_powers_.emplace_back(std::vector<double>(links.size(), 0.0),
                                "infeasible-slot");
      continue;
    }
    record_certificate(links, slot);
    (void)carried_powers(s, dense);
    slot_powers_.emplace_back(std::move(dense), "power-control");
  }

  slot_powers_current_ = true;
  const double elapsed = span.close();
  report_.timings.power_ms += elapsed;
  planner_metrics().power_ms.record(elapsed);
  return slot_powers_;
}

void DynamicPlanner::run_audit(EpochReport& report) {
  obs::StageSpan stage("audit_full");
  auto config = options_.config;
  config.sink = current_.sink;  // compact index of the stable sink id

  const auto full = core::plan_aggregation(current_.points, config);
  report.audit_full_ms = stage.next("audit");
  report.audit_full_slots = full.schedule().length();
  report.audit_full_rate = full.rate();

  // From-scratch feasibility check of the incremental schedule.
  const auto oracle = core::oracle_for_mode(current_.links, config);
  const auto verification =
      schedule::verify_schedule(current_.links, current_.schedule, oracle);
  report.audit_valid = verification.ok();

  // The deployed powers: every slot's carried ledger vector must satisfy
  // the exact SINR inequalities on its slot.
  report.audit_power_valid = true;
  if (config.power_mode == core::PowerMode::kGlobal) {
    std::vector<double> dense;
    for (std::size_t s = 0; s < current_.schedule.slots.size(); ++s) {
      if (!carried_powers(s, dense)) continue;
      report.audit_power_valid =
          report.audit_power_valid &&
          sinr::is_feasible(current_.links, current_.schedule.slots[s],
                            config.sinr,
                            sinr::PowerAssignment(std::move(dense)), 1e-6);
    }
  }

  // The incremental MST must weigh exactly as much as a from-scratch MST.
  double incremental_weight = 0.0;
  for (std::size_t i = 0; i < current_.links.size(); ++i) {
    incremental_weight += current_.links.length(i);
  }
  double full_weight = 0.0;
  for (std::size_t i = 0; i < full.tree.links.size(); ++i) {
    full_weight += full.tree.links.length(i);
  }
  report.audit_tree_match =
      std::abs(incremental_weight - full_weight) <=
      1e-9 * std::max(1.0, std::abs(full_weight));

  // The diff-maintained store must equal a from-scratch re-orientation of
  // the maintained tree: same directed pairs, same lengths (bit-identical —
  // both sides run geom::distance on the same coordinates).
  auto oriented =
      mst::orient_toward_sink(current_.points, mst_.compact_edges(),
                              current_.sink);
  bool store_match =
      oriented.links.size() == store_.num_live() &&
      store_.num_live() == current_.links.size();
  for (std::size_t i = 0; store_match && i < oriented.links.size(); ++i) {
    const NodeId s = current_.ids[static_cast<std::size_t>(
        oriented.links.link(i).sender)];
    const NodeId r = current_.ids[static_cast<std::size_t>(
        oriented.links.link(i).receiver)];
    const geom::LinkId link = store_.find_pair(s, r);
    store_match = link != geom::kNoLink && store_.sender(link) == s &&
                  store_.receiver(link) == r &&
                  store_.length(link) == oriented.links.length(i);
  }
  report.audit_store_match = store_match;

  // The maintained conflict index must answer every link's row exactly as a
  // from-scratch build over the same snapshot — the standing grids never
  // drift from the live geometry. The first call materializes every row it
  // misses; the second is then answered from the diff-patched row cache, so
  // equality of the pair proves cached rows never drift from a from-scratch
  // recomputation either.
  std::vector<std::size_t> all_links(current_.links.size());
  std::iota(all_links.begin(), all_links.end(), std::size_t{0});
  const auto spec = core::spec_for_mode(config);
  const auto index_rows =
      conflict_index_.neighbors(current_.links, spec, all_links);
  report.audit_index_match =
      index_rows == conflict::ConflictIndex::of(current_.links)
                        .neighbors(current_.links, spec, all_links) &&
      index_rows == conflict_index_.neighbors(current_.links, spec,
                                              all_links);

  report.audited = true;
  report.timings.audit_ms = report.audit_full_ms + stage.close();
  if (!(report.audit_valid && report.audit_power_valid &&
        report.audit_tree_match && report.audit_store_match &&
        report.audit_index_match)) {
    planner_metrics().audit_failures.add();
  }
}

void DynamicPlanner::publish_epoch_metrics(const EpochReport& report) {
  auto& metrics = planner_metrics();
  metrics.epochs.add();
  metrics.mutations.add(report.mutations_applied);
  metrics.dirty_links.add(report.dirty_links);
  if (report.full_replan) metrics.full_replans.add();
  metrics.oracle_calls.add(report.oracle_calls);
  metrics.certificate_hits.add(report.certificate_hits);
  metrics.certificate_misses.add(report.certificate_misses);
  metrics.reused_slots.add(report.reused_slots);
  metrics.touched_slots.add(report.touched_slots);

  const auto mst_stats = mst_.stats();
  metrics.path_max_swaps.add(mst_stats.path_max_swaps -
                             mst_stats_mark_.path_max_swaps);
  metrics.boruvka_rounds.add(mst_stats.boruvka_rounds -
                             mst_stats_mark_.boruvka_rounds);
  metrics.grid_fallbacks.add(mst_stats.grid_fallback_sweeps -
                             mst_stats_mark_.grid_fallback_sweeps);
  mst_stats_mark_ = mst_stats;

  const auto conflict_stats = conflict_index_.stats();
  metrics.rows_queried.add(conflict_stats.rows_queried -
                           conflict_stats_mark_.rows_queried);
  metrics.dedupe_hits.add(conflict_stats.dedupe_hits -
                          conflict_stats_mark_.dedupe_hits);
  metrics.cell_probes.add(conflict_stats.cell_probes -
                          conflict_stats_mark_.cell_probes);
  metrics.candidates_pruned.add(conflict_stats.candidates_pruned -
                                conflict_stats_mark_.candidates_pruned);
  metrics.candidates.add(conflict_stats.candidates -
                         conflict_stats_mark_.candidates);
  metrics.row_cache_hits.add(conflict_stats.row_cache_hits -
                             conflict_stats_mark_.row_cache_hits);
  metrics.row_cache_misses.add(conflict_stats.row_cache_misses -
                               conflict_stats_mark_.row_cache_misses);
  metrics.row_cache_patches.add(conflict_stats.row_cache_patches -
                                conflict_stats_mark_.row_cache_patches);
  metrics.row_cache_invalidations.add(
      conflict_stats.row_cache_invalidations -
      conflict_stats_mark_.row_cache_invalidations);
  metrics.row_cache_evictions.add(conflict_stats.row_cache_evictions -
                                  conflict_stats_mark_.row_cache_evictions);
  conflict_stats_mark_ = conflict_stats;

  const EpochTimings& t = report.timings;
  metrics.epoch_ms.record(t.incremental_ms());
  metrics.mst_ms.record(t.mst_ms());
  metrics.conflict_ms.record(t.conflict_ms());
  metrics.recolor_ms.record(t.recolor_ms);
  metrics.repair_ms.record(t.repair_ms);
  metrics.dirty_per_epoch.record(static_cast<double>(report.dirty_links));
  if (report.audited) {
    metrics.slot_drift.record(static_cast<double>(report.slots) /
                              static_cast<double>(report.audit_full_slots));
  }
}

}  // namespace wagg::dynamic
