#include "common.h"

#include <cstring>

#include "schedule/verify.h"

namespace perfbench {

using namespace wagg;

std::uint64_t digest_inputs(const geom::Pointset& points,
                            const dynamic::ChurnTrace& trace) {
  std::uint64_t h = 0x6a09e667f3bcc908ULL;
  const auto mix_double = [&h](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof v);
    hash_mix(h, bits);
  };
  for (const auto& p : points) {
    mix_double(p.x);
    mix_double(p.y);
  }
  for (const auto& epoch : trace) {
    hash_mix(h, epoch.size());
    for (const auto& m : epoch) {
      hash_mix(h, static_cast<std::uint64_t>(m.kind));
      hash_mix(h,
               static_cast<std::uint64_t>(static_cast<std::int64_t>(m.node)));
      mix_double(m.position.x);
      mix_double(m.position.y);
    }
  }
  return h;
}

std::string Checkpoint::describe() const {
  return std::string("incremental schedule ") +
         (incremental_verified ? "verified" : "FAILED verification") +
         ", from-scratch plan " +
         (scratch_verified ? "verified" : "FAILED verification");
}

Checkpoint run_checkpoint(const dynamic::DynamicPlanner& planner,
                          const core::PlannerConfig& config) {
  const auto& snapshot = planner.snapshot();
  auto scratch_config = config;
  scratch_config.sink = snapshot.sink;  // compact index of the stable sink
  Checkpoint c;
  c.start = Clock::now();
  const auto full = core::plan_aggregation(snapshot.points, scratch_config,
                                           &c.scratch_stages);
  c.planned = Clock::now();
  const auto oracle = core::oracle_for_mode(snapshot.links, scratch_config);
  c.incremental_verified =
      schedule::verify_schedule(snapshot.links, snapshot.schedule, oracle)
          .ok();
  c.verified = Clock::now();
  c.scratch_verified = full.verified();
  c.incremental_slots = snapshot.schedule.length();
  c.scratch_slots = full.schedule().length();
  return c;
}

void trace_checkpoint(SpanLog& log, const Checkpoint& c, double epoch) {
  const auto op = log.next_op();
  const auto root = log.add({"checkpoint", 0, 0, op, log.ns(c.start),
                             log.ns(c.verified), {{"epoch", epoch}}});
  const auto& st = c.scratch_stages;
  log.add({"core::plan_aggregation", 0, root, op, log.ns(c.start),
           log.ns(c.planned),
           {{"tree_ms", st.tree_ms},
            {"conflict_ms", st.conflict_ms},
            {"coloring_ms", st.coloring_ms},
            {"repair_ms", st.repair_ms},
            {"verify_ms", st.verify_ms},
            {"power_ms", st.power_ms},
            {"slots", static_cast<double>(c.scratch_slots)}}});
  log.add({"schedule::verify_schedule", 0, root, op, log.ns(c.planned),
           log.ns(c.verified),
           {{"slots", static_cast<double>(c.incremental_slots)},
            {"ok", c.incremental_verified ? 1.0 : 0.0}}});
}

void add_report_fields(Span& span, const dynamic::EpochReport& r,
                       const conflict::ConflictIndexStats& before,
                       const conflict::ConflictIndexStats& after) {
  const auto& t = r.timings;
  const auto count = [](auto v) { return static_cast<double>(v); };
  span.fields.insert(
      span.fields.end(),
      {{"mst_update_ms", t.mst_update_ms},
       {"orient_ms", t.orient_ms},
       {"conflict_maintain_ms", t.conflict_maintain_ms},
       {"conflict_query_ms", t.conflict_query_ms},
       {"recolor_ms", t.recolor_ms},
       {"repair_ms", t.repair_ms},
       {"power_ms", t.power_ms},
       {"dirty_links", count(r.dirty_links)},
       {"full_replan", r.full_replan ? 1.0 : 0.0},
       {"slots", count(r.slots)},
       {"reused_slots", count(r.reused_slots)},
       {"oracle_calls", count(r.oracle_calls)},
       {"power_slots_cached", count(r.power_slots_cached)},
       {"power_slots_computed", count(r.power_slots_computed)},
       {"row_cache_hits", count(after.row_cache_hits - before.row_cache_hits)},
       {"row_cache_misses",
        count(after.row_cache_misses - before.row_cache_misses)}});
}

void LayerSums::add(const Span& span) {
  repair += span.field("repair_ms");
  oracle += span.field("oracle_calls");
  reused += span.field("reused_slots");
  slots += span.field("slots");
  power += span.field("power_ms");
  cached += span.field("power_slots_cached");
  computed += span.field("power_slots_computed");
  dirty += span.field("dirty_links");
  full += span.field("full_replan");
  recolor += span.field("recolor_ms");
  mst_update += span.field("mst_update_ms");
  orient += span.field("orient_ms");
  maintain += span.field("conflict_maintain_ms");
  query += span.field("conflict_query_ms");
  hits += span.field("row_cache_hits");
  misses += span.field("row_cache_misses");
}

std::vector<Metric> library_layers(const LayerSums& s,
                                        double scratch_repair_ms,
                                        double scratch_plan_ms,
                                        bool power_worked) {
  const auto per_op = [&s](double v) { return s.ops > 0 ? v / s.ops : 0.0; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  return {
      {"schedule.repair_ms", per_op(s.repair), "ms", true},
      {"schedule.oracle_calls", per_op(s.oracle), "count", true},
      {"schedule.reused_slot_ratio", ratio(s.reused, s.slots), "ratio", true},
      {"schedule.repair_vs_scratch", ratio(per_op(s.repair), scratch_repair_ms),
       "ratio", true},
      {"sinr.power_ms", per_op(s.power), "ms", power_worked},
      {"sinr.power_cache_hit_ratio", ratio(s.cached, s.cached + s.computed),
       "ratio", power_worked},
      {"dynamic.dirty_links", per_op(s.dirty), "count", true},
      {"dynamic.full_replan_ratio", per_op(s.full), "ratio", true},
      {"core.scratch_plan_ms", scratch_plan_ms, "ms", true},
      {"coloring.recolor_ms", per_op(s.recolor), "ms", true},
      {"mst.update_ms", per_op(s.mst_update), "ms", true},
      {"geom.orient_ms", per_op(s.orient), "ms", true},
      {"conflict.maintain_ms", per_op(s.maintain), "ms", true},
      {"conflict.query_ms", per_op(s.query), "ms", true},
      {"conflict.row_cache_hit_ratio", ratio(s.hits, s.hits + s.misses),
       "ratio", s.hits + s.misses > 0},
  };
}

}  // namespace perfbench
