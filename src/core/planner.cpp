#include "core/planner.h"

#include <algorithm>
#include <stdexcept>

#include "coloring/coloring.h"
#include "conflict/conflict_index.h"
#include "obs/trace.h"
#include "schedule/repair.h"

namespace wagg::core {

std::string to_string(PowerMode mode) {
  switch (mode) {
    case PowerMode::kUniform:
      return "uniform";
    case PowerMode::kLinear:
      return "linear";
    case PowerMode::kOblivious:
      return "oblivious";
    case PowerMode::kGlobal:
      return "global";
  }
  return "?";
}

void PlannerConfig::validate() const {
  sinr.validate();
  if (!(gamma > 0.0)) {
    throw std::invalid_argument("PlannerConfig: gamma must be positive");
  }
  if (power_mode == PowerMode::kOblivious) {
    if (!(tau > 0.0 && tau < 1.0)) {
      throw std::invalid_argument(
          "PlannerConfig: oblivious mode requires tau in (0, 1)");
    }
    if (!(delta > 0.0 && delta < 1.0)) {
      throw std::invalid_argument("PlannerConfig: delta must lie in (0, 1)");
    }
    if (delta <= std::max(tau, 1.0 - tau)) {
      throw std::invalid_argument(
          "PlannerConfig: delta must exceed max(tau, 1 - tau) for the "
          "conflict graph to imply P_tau feasibility");
    }
  }
}

conflict::ConflictSpec spec_for_mode(const PlannerConfig& config) {
  switch (config.power_mode) {
    case PowerMode::kGlobal:
      return conflict::ConflictSpec::logarithmic(config.gamma,
                                                 config.sinr.alpha);
    case PowerMode::kOblivious:
      return conflict::ConflictSpec::power_law(config.gamma, config.delta);
    case PowerMode::kUniform:
    case PowerMode::kLinear:
      return conflict::ConflictSpec::constant(config.gamma);
  }
  throw std::logic_error("spec_for_mode: unknown power mode");
}

sinr::PowerAssignment power_for_mode(const geom::LinkView& links,
                                     const PlannerConfig& config) {
  switch (config.power_mode) {
    case PowerMode::kUniform:
      return sinr::uniform_power(links, config.sinr);
    case PowerMode::kLinear:
      return sinr::linear_power(links, config.sinr);
    case PowerMode::kOblivious:
      return sinr::oblivious_power(links, config.tau, config.sinr);
    case PowerMode::kGlobal:
      // Placeholder identity; real powers are per-slot Perron vectors.
      return sinr::PowerAssignment(std::vector<double>(links.size(), 0.0),
                                   "global(per-slot)");
  }
  throw std::logic_error("power_for_mode: unknown power mode");
}

schedule::FeasibilityOracle oracle_for_mode(const geom::LinkView& links,
                                            const PlannerConfig& config) {
  if (config.power_mode == PowerMode::kGlobal) {
    return schedule::power_control_oracle(links, config.sinr);
  }
  return schedule::fixed_power_oracle(links, config.sinr,
                                      power_for_mode(links, config));
}

schedule::SlotLedger ledger_for_mode(const geom::LinkView& links,
                                     const PlannerConfig& config) {
  if (config.power_mode == PowerMode::kGlobal) {
    return schedule::SlotLedger(links, config.sinr);
  }
  return schedule::SlotLedger(links, config.sinr,
                              power_for_mode(links, config));
}

LinkScheduleResult schedule_links(const geom::LinkView& links,
                                  const PlannerConfig& config,
                                  StageTimings* timings) {
  config.validate();
  LinkScheduleResult result;
  result.spec = spec_for_mode(config);
  result.power = power_for_mode(links, config);

  // One stage clock: each StageTimings field is billed from the stage span
  // named after it.
  StageTimings local;
  StageTimings& t = timings ? *timings : local;
  obs::StageSpan stage("conflict");
  const conflict::Graph graph =
      conflict::ConflictIndex::of(links).build_graph(links, result.spec);
  t.conflict_ms = stage.next("coloring");

  const auto order = config.order == ColoringOrder::kDecreasingLength
                         ? links.by_decreasing_length()
                         : links.by_increasing_length();
  result.schedule =
      schedule::from_coloring(coloring::greedy_color(graph, order));
  result.colors_before_repair = result.schedule.length();
  t.coloring_ms = stage.next("repair");

  auto ledger = ledger_for_mode(links, config);
  auto repaired = schedule::repair_schedule(links, result.schedule, ledger);
  result.schedule = std::move(repaired.schedule);
  result.certificates = std::move(repaired.certificates);
  result.slots_split = repaired.slots_split;
  t.repair_ms = stage.next("verify");

  // kGlobal: every slot is checked exactly under the powers repair
  // certified it with; only a slot they fail goes to the cold solve.
  const auto oracle = oracle_for_mode(links, config);
  result.verification =
      config.power_mode == PowerMode::kGlobal
          ? schedule::verify_certified(result.schedule, result.certificates,
                                       ledger, oracle)
          : schedule::verify_schedule(links, result.schedule, oracle);
  t.verify_ms = stage.close();
  return result;
}

PlanResult plan_aggregation(const geom::Pointset& points,
                            const PlannerConfig& config,
                            StageTimings* timings) {
  config.validate();
  if (points.size() < 2) {
    throw std::invalid_argument("plan_aggregation: need >= 2 points");
  }
  PlanResult result;
  StageTimings local;
  StageTimings& t = timings ? *timings : local;
  obs::StageSpan stage("tree");
  switch (config.tree) {
    case TreeKind::kMst:
      result.tree = mst::mst_tree(points, config.sink);
      break;
    case TreeKind::kPairing:
      result.tree = mst::pairing_tree(points, config.sink).tree;
      break;
  }
  t.tree_ms = stage.close();
  result.scheduling = schedule_links(result.tree.links, config, &t);

  if (config.power_mode == PowerMode::kGlobal) {
    stage.next("power");
    // Ship the per-slot power vectors repair certified (the output of the
    // power-control algorithm) and stitch a per-link assignment from each
    // link's home slot for reporting.
    const std::size_t n = result.tree.links.size();
    std::vector<double> stitched(n, 0.0);
    result.slot_powers.reserve(result.scheduling.certificates.size());
    for (const auto& cert : result.scheduling.certificates) {
      std::vector<double> lp(n, 0.0);
      for (std::size_t a = 0; a < cert.members.size(); ++a) {
        lp[cert.members[a]] = cert.log2_power[a];
        stitched[cert.members[a]] = cert.log2_power[a];
      }
      result.slot_powers.emplace_back(std::move(lp), "power-control");
    }
    result.scheduling.power =
        sinr::PowerAssignment(std::move(stitched), "global(stitched)");
    t.power_ms = stage.close();
  }
  return result;
}

}  // namespace wagg::core
