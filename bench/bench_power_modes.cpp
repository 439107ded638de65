// E9 — the headline comparison: "power control matters". Uniform power can
// be forced to Theta(n) slots while global power control stays near
// constant; oblivious power sits in between. Also includes the pairing-tree
// level-schedule baseline (the prior art's Theta(1/log n) rate).

#include "bench_common.h"

#include "core/baseline.h"
#include "mst/tree.h"
#include "schedule/packing.h"

namespace wagg {
namespace {

void print_table() {
  bench::print_header(
      "E9: slots by power mode and tree (rate = 1/slots)",
      "MST + global power is the paper's protocol. 'pairing/level' is the\n"
      "[11]-style baseline. The exponential chain is the nightmare instance\n"
      "for uniform power (Theta(n) slots, Moscibroda-Wattenhofer).");
  util::Table t({"family", "n", "uniform", "linear", "P_1/2", "global",
                 "pairing/level", "FFD global"});
  struct Case {
    const char* family;
    std::size_t n;
  };
  const Case cases[] = {
      {"uniform", 512},  {"uniform", 2048}, {"cluster", 512},
      {"grid", 1024},    {"expchain", 64},  {"expchain", 128},
      {"unitchain", 256},
  };
  for (const auto& c : cases) {
    const auto pts = workload::make_family(c.family, c.n, 5);
    auto slots_for = [&](core::PowerMode mode) {
      auto cfg = workload::mode_config(mode);
      return core::plan_aggregation(pts, cfg).schedule().length();
    };
    const auto pt = mst::pairing_tree(pts, 0);
    const auto level =
        core::level_schedule(pt, workload::mode_config(core::PowerMode::kGlobal));
    // Conflict-graph-free baseline: first-fit-decreasing over the
    // power-control slot ledger on the MST links. Every ledger miss
    // re-solves the slot spectral radius, so this is quadratic-ish in slot
    // size — capped to the moderate instances (that is the point of the
    // conflict graphs: local decisions instead of global re-solves).
    std::string ffd_slots = "-";
    if (pts.size() <= 640) {
      const auto tree = mst::mst_tree(pts, 0);
      auto ledger = core::ledger_for_mode(
          tree.links, workload::mode_config(core::PowerMode::kGlobal));
      const auto ffd = schedule::ffd_schedule(tree.links, ledger);
      ffd_slots = std::to_string(ffd.length());
    }
    t.row()
        .cell(c.family)
        .cell(pts.size())
        .cell(slots_for(core::PowerMode::kUniform))
        .cell(slots_for(core::PowerMode::kLinear))
        .cell(slots_for(core::PowerMode::kOblivious))
        .cell(slots_for(core::PowerMode::kGlobal))
        .cell(level.schedule.length())
        .cell(ffd_slots);
  }
  t.print(std::cout);
}

void BM_ModeComparison(benchmark::State& state) {
  const auto pts = workload::make_family("uniform", 512, 1);
  const auto mode = static_cast<core::PowerMode>(state.range(0));
  const auto cfg = workload::mode_config(mode);
  for (auto _ : state) {
    const auto plan = core::plan_aggregation(pts, cfg);
    benchmark::DoNotOptimize(plan.schedule().length());
  }
}
BENCHMARK(BM_ModeComparison)
    ->Arg(static_cast<int>(core::PowerMode::kUniform))
    ->Arg(static_cast<int>(core::PowerMode::kOblivious))
    ->Arg(static_cast<int>(core::PowerMode::kGlobal))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wagg

int main(int argc, char** argv) {
  wagg::print_table();
  std::cout << "\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
