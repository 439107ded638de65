// E2 — Theorem 2 / Lemma 1: chi(G_1(MST)) = O(1). The Lemma 1 statistic
// max_i I(i, T_i^+), the first-fit refinement class count, and the greedy
// chromatic number of G_1 must all stay flat as n grows.

#include "bench_common.h"

#include "coloring/coloring.h"
#include "coloring/refinement.h"
#include "conflict/conflict_index.h"
#include "mst/tree.h"
#include "sinr/interference.h"

namespace wagg {
namespace {

void print_table() {
  bench::print_header(
      "E2: Theorem 2 — chi(G_1(MST)) = O(1)",
      "Paper: the unit conflict graph of any planar MST has constant\n"
      "chromatic number, via refinement driven by Lemma 1's I(i,T_i^+)=O(1).\n"
      "All three columns must be flat in n (constants differ per family).");
  util::Table t({"family", "n", "lemma1 max I", "refine classes",
                 "greedy chi(G_1)", "chi flat?"});
  for (const std::string family : {"uniform", "cluster", "grid", "expchain"}) {
    int first_chi = -1, last_chi = -1;
    for (std::size_t n : {256u, 1024u, 4096u}) {
      const auto pts = workload::make_family(family, n, 42);
      const auto tree = mst::mst_tree(pts, 0);
      const double lemma1 = sinr::lemma1_statistic(tree.links, 3.0);
      const auto refinement = coloring::firstfit_refinement(tree.links, 3.0);
      const auto g1 = conflict::ConflictIndex::of(tree.links)
                          .build_graph(tree.links,
                                       conflict::ConflictSpec::constant(1.0));
      const auto colors =
          coloring::greedy_color(g1, tree.links.by_decreasing_length());
      if (first_chi < 0) first_chi = colors.num_colors;
      last_chi = colors.num_colors;
      t.row()
          .cell(family)
          .cell(pts.size())
          .cell(lemma1, 2)
          .cell(refinement.num_classes)
          .cell(colors.num_colors)
          .cell(n == 4096 ? (std::abs(last_chi - first_chi) <= 2 ? "yes" : "NO")
                          : "");
    }
  }
  t.print(std::cout);
}

void BM_Refinement(benchmark::State& state) {
  const auto pts =
      workload::make_family("uniform", static_cast<std::size_t>(state.range(0)), 1);
  const auto tree = mst::mst_tree(pts, 0);
  for (auto _ : state) {
    const auto r = coloring::firstfit_refinement(tree.links, 3.0);
    benchmark::DoNotOptimize(r.num_classes);
  }
}
BENCHMARK(BM_Refinement)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_G1Coloring(benchmark::State& state) {
  const auto pts =
      workload::make_family("uniform", static_cast<std::size_t>(state.range(0)), 1);
  const auto tree = mst::mst_tree(pts, 0);
  const auto g1 = conflict::ConflictIndex::of(tree.links)
                      .build_graph(tree.links,
                                   conflict::ConflictSpec::constant(1.0));
  const auto order = tree.links.by_decreasing_length();
  for (auto _ : state) {
    const auto c = coloring::greedy_color(g1, order);
    benchmark::DoNotOptimize(c.num_colors);
  }
}
BENCHMARK(BM_G1Coloring)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wagg

int main(int argc, char** argv) {
  wagg::print_table();
  std::cout << "\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
