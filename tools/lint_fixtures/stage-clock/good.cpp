// wagg-lint-fixture: stage-clock expect=0 as=src/core/good.cpp
// Negative cases: stage fields billed from obs::StageSpan, a comment or a
// string naming Clock::now() / ms_since(...), a lookalike identifier, and a
// justified allow.
#include "obs/trace.h"

namespace wagg::core {

// Comments may say Clock::now() and ms_since(start) freely.
inline const char* kDoc = "ms_since( stays out of stage-clocked files";

double my_ms_since_epoch(int epoch) { return epoch * 1.0; }

void timed_stages(StageTimings& t) {
  obs::StageSpan stage("conflict");
  build_graph();
  t.conflict_ms = stage.next("coloring");
  color();
  t.coloring_ms = stage.close();
  (void)my_ms_since_epoch(3);
}

double deadline_probe() {
  // wagg-lint: allow(stage-clock) a deadline, not a stage timing
  return static_cast<double>(util::Clock::now().time_since_epoch().count());
}

}  // namespace wagg::core
