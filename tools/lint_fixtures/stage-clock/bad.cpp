// wagg-lint-fixture: stage-clock expect=3 as=src/dynamic/bad.cpp
// A private timer in a stage-clocked file bills an interval no span shows:
// every Clock::now( and ms_since( call is flagged, qualified or not.
#include "util/clock.h"

namespace wagg::dynamic {

double timed_stage(EpochTimings& timings) {
  const auto start = util::Clock::now();  // 1
  run_stage();
  timings.recolor_ms += util::ms_since(start);  // 2
  using util::ms_since;
  return ms_since (start);  // 3
}

}  // namespace wagg::dynamic
