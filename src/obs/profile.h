#ifndef WAGG_OBS_PROFILE_H
#define WAGG_OBS_PROFILE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace wagg::obs {

/// One per-stage attribution row of a span profile.
struct ProfileRow {
  std::string name;
  std::size_t count = 0;      ///< span occurrences across the stream
  double inclusive_ms = 0.0;  ///< sum of span durations (subtree time)
  double exclusive_ms = 0.0;  ///< inclusive minus direct children (self time)
  /// Per-root attribution: exclusive self time divided by the number of
  /// root spans — "ms of this stage per epoch" when roots are epochs.
  double exclusive_per_root_ms = 0.0;
};

/// A span stream collapsed into per-stage inclusive/exclusive self-time
/// tables. The structural identity the profiler maintains by
/// construction: summed exclusive self time over ALL rows equals summed
/// root-span time exactly — every nanosecond of a root span is attributed
/// to exactly one stage, so the table reads as a complete breakdown of
/// where an epoch went. (The bench suite gates the stronger per-stage
/// identity: each stage's exclusive time equals the EpochTimings field it
/// bills.)
struct ProfileReport {
  /// Rows sorted hottest first (descending exclusive self time).
  std::vector<ProfileRow> rows;
  /// Spans with no enclosing span. When the stream is a churn session's
  /// epoch window these are exactly the `epoch` spans, and the per-root
  /// columns read as per-epoch attribution.
  std::size_t root_count = 0;
  double root_ms = 0.0;  ///< summed duration of root spans
  /// Spans that partially overlap their predecessor on the same thread
  /// (a torn ring slot or non-RAII instrumentation). Zero on any stream the
  /// built-in spans produce; non-zero means the exclusive identity cannot
  /// hold and the report should be distrusted.
  std::size_t malformed_spans = 0;

  /// Summed exclusive self time across rows. Equals root_ms up to floating
  /// rounding whenever malformed_spans == 0.
  [[nodiscard]] double exclusive_sum_ms() const;

  /// Human-readable hot-stage table: the top_k hottest rows (0 = all) plus
  /// a totals line asserting the exclusive-sum identity.
  [[nodiscard]] std::string table(std::size_t top_k = 0) const;
};

/// Collapses a flat span stream into the per-stage report. Spans are grouped
/// by tid; within a thread they must be well nested (RAII bracketing —
/// any two spans either contain one another or are disjoint), which is what
/// obs::Span/StageSpan produce by construction. Nesting is recovered from
/// the timestamps alone, so offline traces profile identically to live ones.
[[nodiscard]] ProfileReport profile_spans(std::vector<CollectedSpan> spans);

/// Profiles the global tracer's surviving buffer (Tracer::collect()).
[[nodiscard]] ProfileReport profile_global_tracer();

/// Profiles a Chrome trace-event JSON artifact — the offline path for any
/// file a `--trace` flag wrote. Complete ("X") events become spans; metadata
/// events are skipped. Throws std::invalid_argument on malformed JSON.
[[nodiscard]] ProfileReport profile_chrome_trace(std::string_view json_text);

}  // namespace wagg::obs

#endif  // WAGG_OBS_PROFILE_H
