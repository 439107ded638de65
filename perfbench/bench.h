// Shared pieces of the wagg end-to-end benchmark: run options, raw-sample
// statistics, the benchmark's own span log, the host reference loop and the
// result record every workload fills in.
//
// The benchmark only calls libwagg's public API. Tracing lives here, around
// those calls: a span wraps each public call and carries the stage fields
// the call returns (EpochReport, EpochTimings, EpochOutcome,
// ConflictIndexStats, core::StageTimings). Nothing inside the library is
// instrumented for it.

#ifndef WAGG_PERFBENCH_BENCH_H
#define WAGG_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed window, summed over timed operations
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string out_dir;    ///< where the traced run writes its span file
};

// ------------------------------------------------------------ statistics

/// Percentile of raw samples (util::percentile_or), p in [0, 100]; 0 when
/// there are no samples.
[[nodiscard]] double percentile(const std::vector<double>& samples, double p);
[[nodiscard]] double median(const std::vector<double>& samples);
[[nodiscard]] double mean(const std::vector<double>& samples);
/// Samples strictly above the p-th percentile (the tail's support).
[[nodiscard]] std::size_t count_beyond(const std::vector<double>& samples,
                                       double p);

// ---------------------------------------------------------------- tracing

/// One span recorded by the benchmark around a public library call.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< the operation the span belongs to
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<std::pair<const char*, double>> fields;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
  [[nodiscard]] double field(const char* key) const;
};

/// In-memory span store, written out once the run is over. Safe to append
/// from several threads (serve-small records on executor workers).
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  [[nodiscard]] std::uint64_t ns(Clock::time_point t) const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count());
  }
  /// Appends a finished span; returns its id.
  std::uint64_t add(Span span);
  [[nodiscard]] std::uint64_t next_op() {
    std::lock_guard lock(mutex_);
    return ++last_op_;
  }
  /// Spans in insertion order; call only after every recorder has stopped.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON (load in Perfetto / chrome://tracing).
  void write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
  std::uint64_t last_op_ = 0;
};

// ------------------------------------------------------------------ host

/// Milliseconds one fixed compute loop takes on this host (median of
/// several repeats). It does not call libwagg, so it moves only with the
/// host's speed; a reviewer compares it across runs to tell host drift from
/// a program change.
[[nodiscard]] double host_ref_ms();

// ---------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Per-layer rows only: whether the layer did any work on this workload
  /// (a layer with no work prints "no work", not a 0).
  bool worked = true;
};

/// The deterministic outputs of a seed: identical on every run with the
/// same seed, whatever the host speed.
struct Fingerprint {
  double slots_mean = 0.0;
  double slot_drift = 0.0;
  std::uint64_t dirty_links = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t full_replans = 0;
  std::uint64_t trace_digest = 0;  ///< hash of the generated inputs
  std::uint64_t plan_digest = 0;   ///< hash of the final plans
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False on any correctness failure (including a round that diverged
  /// from the first on the same inputs).
  bool correct = true;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  Fingerprint fingerprint;
  /// Human-readable lines printed before the result (definitions, sample
  /// counts, the per-layer table).
  std::vector<std::string> notes;
  std::vector<std::string> errors;

  void fail(std::string what) {
    ++failed;
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

/// Formats a value with all its digits (shortest round-trip form).
[[nodiscard]] std::string format_number(double value);

/// Mixes one 64-bit word into an order-sensitive hash.
inline void hash_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

// -------------------------------------------------------------- workloads

[[nodiscard]] bool is_churn_workload(const std::string& name);
RunResult run_churn(const RunOptions& options);
RunResult run_serve(const RunOptions& options);

}  // namespace perfbench

#endif  // WAGG_PERFBENCH_BENCH_H
