// Entry point of the wagg end-to-end benchmark.
//
//   wagg_perfbench --workload <churn-global|churn-noisy|serve-small>
//                  --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the same
// workload with the benchmark's spans on and prints the per-layer table.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output checked out.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "util/stats.h"

namespace perfbench {

// ------------------------------------------------------------ statistics

double percentile(const std::vector<double>& samples, double p) {
  return wagg::util::percentile_or(samples, p, 0.0);
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::size_t count_beyond(const std::vector<double>& samples, double p) {
  const double cut = percentile(samples, p);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double v) { return v > cut; }));
}

// ---------------------------------------------------------------- tracing

double Span::field(const char* key) const {
  for (const auto& [field_name, value] : fields) {
    if (std::string_view(field_name) == key) return value;
  }
  return 0.0;
}

std::uint64_t SpanLog::add(Span span) {
  std::lock_guard lock(mutex_);
  span.id = ++last_id_;
  spans_.push_back(std::move(span));
  return last_id_;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& span : spans_) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":" << (span.parent == 0 ? 1 : 2)
        << ",\"ts\":" << format_number(static_cast<double>(span.start_ns) / 1e3)
        << ",\"dur\":"
        << format_number(static_cast<double>(span.end_ns - span.start_ns) /
                         1e3)
        << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op;
    for (const auto& [key, value] : span.fields) {
      out << ",\"" << key << "\":" << format_number(value);
    }
    out << "}}";
  }
  out << "]}\n";
}

// ------------------------------------------------------------------ host

double host_ref_ms() {
  // A fixed integer + floating-point mix over a 64 KiB table: no libwagg,
  // no allocation inside the timed loop, the same work on every host.
  std::vector<std::uint64_t> table(8192);
  std::vector<double> times;
  for (int rep = 0; rep < 7; ++rep) {
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    double acc = 0.0;
    const auto start = Clock::now();
    for (std::uint32_t i = 0; i < 3'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      auto& cell = table[x & (table.size() - 1)];
      cell += x;
      acc += static_cast<double>(cell >> 40) * 1e-9;
    }
    times.push_back(ms_between(start, Clock::now()));
    if (acc < 0.0) std::cerr << acc;  // keeps the loop observable
  }
  return median(times);
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

// The metric sets BENCHMARK.json declares; every workload reports all of
// them (a layer that does no work on a workload says so in the table).
const std::vector<std::string> kEndToEnd = {
    "epochs_per_s", "epoch_ms_p50", "epoch_ms_tail", "slots_mean",
    "slot_drift",   "setup_s",      "slo_met_frac"};
const std::vector<std::string> kPerLayer = {
    "schedule.repair_ms",         "schedule.oracle_calls",
    "schedule.reused_slot_ratio", "schedule.repair_vs_scratch",
    "sinr.power_ms",              "sinr.power_cache_hit_ratio",
    "dynamic.dirty_links",        "dynamic.full_replan_ratio",
    "core.scratch_plan_ms",       "coloring.recolor_ms",
    "mst.update_ms",              "geom.orient_ms",
    "conflict.maintain_ms",       "conflict.query_ms",
    "conflict.row_cache_hit_ratio", "runtime.queue_ms_p50",
    "runtime.queue_ms_tail",      "runtime.exec_ms_p50",
    "runtime.mailbox_rejects",    "runtime.gen_late_ms",
    "runtime.latency_ms_p50",     "runtime.latency_ms_tail",
    "host.ref_ms",                "trace.overhead_frac",
    "trace.op_ms",                "trace.unattributed_ms"};

void usage() {
  std::cerr << "usage: wagg_perfbench --workload "
               "<churn-global|churn-noisy|serve-small> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
}

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0.0 && options.seconds <= 60.0)) {
    throw std::invalid_argument("--seconds must lie in (0, 60]");
  }
  return options;
}

void print_json(const RunResult& result, bool trace) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const auto& metrics = trace ? result.per_layer : result.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    out << (i > 0 ? ", " : "") << "\"" << m.name
        << "\": {\"value\": " << format_number(m.value) << ", \"unit\": \""
        << m.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// The per-layer table of a traced run. Time rows also show their share of
/// the mean traced operation (trace.op_ms); layers that did no work on the
/// workload say so instead of showing a 0.
std::vector<std::string> layer_table(const std::vector<Metric>& rows) {
  double op_ms = 0.0;
  for (const auto& m : rows) {
    if (m.name == "trace.op_ms") op_ms = m.value;
  }
  std::vector<std::string> lines = {"per-layer table (traced run):"};
  for (const auto& m : rows) {
    std::ostringstream line;
    line << "  " << m.name
         << std::string(32 - std::min<std::size_t>(31, m.name.size()), ' ');
    if (!m.worked) {
      line << "no work on this workload";
    } else {
      line << format_number(m.value) << " " << m.unit;
      // Only time spent inside the operation has a share of it.
      const bool in_op = m.unit == "ms" && !m.name.starts_with("runtime.") &&
                         !m.name.starts_with("host.") &&
                         !m.name.starts_with("core.") &&
                         m.name != "trace.op_ms";
      if (in_op && op_ms > 0.0) {
        line << "  ("
             << format_number(std::round(1000.0 * m.value / op_ms) / 10.0)
             << "% of op)";
      }
    }
    lines.push_back(line.str());
  }
  return lines;
}

/// Checks that the workload reported exactly the declared metric names.
void check_names(const std::vector<std::string>& declared,
                 const std::vector<std::string>& reported,
                 const char* which) {
  const std::set<std::string> want(declared.begin(), declared.end());
  const std::set<std::string> got(reported.begin(), reported.end());
  if (want != got || reported.size() != declared.size()) {
    throw std::logic_error(std::string("workload reported the wrong ") +
                           which + " metric set");
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "wagg_perfbench: " << e.what() << "\n";
    usage();
    return 2;
  }
  try {
    const double ref_before = host_ref_ms();
    RunResult result;
    if (is_churn_workload(options.workload)) {
      result = run_churn(options);
    } else if (options.workload == "serve-small") {
      result = run_serve(options);
    } else {
      std::cerr << "wagg_perfbench: unknown workload " << options.workload
                << "\n";
      usage();
      return 2;
    }
    const double ref_ms = median({ref_before, host_ref_ms()});
    if (options.trace) {
      result.per_layer.push_back({"host.ref_ms", ref_ms, "ms", true});
    }

    std::vector<std::string> names;
    for (const auto& m : result.end_to_end) names.push_back(m.name);
    check_names(kEndToEnd, names, "end-to-end");
    if (options.trace) {
      names.clear();
      for (const auto& m : result.per_layer) names.push_back(m.name);
      check_names(kPerLayer, names, "per-layer");
    }

    std::cout << "workload " << options.workload << " seed " << options.seed
              << " seconds " << format_number(options.seconds) << " trace "
              << (options.trace ? 1 : 0) << "\n";
    for (const auto& line : result.notes) std::cout << line << "\n";
    if (options.trace) {
      for (const auto& line : layer_table(result.per_layer)) {
        std::cout << line << "\n";
      }
    }
    std::cout << "host.ref_ms " << format_number(ref_ms)
              << " ms (fixed compute loop, no libwagg; host-speed "
                 "diagnostic)\n";
    const auto& f = result.fingerprint;
    std::cout << "fingerprint slots_mean=" << format_number(f.slots_mean)
              << " slot_drift=" << format_number(f.slot_drift)
              << " dirty_links=" << f.dirty_links
              << " oracle_calls=" << f.oracle_calls
              << " full_replans=" << f.full_replans
              << " trace_digest=" << f.trace_digest
              << " plan_digest=" << f.plan_digest << "\n";
    for (const auto& error : result.errors) {
      std::cout << "FAILED: " << error << "\n";
    }
    print_json(result, options.trace);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "wagg_perfbench: " << e.what() << "\n";
    return 1;
  }
}
