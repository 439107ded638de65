#include "obs/trace.h"

#include <algorithm>
#include <sstream>

#include "obs/json.h"

namespace wagg::obs {

Tracer& Tracer::global() {
  static Tracer instance;
  return instance;
}

thread_local Tracer::ThreadBuffer* Tracer::bound_buffer_ = nullptr;
thread_local std::uint64_t Tracer::bound_generation_ = 0;

void Tracer::enable(std::size_t events_per_thread) {
  util::MutexLock lock(mutex_);
  buffers_.clear();
  capacity_ = std::max<std::size_t>(1, events_per_thread);
  generation_.fetch_add(1, std::memory_order_release);
  // The enabling thread is the one about to trace: give it its ring now,
  // not inside its first span.
  register_thread();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() {
  enabled_.store(false, std::memory_order_release);
}

void Tracer::clear() {
  // Rings stay registered and bound, so a quiescent thread's next span
  // records without allocating; only the write heads rewind.
  util::MutexLock lock(mutex_);
  for (const auto& buffer : buffers_) {
    buffer->head.store(0, std::memory_order_release);
  }
}

Tracer::ThreadBuffer* Tracer::register_thread() {
  buffers_.push_back(std::make_unique<ThreadBuffer>(
      capacity_, static_cast<std::uint32_t>(buffers_.size())));
  bound_buffer_ = buffers_.back().get();
  bound_generation_ = generation_.load(std::memory_order_relaxed);
  return bound_buffer_;
}

Tracer::ThreadBuffer* Tracer::local_buffer() {
  // This thread's binding, revalidated against the tracer's generation so
  // enable() windows never leak stale buffer pointers across.
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (bound_buffer_ != nullptr && bound_generation_ == generation) {
    return bound_buffer_;
  }
  // Cold path: first span of this thread in this enable window. A
  // concurrent enable() between the generation read and the lock would
  // orphan this buffer into a dead window; register_thread() re-reads the
  // generation under the lock, keeping binding and registration consistent.
  util::MutexLock lock(mutex_);
  return register_thread();
}

// Carve-out (WAGG_NO_THREAD_SAFETY_ANALYSIS): the hot path writes the ring
// through a raw ThreadBuffer* cached thread-locally, outside mutex_ — by
// design. Safety comes from single-writer ownership (only the registering
// thread ever writes its ring; slot store before the release head bump) and
// from the generation check in local_buffer(), which keeps stale pointers
// from a previous enable() window from being dereferenced. Readers and
// clear() take mutex_ AND require writer quiescence (class comment).
void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns) WAGG_NO_THREAD_SAFETY_ANALYSIS {
  ThreadBuffer* buffer = local_buffer();
  const std::uint64_t head = buffer->head.load(std::memory_order_relaxed);
  buffer->ring[head % buffer->ring.size()] =
      TraceEvent{name, start_ns, end_ns};
  buffer->head.store(head + 1, std::memory_order_release);
}

std::uint64_t Tracer::recorded_events() const {
  util::MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->head.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t Tracer::dropped_events() const {
  util::MutexLock lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    const std::uint64_t written =
        buffer->head.load(std::memory_order_acquire);
    if (written > buffer->ring.size()) {
      dropped += written - buffer->ring.size();
    }
  }
  return dropped;
}

std::vector<CollectedSpan> Tracer::collect() const {
  util::MutexLock lock(mutex_);
  std::vector<CollectedSpan> spans;
  for (const auto& buffer : buffers_) {
    const std::uint64_t written =
        buffer->head.load(std::memory_order_acquire);
    const std::uint64_t kept =
        std::min<std::uint64_t>(written, buffer->ring.size());
    for (std::uint64_t k = written - kept; k < written; ++k) {
      const TraceEvent& event = buffer->ring[k % buffer->ring.size()];
      spans.push_back(CollectedSpan{event.name, event.start_ns, event.end_ns,
                                    buffer->tid});
    }
  }
  return spans;
}

std::string Tracer::chrome_trace_json() const {
  util::MutexLock lock(mutex_);
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  std::uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    const std::uint64_t written =
        buffer->head.load(std::memory_order_acquire);
    const std::uint64_t kept =
        std::min<std::uint64_t>(written, buffer->ring.size());
    if (written > buffer->ring.size()) {
      dropped += written - buffer->ring.size();
    }
    out << (first ? "\n" : ",\n") << "  {\"ph\": \"M\", \"pid\": 1, \"tid\": "
        << buffer->tid
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \"wagg-thread-"
        << buffer->tid << "\"}}";
    first = false;
    // Oldest surviving event first; ring order is span-completion order.
    for (std::uint64_t k = written - kept; k < written; ++k) {
      const TraceEvent& event = buffer->ring[k % buffer->ring.size()];
      const double ts_us = static_cast<double>(event.start_ns) / 1000.0;
      const double dur_us =
          static_cast<double>(event.end_ns - event.start_ns) / 1000.0;
      out << ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": " << buffer->tid
          << ", \"name\": \"" << json::escape(event.name)
          << "\", \"ts\": " << json::number(ts_us)
          << ", \"dur\": " << json::number(dur_us) << "}";
    }
  }
  out << (first ? "]" : "\n]") << ", \"otherData\": {\"dropped_events\": "
      << dropped << "}}\n";
  return out.str();
}

}  // namespace wagg::obs
