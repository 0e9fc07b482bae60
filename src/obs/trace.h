// Scoped trace spans with Chrome Trace Event Format export (DESIGN.md §10).
//
//   void PersonalizationEngine::score(...) {
//     ODLP_TRACE_SCOPE("engine.score");
//     ...
//   }
//
// Each span records a begin and end timestamp (steady-clock microseconds
// since process start) plus the executing thread's id into a per-thread
// ring buffer; flush_trace() merges every thread's events into one Chrome
// Trace JSON ("B"/"E" duration events) loadable in chrome://tracing or
// https://ui.perfetto.dev.
//
// Cost model (the §10 overhead budget):
//   * tracing OFF — one relaxed atomic load + a predictable branch per
//     span; no allocation, no clock read, no thread-local buffer creation.
//   * tracing ON  — two clock reads and two short critical sections on an
//     uncontended per-thread mutex (contended only while a flush is
//     copying that thread's buffer).
//
// Enabling:
//   * environment — ODLP_TRACE=path.json (checked once at startup) turns
//     tracing on for the whole process and registers an atexit flush, so
//     any binary in the repo produces a trace without code changes;
//   * programmatic — enable_tracing(path) / disable_tracing() /
//     flush_trace() for harnesses that scope tracing to one phase.
//
// Span names must be string literals (or otherwise outlive the flush): the
// ring buffer stores the pointer, not a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace odlp::obs {

namespace trace_detail {
// Which span consumers are live, as a bitmask read once per TraceScope:
// bit 0 — the trace ring buffers (enable_tracing), bit 1 — the sampling
// profiler's per-thread name stacks (obs/profiler.h). One relaxed load
// covers both, so adding the profiler kept the spans-off cost at a single
// load + branch.
inline constexpr std::uint8_t kModeTrace = 1u << 0;
inline constexpr std::uint8_t kModeProfile = 1u << 1;
extern std::atomic<std::uint8_t> g_mode;

// Records a begin event for `name` into every consumer in `mode`; returns
// the mask of consumers that actually recorded it (a full ring or a
// max-depth profiler stack drops out, keeping begin/end balanced per
// consumer). 0 when nothing recorded.
std::uint8_t record_begin(const char* name, std::uint8_t mode);
void record_end(std::uint8_t mask);

// Profiler hooks (obs/profiler.cpp). set_profiling toggles kModeProfile;
// sample_stacks invokes fn(tid, names, depth) once per thread that has an
// open span stack, from the sampler thread.
void set_profiling(bool on);
void sample_stacks(
    const std::function<void(int tid, const char* const* names,
                             std::size_t depth)>& fn);
}  // namespace trace_detail

inline bool tracing_enabled() {
  return (trace_detail::g_mode.load(std::memory_order_relaxed) &
          trace_detail::kModeTrace) != 0;
}

// Starts a new trace that flush_trace() will write to `path`. Clears any
// previously recorded events and registers an atexit flush (once), which
// writes only if tracing is still enabled at exit.
void enable_tracing(const std::string& path);

// Stops recording. Already-recorded events are kept for an explicit
// flush_trace(); the atexit flush no longer writes them.
void disable_tracing();

// Writes everything recorded since enable_tracing() to the configured path
// as Chrome Trace JSON (events are retained, so repeated flushes rewrite
// the file with a growing prefix). Returns false if tracing was never
// enabled or the file cannot be written.
bool flush_trace();

// Path configured by the last enable_tracing() ("" when never enabled).
std::string trace_path();

// Diagnostics (used by tests): number of per-thread ring buffers created,
// events currently recorded across all of them, and events dropped because
// a ring filled up.
std::size_t trace_buffer_count();
std::size_t trace_event_count();
std::uint64_t trace_dropped_count();

// RAII span. Prefer the ODLP_TRACE_SCOPE macro.
class TraceScope {
 public:
  explicit TraceScope(const char* name) {
    const std::uint8_t mode =
        trace_detail::g_mode.load(std::memory_order_relaxed);
    if (mode) mask_ = trace_detail::record_begin(name, mode);
  }
  ~TraceScope() {
    if (mask_) trace_detail::record_end(mask_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::uint8_t mask_ = 0;
};

}  // namespace odlp::obs

#define ODLP_OBS_CONCAT2(a, b) a##b
#define ODLP_OBS_CONCAT(a, b) ODLP_OBS_CONCAT2(a, b)
// `name` must be a string literal (stored by pointer).
#define ODLP_TRACE_SCOPE(name) \
  ::odlp::obs::TraceScope ODLP_OBS_CONCAT(odlp_trace_scope_, __LINE__)(name)
