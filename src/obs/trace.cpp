#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/atomic_file.h"
#include "util/log.h"

namespace odlp::obs {

namespace trace_detail {
std::atomic<std::uint8_t> g_mode{0};
}  // namespace trace_detail

namespace {

using Clock = std::chrono::steady_clock;

// One recorded event: a span begin (name != nullptr) or end (name ==
// nullptr). Per-thread ring order is chronological, so begins and ends are
// properly nested within a buffer by construction.
struct Event {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;
};

constexpr std::size_t kRingCapacity = 1 << 15;  // 32768 events per thread
// Deepest span nesting the profiler samples; deeper frames are not pushed
// (the begin/end pairing still balances via the returned mask).
constexpr std::size_t kMaxStackDepth = 64;

struct ThreadBuffer {
  std::mutex mutex;
  std::unique_ptr<Event[]> events{new Event[kRingCapacity]};
  std::size_t count = 0;
  std::uint64_t dropped = 0;
  int tid = 0;
  // Profiler name stack, written by the owning thread and read by the
  // sampler thread without the mutex: push stores the name (relaxed) then
  // publishes the new depth with release; the sampler acquires depth and
  // reads names below it. A torn read can only see a stale-but-valid prefix.
  std::atomic<const char*> stack[kMaxStackDepth] = {};
  std::atomic<std::uint32_t> depth{0};
};

// Ring-full drops are also surfaced as a registry counter so fleet-level
// dashboards see them without calling trace_dropped_count().
Counter& dropped_counter() {
  static Counter& c = registry().counter("obs.trace.dropped.total");
  return c;
}

struct State {
  std::mutex mutex;
  // Owned; intentionally never freed before process exit so a flush can
  // still read buffers of threads that have already terminated.
  std::vector<ThreadBuffer*> buffers;
  std::string path;
  bool atexit_registered = false;
  int next_tid = 1;
  Clock::time_point t0 = Clock::now();
};

State& state() {
  // Intentionally leaked: the atexit flush and buffers of already-exited
  // threads must stay readable until the very end of the process, past the
  // point where function-local statics are destroyed. Keeping the State on
  // the heap behind a static pointer also keeps every ThreadBuffer reachable
  // for leak checkers.
  static State* instance = new State;
  return *instance;
}

thread_local ThreadBuffer* tl_buffer = nullptr;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           state().t0)
          .count());
}

ThreadBuffer& this_thread_buffer() {
  if (!tl_buffer) {
    State& st = state();
    std::lock_guard<std::mutex> lk(st.mutex);
    tl_buffer = new ThreadBuffer;
    tl_buffer->tid = st.next_tid++;
    st.buffers.push_back(tl_buffer);
  }
  return *tl_buffer;
}

void append_json_string(std::string& out, const char* s) {
  out += '"';
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_event(std::string& out, bool& first, const char* name, char ph,
                  int tid, std::uint64_t ts_ns) {
  if (!first) out += ",\n";
  first = false;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", double(ts_ns) * 1e-3);
  out += "{\"name\":";
  append_json_string(out, name);
  out += ",\"cat\":\"odlp\",\"ph\":\"";
  out += ph;
  out += "\",\"pid\":1,\"tid\":" + std::to_string(tid) + ",\"ts\":" + buf + "}";
}

// Registered via atexit by the first enable_tracing(); ODLP_TRACE users get
// their trace without any explicit flush call. Writes only while tracing is
// still enabled: a caller that disabled it has taken the trace (or deleted
// the file) and expects no later write.
void flush_at_exit() {
  if (trace_detail::g_mode.load(std::memory_order_relaxed) &
      trace_detail::kModeTrace) {
    flush_trace();
  }
}

// ODLP_TRACE=path.json enables tracing for the whole process at startup.
// Also anchors the profiler TU: odlp is a static library, so a binary that
// never names a Profiler symbol would drop profiler.cpp — and with it the
// ODLP_PROFILE startup hook. Spans are instrumented everywhere, so this TU
// is always linked; referencing profile_path() pulls the profiler in too.
const bool g_env_init = [] {
  (void)profile_path();
  if (const char* path = std::getenv("ODLP_TRACE"); path && *path) {
    enable_tracing(path);
  }
  return true;
}();

}  // namespace

namespace trace_detail {

std::uint8_t record_begin(const char* name, std::uint8_t mode) {
  ThreadBuffer& buf = this_thread_buffer();
  std::uint8_t mask = 0;
  if (mode & kModeTrace) {
    std::lock_guard<std::mutex> lk(buf.mutex);
    if (buf.count < kRingCapacity) {
      buf.events[buf.count++] = Event{name, now_ns()};
      mask |= kModeTrace;
    } else {
      ++buf.dropped;
      dropped_counter().inc();
    }
  }
  if (mode & kModeProfile) {
    const std::uint32_t d = buf.depth.load(std::memory_order_relaxed);
    if (d < kMaxStackDepth) {
      buf.stack[d].store(name, std::memory_order_relaxed);
      buf.depth.store(d + 1, std::memory_order_release);
      mask |= kModeProfile;
    }
  }
  return mask;
}

void record_end(std::uint8_t mask) {
  // Only called when the matching record_begin recorded something, so
  // tl_buffer exists. A full ring drops the end; flush balances it
  // synthetically.
  ThreadBuffer& buf = *tl_buffer;
  if (mask & kModeTrace) {
    std::lock_guard<std::mutex> lk(buf.mutex);
    if (buf.count < kRingCapacity) {
      buf.events[buf.count++] = Event{nullptr, now_ns()};
    } else {
      ++buf.dropped;
      dropped_counter().inc();
    }
  }
  if (mask & kModeProfile) {
    const std::uint32_t d = buf.depth.load(std::memory_order_relaxed);
    if (d > 0) buf.depth.store(d - 1, std::memory_order_release);
  }
}

void set_profiling(bool on) {
  if (on) {
    g_mode.fetch_or(kModeProfile, std::memory_order_relaxed);
  } else {
    g_mode.fetch_and(static_cast<std::uint8_t>(~kModeProfile),
                     std::memory_order_relaxed);
  }
}

void sample_stacks(
    const std::function<void(int tid, const char* const* names,
                             std::size_t depth)>& fn) {
  State& st = state();
  std::lock_guard<std::mutex> lk(st.mutex);
  const char* names[kMaxStackDepth];
  for (ThreadBuffer* buf : st.buffers) {
    const std::uint32_t d = buf->depth.load(std::memory_order_acquire);
    if (d == 0) continue;
    const std::uint32_t n = std::min<std::uint32_t>(d, kMaxStackDepth);
    for (std::uint32_t i = 0; i < n; ++i) {
      names[i] = buf->stack[i].load(std::memory_order_relaxed);
    }
    fn(buf->tid, names, n);
  }
}

}  // namespace trace_detail

void enable_tracing(const std::string& path) {
  State& st = state();
  {
    std::lock_guard<std::mutex> lk(st.mutex);
    st.path = path;
    for (ThreadBuffer* buf : st.buffers) {
      std::lock_guard<std::mutex> blk(buf->mutex);
      buf->count = 0;
      buf->dropped = 0;
    }
    if (!st.atexit_registered) {
      st.atexit_registered = true;
      std::atexit(flush_at_exit);
    }
  }
  trace_detail::g_mode.fetch_or(trace_detail::kModeTrace,
                                std::memory_order_relaxed);
}

void disable_tracing() {
  trace_detail::g_mode.fetch_and(
      static_cast<std::uint8_t>(~trace_detail::kModeTrace),
      std::memory_order_relaxed);
}

std::string trace_path() {
  State& st = state();
  std::lock_guard<std::mutex> lk(st.mutex);
  return st.path;
}

std::size_t trace_buffer_count() {
  State& st = state();
  std::lock_guard<std::mutex> lk(st.mutex);
  return st.buffers.size();
}

std::size_t trace_event_count() {
  State& st = state();
  std::lock_guard<std::mutex> lk(st.mutex);
  std::size_t total = 0;
  for (ThreadBuffer* buf : st.buffers) {
    std::lock_guard<std::mutex> blk(buf->mutex);
    total += buf->count;
  }
  return total;
}

std::uint64_t trace_dropped_count() {
  State& st = state();
  std::lock_guard<std::mutex> lk(st.mutex);
  std::uint64_t total = 0;
  for (ThreadBuffer* buf : st.buffers) {
    std::lock_guard<std::mutex> blk(buf->mutex);
    total += buf->dropped;
  }
  return total;
}

namespace {

// Snapshots every thread buffer and replays each with a name stack so every
// "E" names its matching "B", orphan ends (begin cleared by a mid-span
// enable_tracing) are skipped, and spans still open are closed
// synthetically at the last timestamp — the emitted stream always
// balances. Per-thread order is chronological; threads are concatenated in
// registration (tid) order. Returns the Chrome Trace JSON and sets `count`
// to the events written and `dropped` to the events the rings lost.
std::string balanced_chrome_json(std::size_t& count, std::uint64_t& dropped) {
  State& st = state();
  std::vector<std::pair<int, std::vector<Event>>> per_thread;
  std::uint64_t last_ts = 0;
  dropped = 0;
  {
    std::lock_guard<std::mutex> lk(st.mutex);
    per_thread.reserve(st.buffers.size());
    for (ThreadBuffer* buf : st.buffers) {
      std::lock_guard<std::mutex> blk(buf->mutex);
      std::vector<Event> events(buf->events.get(),
                                buf->events.get() + buf->count);
      for (const Event& e : events) last_ts = std::max(last_ts, e.ts_ns);
      dropped += buf->dropped;
      per_thread.emplace_back(buf->tid, std::move(events));
    }
  }

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  count = 0;
  const auto emit = [&](const char* name, char phase, int tid,
                        std::uint64_t ts_ns) {
    append_event(out, first, name, phase, tid, ts_ns);
    ++count;
  };
  for (const auto& [tid, events] : per_thread) {
    std::vector<const char*> open;
    for (const Event& e : events) {
      if (e.name) {
        open.push_back(e.name);
        emit(e.name, 'B', tid, e.ts_ns);
      } else if (!open.empty()) {
        emit(open.back(), 'E', tid, e.ts_ns);
        open.pop_back();
      }
    }
    while (!open.empty()) {
      emit(open.back(), 'E', tid, last_ts);
      open.pop_back();
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":\"" +
         std::to_string(dropped) + "\"}}\n";
  return out;
}

}  // namespace

bool flush_trace() {
  {
    State& st = state();
    std::lock_guard<std::mutex> lk(st.mutex);
    if (st.path.empty()) return false;
  }
  std::size_t count = 0;
  std::uint64_t dropped = 0;
  const std::string out = balanced_chrome_json(count, dropped);

  try {
    util::AtomicFileWriter writer(trace_path());
    writer.write(out.data(), out.size());
    writer.commit();
  } catch (const std::exception& e) {
    util::log_warn(std::string("trace: flush failed: ") + e.what());
    return false;
  }
  util::log_info("trace: flushed " + std::to_string(count) +
                 " events (" + std::to_string(dropped) + " dropped) to " +
                 trace_path());
  return true;
}

}  // namespace odlp::obs
