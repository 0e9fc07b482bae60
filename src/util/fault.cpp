#include "util/fault.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "util/log.h"
#include "util/rng.h"

namespace odlp::util::fault {

namespace {

// Fast-path flag: hooks bail on one relaxed load when nothing is armed.
std::atomic<bool> g_armed{false};

// Everything below is guarded by g_mu while armed. The hooks take the lock
// only after the fast-path flag check.
std::mutex g_mu;

struct ArmedSchedule {
  std::vector<FaultEvent> events;
  std::vector<std::uint64_t> hits;  // matching observations per event
  std::vector<bool> fired;          // once-events that already fired
  double stall_scale = 1.0;
  ScheduleStats stats;
};
ArmedSchedule g_sched;

bool event_matches(const FaultEvent& e, const std::string& subject) {
  return e.match.empty() || subject.find(e.match) != std::string::npos;
}

// Walks the armed schedule for one observation of `subject` in the hook
// category accepting `kind_a`/`kind_b`; returns the kinds that fired plus
// their params. Must be called with g_mu held.
struct FiredAction {
  FaultKind kind;
  std::uint64_t param;
};
std::vector<FiredAction> observe_locked(const std::string& subject,
                                        FaultKind kind_a, FaultKind kind_b) {
  std::vector<FiredAction> fired;
  for (std::size_t i = 0; i < g_sched.events.size(); ++i) {
    FaultEvent& e = g_sched.events[i];
    if (e.kind != kind_a && e.kind != kind_b) continue;
    if (!event_matches(e, subject)) continue;
    const std::uint64_t index = g_sched.hits[i]++;
    if (g_sched.fired[i]) continue;
    const bool fire = e.once ? (index == e.at) : (index >= e.at);
    if (!fire) continue;
    if (e.once) g_sched.fired[i] = true;
    fired.push_back({e.kind, e.param});
  }
  return fired;
}

void corrupt_file(const std::string& path, long long truncate_at,
                  long long flip_bit) {
  if (truncate_at >= 0) {
    if (truncate(path.c_str(), static_cast<off_t>(truncate_at)) != 0) {
      log_warn("fault: truncate of " + path + " failed");
    }
  }
  if (flip_bit >= 0) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    if (!f) {
      log_warn("fault: cannot reopen " + path + " for bit flip");
      return;
    }
    const long byte = static_cast<long>(flip_bit / 8);
    const int bit = static_cast<int>(flip_bit % 8);
    unsigned char c = 0;
    if (std::fseek(f, byte, SEEK_SET) == 0 && std::fread(&c, 1, 1, f) == 1) {
      c = static_cast<unsigned char>(c ^ (1u << bit));
      std::fseek(f, byte, SEEK_SET);
      std::fwrite(&c, 1, 1, f);
    } else {
      log_warn("fault: bit-flip offset past end of " + path);
    }
    std::fclose(f);
  }
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kWriteFail:
      return "write_fail";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kBitFlip:
      return "bit_flip";
    case FaultKind::kSlowIo:
      return "slow_io";
    case FaultKind::kAllocFail:
      return "alloc_fail";
    case FaultKind::kTaskFail:
      return "task_fail";
  }
  return "unknown";
}

FaultSchedule FaultSchedule::random(std::uint64_t seed, std::size_t num_events,
                                    std::uint64_t horizon) {
  // Targets that actually occur in a personalization round: checkpoint
  // component files for the I/O kinds, engine round steps for task faults,
  // and buffer/fine-tune assembly for allocation faults.
  static const char* const kWriteTargets[] = {"",          "model.bin",
                                              "buffer.bin", "stats.bin",
                                              "metrics.bin", "MANIFEST"};
  static const char* const kTaskTargets[] = {"engine.process",
                                             "engine.finetune", "ckpt.save"};
  static const char* const kAllocTargets[] = {"", "buffer", "examples"};

  FaultSchedule schedule;
  schedule.seed = seed;
  // Decorrelate from other seed consumers without losing determinism.
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC4A05ull);
  schedule.events.reserve(num_events);
  for (std::size_t i = 0; i < num_events; ++i) {
    FaultEvent e;
    const std::size_t kind = rng.uniform_index(6);
    e.kind = static_cast<FaultKind>(kind);
    e.at = rng.next_u64() % (horizon == 0 ? 1 : horizon);
    // A small persistent minority: these must surface as terminal errors
    // (retry exhaustion / corruption walk-back), not heal silently.
    e.once = !rng.bernoulli(0.15);
    switch (e.kind) {
      case FaultKind::kWriteFail:
      case FaultKind::kSlowIo:
        e.match = kWriteTargets[rng.uniform_index(6)];
        e.param = 200 + rng.next_u64() % 2800;  // stall µs (kSlowIo only)
        break;
      case FaultKind::kTruncate:
        e.match = kWriteTargets[rng.uniform_index(6)];
        e.param = rng.next_u64() % 2048;  // keep this many bytes
        e.once = true;  // corruption persists on disk by itself
        break;
      case FaultKind::kBitFlip:
        e.match = kWriteTargets[rng.uniform_index(6)];
        e.param = rng.next_u64() % (8 * 2048);  // bit index
        e.once = true;
        break;
      case FaultKind::kAllocFail:
        e.match = kAllocTargets[rng.uniform_index(3)];
        break;
      case FaultKind::kTaskFail:
        e.match = kTaskTargets[rng.uniform_index(3)];
        break;
    }
    schedule.events.push_back(std::move(e));
  }
  return schedule;
}

void arm_schedule(const FaultSchedule& schedule) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_sched.events = schedule.events;
  g_sched.hits.assign(schedule.events.size(), 0);
  g_sched.fired.assign(schedule.events.size(), false);
  g_sched.stall_scale = std::max(0.0, schedule.stall_scale);
  g_sched.stats = ScheduleStats{};
  g_armed.store(true, std::memory_order_relaxed);
}

void disarm_schedule() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed.store(false, std::memory_order_relaxed);
  g_sched.events.clear();
  g_sched.hits.clear();
  g_sched.fired.clear();
}

bool schedule_armed() { return g_armed.load(std::memory_order_relaxed); }

ScheduleStats schedule_stats() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_sched.stats;
}

void on_write(const std::string& path) {
  if (!g_armed.load(std::memory_order_relaxed)) return;

  std::uint64_t stall_us = 0;
  double stall_scale = 1.0;
  bool fail = false;
  std::uint64_t fail_index = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    stall_scale = g_sched.stall_scale;
    ++g_sched.stats.writes_seen;
    for (const FiredAction& a : observe_locked(path, FaultKind::kWriteFail,
                                               FaultKind::kSlowIo)) {
      if (a.kind == FaultKind::kSlowIo) {
        ++g_sched.stats.stalls;
        stall_us += a.param;
      } else {
        ++g_sched.stats.write_fails;
        fail = true;
        fail_index = g_sched.stats.writes_seen - 1;
      }
    }
  }
  // Stall outside the lock so a slow device never serializes other threads'
  // hook checks; a stalled write that also dies stalls first (the realistic
  // ordering: the media hangs, then power goes).
  if (stall_us > 0) {
    const auto nap = static_cast<std::uint64_t>(
        static_cast<double>(stall_us) * stall_scale);
    if (nap > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(nap));
    }
  }
  if (fail) {
    throw InjectedFault("injected power loss during write #" +
                        std::to_string(fail_index) + " of " + path);
  }
}

void on_commit(const std::string& path) {
  if (!g_armed.load(std::memory_order_relaxed)) return;

  long long truncate_at = -1;
  long long flip_bit = -1;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    ++g_sched.stats.commits_seen;
    for (const FiredAction& a : observe_locked(path, FaultKind::kTruncate,
                                               FaultKind::kBitFlip)) {
      if (a.kind == FaultKind::kTruncate) {
        ++g_sched.stats.truncations;
        truncate_at = static_cast<long long>(a.param);
      } else {
        ++g_sched.stats.bit_flips;
        flip_bit = static_cast<long long>(a.param);
      }
    }
  }
  // File corruption outside the lock: commits to distinct paths must not
  // serialize, and the file is already durable (no hook state involved).
  corrupt_file(path, truncate_at, flip_bit);
}

void on_alloc(const std::string& site, std::size_t bytes) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  bool fail = false;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    ++g_sched.stats.allocs_seen;
    for (const FiredAction& a :
         observe_locked(site, FaultKind::kAllocFail, FaultKind::kAllocFail)) {
      (void)a;
      ++g_sched.stats.oom;
      fail = true;
    }
  }
  if (fail) {
    throw InjectedOom("injected allocation failure at " + site + " (" +
                      std::to_string(bytes) + " bytes)");
  }
}

void on_task(const std::string& task) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  bool fail = false;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    ++g_sched.stats.tasks_seen;
    for (const FiredAction& a :
         observe_locked(task, FaultKind::kTaskFail, FaultKind::kTaskFail)) {
      (void)a;
      ++g_sched.stats.task_fails;
      fail = true;
    }
  }
  if (fail) {
    throw InjectedTaskFault("injected task fault in " + task);
  }
}

}  // namespace odlp::util::fault
