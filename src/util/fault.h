// Deterministic fault injection for storage, memory, and task execution.
//
// Edge deployments lose power mid-write, suffer flash bit rot, run out of
// memory, and stall on slow media; tests, the chaos suite, and
// bench_robustness need to script those failures reproducibly.
//
// A FaultSchedule is a list of FaultEvents spanning write failures,
// post-commit corruption, slow-I/O stalls, allocation failures, and
// task-level faults. util::AtomicFileWriter consults the armed schedule on
// every write and commit, and hooks at allocation-heavy and round-level
// call sites (DataBuffer admission, engine rounds, checkpoint saves) on
// every call; an event fires on the N-th matching observation, once
// (transient) or persistently. A test scripts one failure with a one-event
// schedule — "the 3rd write of the model file fails" is
// {kWriteFail, "model.bin", at=2, once=true}; "every committed stats file
// loses all but 10 bytes" is {kTruncate, "stats.bin", at=0, param=10,
// once=false} — and the chaos harness draws seeded random schedules.
//
// Thread safety: the armed flag is a relaxed atomic and schedule state is
// mutex-guarded while armed, so chaos scenarios run TSan-clean alongside
// the ThreadPool. The fast path when nothing is armed is one relaxed load.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace odlp::util::fault {

// Thrown by on_write() when the armed schedule says this write call dies —
// simulates power loss mid-write (the destination file is never replaced).
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown by on_alloc() when the armed schedule fails this allocation —
// simulates memory exhaustion. A distinct type so supervisors and retry
// policies can treat resource pressure separately from I/O power loss.
class InjectedOom : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown by on_task() when the armed schedule poisons this task — simulates
// a malformed round step (poisoned stream element, wedged fine-tune).
class InjectedTaskFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind {
  kWriteFail,  // on_write throws InjectedFault (power loss mid-write)
  kTruncate,   // on_commit truncates the committed file to `param` bytes
  kBitFlip,    // on_commit flips bit `param` of the committed file
  kSlowIo,     // on_write stalls `param` microseconds (slow flash / fsync)
  kAllocFail,  // on_alloc throws InjectedOom
  kTaskFail,   // on_task throws InjectedTaskFault
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kWriteFail;
  // Substring the hook argument (path, allocation site, or task name) must
  // contain for this event to observe the call ("" = every call).
  std::string match;
  // 0-based index, among this event's matching observations since
  // arm_schedule(), on which the event fires.
  std::uint64_t at = 0;
  // kTruncate: byte length; kBitFlip: bit index; kSlowIo: stall µs.
  std::uint64_t param = 0;
  // true: fires exactly once, then disarms (a transient fault that heals on
  // retry). false: fires on every matching observation with index >= at (a
  // persistent fault that must surface as a terminal error).
  bool once = true;
};

struct FaultSchedule {
  std::uint64_t seed = 0;  // provenance only; events are already materialized
  std::vector<FaultEvent> events;
  // Scales the actual kSlowIo nap (the stall is still counted in
  // ScheduleStats either way). Sweeps that replay thousands of stalls set
  // this near 0 to account the slow I/O without serving the full sleep —
  // the stall analogue of RetryConfig::sleep = false.
  double stall_scale = 1.0;

  // Deterministic pseudo-random schedule: `num_events` events drawn across
  // all fault kinds, with match targets, trigger indices in [0, horizon),
  // corruption offsets, stall durations, and a small persistent-fault
  // minority, all derived from `seed`. Equal seeds build equal schedules.
  static FaultSchedule random(std::uint64_t seed, std::size_t num_events,
                              std::uint64_t horizon = 48);
};

void arm_schedule(const FaultSchedule& schedule);
void disarm_schedule();
bool schedule_armed();

// Observation and injection totals since the last arm_schedule().
struct ScheduleStats {
  std::uint64_t writes_seen = 0;
  std::uint64_t commits_seen = 0;
  std::uint64_t allocs_seen = 0;
  std::uint64_t tasks_seen = 0;
  std::uint64_t write_fails = 0;
  std::uint64_t truncations = 0;
  std::uint64_t bit_flips = 0;
  std::uint64_t stalls = 0;
  std::uint64_t oom = 0;
  std::uint64_t task_fails = 0;

  std::uint64_t total_injected() const {
    return write_fails + truncations + bit_flips + stalls + oom + task_fails;
  }
};
ScheduleStats schedule_stats();

class ScopedSchedule {
 public:
  explicit ScopedSchedule(const FaultSchedule& schedule) {
    arm_schedule(schedule);
  }
  ~ScopedSchedule() { disarm_schedule(); }
  ScopedSchedule(const ScopedSchedule&) = delete;
  ScopedSchedule& operator=(const ScopedSchedule&) = delete;
};

// --- hooks called by the storage / engine / buffer layers ---

// Before each buffered write to `path`; throws InjectedFault when the armed
// schedule kills this write, after applying any scheduled stall.
void on_write(const std::string& path);

// After `path` has been atomically committed; applies truncate/bit-flip
// corruption from the armed schedule to the final file.
void on_commit(const std::string& path);

// At allocation-heavy sites (buffer admission, fine-tune batch assembly).
// Throws InjectedOom when the armed schedule fails this allocation.
void on_alloc(const std::string& site, std::size_t bytes = 0);

// At task boundaries (engine stream step, fine-tune round, checkpoint
// save). Throws InjectedTaskFault when the armed schedule poisons the task.
void on_task(const std::string& task);

}  // namespace odlp::util::fault
