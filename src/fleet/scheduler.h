// Multi-tenant fleet scheduler (DESIGN.md §13): N concurrent users in one
// process, sharing one pretrained base model, one thread pool, one
// cross-user batched decode path, and one LRU adapter cache.
//
// Every user runs the same loop as exp::run_experiment — a UserSession
// advanced by run_user_chunk, evaluated by flush_evals (fleet/
// user_session.h), on the config exp::device_config builds for run_fleet.
// What this file adds is the multiplexing:
//   * A user's work is divided into chunks of `finetune_interval` stream
//     sets (the natural unit: score/admit/synthesize each set, fine-tune at
//     the chunk boundary). One chunk == one round-step.
//   * Each wave runs `max(threads, wave_slot_factor * unfinished)` slots
//     through ThreadPool::parallel_for_slotted. A slot claims the runnable
//     user with the fewest completed rounds from the sharded registry, pins
//     the user's adapter in the AdapterCache, swaps the session onto the
//     lane's worker model, runs one chunk, and releases.
//   * Evaluations never run inside a chunk: they are enqueued as EvalJobs
//     against an adapter snapshot and flushed at the wave boundary in ONE
//     flush_evals call, where generations from different users share
//     batched forward steps via per-slot LoRA overlays.
//
// Determinism contract: per-user results are bit-identical to the
// sequential exp::run_fleet at any thread/shard count, provided the fleet
// shares one base checkpoint (FleetConfig::shared_base_seed). Both run the
// same session code; what the scheduler must keep out of the numbers is
// the interleaving: per-user rng streams travel with the session, batched
// decode is width-invariant, kernels run on the calling lane, and eval
// jobs use fixed per-(repeat, set) seeds.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "devicesim/memory_model.h"
#include "exp/fleet.h"
#include "fleet/adapter_cache.h"

namespace odlp::fleet {

struct ConcurrentFleetConfig {
  exp::FleetConfig fleet;       // users = fleet.num_devices, template + seeds
  std::string method = "Ours";  // method every user runs

  std::size_t threads = 4;  // scheduler lanes (ThreadPool is resized to this)
  std::size_t shards = 4;   // session-registry shards (user id % shards)
  // Cross-user batched decode width for the wave-boundary eval flush.
  std::size_t decode_batch = 8;
  // Wave slots = max(threads, wave_slot_factor * unfinished users): slack so
  // fast users take several turns per wave while a slow chunk occupies one
  // lane, instead of the whole wave blocking on the straggler.
  std::size_t wave_slot_factor = 2;
  // A starvation event fires at a wave boundary when some unfinished user
  // is >= this many rounds behind the furthest-ahead user.
  std::size_t starvation_gap = 3;
  // By default OS-level pool lanes are capped at the physical core count —
  // `threads` beyond that buys wave-slot scheduling freedom, not compute,
  // and oversubscribing cores only adds context switches to the chunk path.
  // Set true to force `threads` OS lanes regardless (e.g. to exercise true
  // lane concurrency on a small host).
  bool oversubscribe = false;

  // Adapter residency: explicit capacity wins; else derived from
  // memory_budget_bytes via FleetMemoryLedger::adapter_capacity; else every
  // adapter stays resident. Evictions spill to spill_dir (required).
  std::size_t adapter_cache_capacity = 0;
  std::size_t memory_budget_bytes = 0;
  std::string spill_dir;

  // Per-user template overrides (keyed by user index) — e.g. a rigged slow
  // user for starvation tests. The scheduler still applies method, seed
  // (seed_base + index) and the shared base seed on top.
  std::unordered_map<std::size_t, exp::ExperimentConfig> user_overrides;

  // When set, an OBSF metrics journal (obs/journal.h) of full_snapshot()
  // is appended at every wave boundary and on completion, capturing the
  // fleet's per-user trajectories (scoped samples ride along).
  std::string journal_out;
};

struct FleetRunStats {
  std::size_t users = 0;
  std::size_t rounds = 0;  // chunks executed across all users
  std::size_t waves = 0;
  std::size_t faults = 0;  // chunks aborted by injected faults
  double wall_seconds = 0.0;
  double users_per_second = 0.0;  // completed users / wall
  double mean_round_seconds = 0.0;
  double p99_round_seconds = 0.0;

  AdapterCache::Stats cache;

  std::size_t decode_steps = 0;           // batched eval-flush forward steps
  std::size_t decode_peak_occupancy = 0;  // max sessions in one step
  double decode_mean_occupancy = 0.0;     // mean sessions per step

  std::size_t starvation_events = 0;
  std::size_t max_rounds_behind = 0;  // worst gap seen at any wave boundary

  // Observability surface (journal_out / scoped metrics).
  std::size_t journal_snapshots = 0;   // snapshots appended to journal_out
  std::size_t journal_file_bytes = 0;  // journal size on disk (0 if unused)
  std::size_t scope_occupancy = 0;     // live scope labels at end of run
  std::size_t scope_demotions = 0;     // LRU demotions during the run

  devicesim::FleetMemoryLedger ledger;  // end-of-run residency snapshot
};

struct ConcurrentFleetResult {
  // users[i] corresponds to the sequential run_fleet's devices[i].
  std::vector<exp::ExperimentResult> users;
  FleetRunStats stats;
};

ConcurrentFleetResult run_concurrent_fleet(const ConcurrentFleetConfig& config);

}  // namespace odlp::fleet
