// Fleet simulation: the same personalization framework deployed across many
// devices, each with its own user (different hidden style), its own stream,
// and its own model copy — the deployment-scale view a platform team needs
// before shipping (does the method win on average, or only for lucky
// users?). Each device is an independent run_experiment (one
// fleet::UserSession); the fleet layer
// aggregates distributional statistics across users, which also serves as
// multi-seed replication for the single-user benches.
#pragma once

#include <string>
#include <vector>

#include "exp/experiment.h"
#include "obs/slo.h"
#include "resil/governor.h"
#include "resil/retry.h"
#include "resil/supervisor.h"
#include "util/fault.h"

namespace odlp::exp {

struct FleetConfig {
  std::size_t num_devices = 5;
  // Per-device experiments derive from this template; only the seed varies
  // (seed_base + device index), which changes the user, the stream and the
  // model init together.
  ExperimentConfig device_template;
  std::uint64_t seed_base = 1000;
  // When non-zero, every device personalizes the *same* deployed base
  // checkpoint (ExperimentConfig::base_seed override) instead of a
  // per-device one. The concurrent fleet scheduler (src/fleet/) requires a
  // shared base; setting it here makes the sequential run_fleet produce the
  // exact per-user results the scheduler must match bit-for-bit.
  std::uint64_t shared_base_seed = 0;
  // Record-once/replay-many traffic (DESIGN.md §14). When set, device i's
  // stream lives at <traffic_dir>/user-<i>.obsf: the first run records each
  // generated dataset there, and every later run (sequential or scheduler)
  // replays it bit-identically instead of regenerating. The directory must
  // exist.
  std::string traffic_dir;
};

struct FleetResult {
  std::string method;
  std::vector<ExperimentResult> devices;

  double mean_rouge = 0.0;
  double min_rouge = 0.0;
  double max_rouge = 0.0;
  double stddev_rouge = 0.0;
  double mean_annotations = 0.0;
  std::size_t wins = 0;  // filled by compare_methods
};

// The experiment device `index` of the fleet runs: `device` (the fleet's
// device_template unless the caller overrides it) with `method`, seed
// seed_base + index, the shared base checkpoint when shared_base_seed is
// set, and the <traffic_dir>/user-<index>.obsf recording (replayed when it
// exists, else recorded). Shared by run_fleet and the concurrent scheduler,
// so both run every user on the same config.
ExperimentConfig device_config(const FleetConfig& config,
                               ExperimentConfig device,
                               const std::string& method, std::size_t index);

// Runs the fleet for one method: one run_experiment per device, in order.
FleetResult run_fleet(const FleetConfig& config, const std::string& method);

// Runs several methods over the *same* fleet (same users/streams per device
// index) and counts per-device wins. Results ordered as `methods`.
std::vector<FleetResult> compare_methods_over_fleet(
    const FleetConfig& config, const std::vector<std::string>& methods);

// ---------------------------------------------------------------------------
// Chaos fleet (DESIGN.md §11): the resilience stack under a fault schedule
// ---------------------------------------------------------------------------
//
// Each device is a fleet::UserSession on its own WorkerContext, inside its
// own failure domain: one supervised round is one fleet::run_user_chunk
// (the loop every runner shares), then a checkpoint save. Around it sit a
// resil::Supervisor round boundary, a per-device ResourceGovernor that
// writes its rung into the session's EngineConfig and buffer before each
// round, and RetryPolicies healing transient faults on stream ingest and
// checkpoint I/O. A util::fault::FaultSchedule is armed for the duration of
// the rounds, so injected power loss, bit rot, OOM, stalls, and poisoned
// tasks hit mid-run; a faulted chunk leaves its session whole, and recovery
// restores the device's model and buffer from its last intact checkpoint
// generation while the rest of the fleet proceeds. Everything is seeded:
// the same (config, schedule) pair produces bit-identical device state
// hashes.

// The chaos fleet's default devices: 3 of them, each a deliberately tiny
// "Ours" session — bag-of-words embeddings, a raw-initialized 1-layer
// model (no base pretraining, no cache), 32 sets in rounds of 4 on an
// 8-bin buffer, no evaluation. The chaos suite measures resilience, not
// ROUGE.
FleetConfig chaos_fleet_defaults();

struct ChaosFleetConfig {
  // Device i runs device_config(fleet, fleet.device_template, "Ours", i),
  // traffic record/replay included (<traffic_dir>/user-<i>.obsf; streams
  // settle before the fault schedule arms, so traffic I/O never shifts the
  // fault firing sequence). A supervised round is one fine-tune interval,
  // so the fleet runs stream_size / finetune_interval rounds; the interval
  // must divide the stream.
  FleetConfig fleet = chaos_fleet_defaults();
  // Per-device checkpoint directories are created under here (required).
  std::string work_dir;
  std::size_t keep_last = 2;  // checkpoint generations retained per device

  // Resilience stack. A zero memory budget is derived from the device's
  // fp32 ledger (95% of nominal total), so the degradation ladder engages.
  resil::GovernorConfig governor;
  resil::SupervisorConfig supervisor;
  resil::RetryConfig retry;  // checkpoint-I/O and ingest policies

  // Armed for the duration of the rounds (the initial generation-1
  // checkpoint is written before arming, so recovery always has an intact
  // restore target).
  util::fault::FaultSchedule schedule;

  // SLO burn-rate objectives (obs/slo.h), evaluated against a registry
  // snapshot after every fleet round. The evaluator's pressure() feeds each
  // device governor's PressureSample::slo_pressure, so a fast burn walks
  // the fleet down the degradation ladder even when per-device memory and
  // latency look healthy. Round latency is observable as the unscoped
  // histogram "chaos.round.us".
  std::vector<obs::SloObjective> slos;
};

struct ChaosDeviceReport {
  std::string name;
  resil::DeviceHealth health;
  resil::ResourceGovernor::Stats governor;
  resil::Rung final_rung = resil::Rung::kNominal;
  resil::RetryPolicy::Stats ckpt_retry;
  resil::RetryPolicy::Stats ingest_retry;
  core::EngineStats engine_stats;
  std::uint64_t final_generation = 0;  // newest restorable generation
  // FNV-1a over the newest valid generation's model/buffer/stats bytes —
  // the determinism contract's witness (0 when nothing is restorable).
  std::uint64_t state_hash = 0;
};

struct ChaosFleetResult {
  std::vector<ChaosDeviceReport> devices;
  resil::Supervisor::Totals totals;
  util::fault::ScheduleStats faults;  // injections over the whole run
  std::uint64_t fleet_state_hash = 0;  // FNV over the device hashes, in order
  double wall_seconds = 0.0;
};

ChaosFleetResult run_chaos_fleet(const ChaosFleetConfig& config);

}  // namespace odlp::exp
