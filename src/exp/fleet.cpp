#include "exp/fleet.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "core/checkpoint.h"
#include "devicesim/memory_model.h"
#include "fleet/user_session.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "util/atomic_file.h"
#include "util/log.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace odlp::exp {

namespace {

void finalize_stats(FleetResult& result) {
  if (result.devices.empty()) return;
  double sum = 0.0, sum_sq = 0.0, ann = 0.0;
  result.min_rouge = result.devices.front().final_rouge;
  result.max_rouge = result.devices.front().final_rouge;
  for (const auto& d : result.devices) {
    sum += d.final_rouge;
    sum_sq += d.final_rouge * d.final_rouge;
    ann += static_cast<double>(d.annotation_requests);
    result.min_rouge = std::min(result.min_rouge, d.final_rouge);
    result.max_rouge = std::max(result.max_rouge, d.final_rouge);
  }
  const double n = static_cast<double>(result.devices.size());
  result.mean_rouge = sum / n;
  result.mean_annotations = ann / n;
  const double var = std::max(0.0, sum_sq / n - result.mean_rouge * result.mean_rouge);
  result.stddev_rouge = std::sqrt(var);
}

}  // namespace

ExperimentConfig device_config(const FleetConfig& config,
                               ExperimentConfig device,
                               const std::string& method, std::size_t index) {
  device.method = method;
  device.seed = config.seed_base + index;
  if (config.shared_base_seed != 0) device.base_seed = config.shared_base_seed;
  if (!config.traffic_dir.empty()) {
    // Record-once/replay-many: the first run of a device records its
    // stream, every later run replays it bit-identically.
    const std::string path =
        config.traffic_dir + "/user-" + std::to_string(index) + ".obsf";
    if (std::filesystem::exists(path)) {
      device.traffic_replay_path = path;
    } else {
      device.traffic_record_path = path;
    }
  }
  return device;
}

FleetResult run_fleet(const FleetConfig& config, const std::string& method) {
  FleetResult result;
  result.method = method;
  for (std::size_t device = 0; device < config.num_devices; ++device) {
    result.devices.push_back(run_experiment(
        device_config(config, config.device_template, method, device)));
  }
  finalize_stats(result);
  return result;
}

namespace {

std::uint64_t fnv1a_bytes(const unsigned char* data, std::size_t n,
                          std::uint64_t h = 1469598103934665603ull) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

// State hash over the newest restorable generation's deterministic
// component files (metrics.bin carries wall-clock timings, so it is
// excluded). Same config + same schedule => same bytes => same hash.
std::uint64_t device_state_hash(const core::CheckpointManager& ckpt,
                                std::uint64_t* generation_out) {
  const auto valid = ckpt.newest_valid();
  if (!valid) {
    *generation_out = 0;
    return 0;
  }
  *generation_out = valid->generation;
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string* path :
       {&valid->model_path, &valid->buffer_path, &valid->stats_path}) {
    const std::vector<unsigned char> bytes = util::read_file(*path);
    h = fnv1a_bytes(bytes.data(), bytes.size(), h);
  }
  return h;
}

}  // namespace

FleetConfig chaos_fleet_defaults() {
  FleetConfig fleet;
  fleet.num_devices = 3;
  ExperimentConfig& device = fleet.device_template;
  device.embedding_source = "bow";
  device.buffer_bins = 8;
  device.stream_size = 32;
  device.finetune_interval = 4;
  device.test_size = 2;
  device.eval_subset = 0;
  device.synth_per_set = 1;
  device.epochs = 1;
  device.batch_size = 8;
  device.model_dim = 32;
  device.model_heads = 2;
  device.model_layers = 1;
  device.model_ff = 64;
  device.max_seq_len = 32;
  device.pretrain_examples = 0;
  device.cache_dir = "";
  device.record_curve = false;
  return fleet;
}

ChaosFleetResult run_chaos_fleet(const ChaosFleetConfig& config) {
  if (config.work_dir.empty()) {
    throw std::invalid_argument("run_chaos_fleet: work_dir is required");
  }
  const ExperimentConfig& tmpl = config.fleet.device_template;
  if (tmpl.finetune_interval == 0 ||
      tmpl.stream_size % tmpl.finetune_interval != 0) {
    throw std::invalid_argument(
        "run_chaos_fleet: finetune_interval must divide stream_size");
  }
  const std::size_t rounds = tmpl.stream_size / tmpl.finetune_interval;
  util::Stopwatch watch;
  ChaosFleetResult result;
  const text::Tokenizer tokenizer = make_device_tokenizer();
  // Chaos rounds never evaluate: the final per-set job of a finished
  // stream has nowhere to go.
  const fleet::EvalSink discard = [](fleet::EvalJob) {};

  // One failure domain per device: its session on its own worker, plus the
  // checkpoint store, governor, and ingest policy that guard it.
  struct Domain {
    std::string name;
    fleet::WorkerContext worker;
    fleet::AdapterState adapter;
    std::unique_ptr<fleet::UserSession> session;
    std::unique_ptr<core::CheckpointManager> ckpt;
    std::unique_ptr<resil::ResourceGovernor> governor;
    std::unique_ptr<resil::RetryPolicy> ingest_retry;
  };
  std::vector<Domain> devices(config.fleet.num_devices);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    Domain& d = devices[i];
    d.name = util::format("device-%03zu", i);
    // Streams are settled here, before the fault schedule arms below, so
    // recording or replaying traffic cannot shift the fault firing
    // sequence — record-run and replay-run stay bit-identical.
    const ExperimentConfig device = device_config(config.fleet, tmpl, "Ours", i);
    d.worker =
        std::move(fleet::make_fleet_models(device, tokenizer, 1).workers[0]);
    d.adapter = fleet::initial_adapter_state(*d.worker.model);
    d.session = fleet::make_user_session(i, device, d.worker, discard);

    d.ckpt = std::make_unique<core::CheckpointManager>(
        config.work_dir + "/" + d.name, config.keep_last);
    resil::RetryConfig ckpt_retry = config.retry;
    ckpt_retry.seed = config.retry.seed ^ (0x9E37u + i * 7919u);
    d.ckpt->set_retry(ckpt_retry);
    resil::RetryConfig ingest_retry = config.retry;
    ingest_retry.seed = config.retry.seed ^ (0x51DEu + i * 6271u);
    d.ingest_retry = std::make_unique<resil::RetryPolicy>(ingest_retry);
    d.session->ingest_retry = d.ingest_retry.get();

    resil::GovernorConfig gc = config.governor;
    if (gc.memory_budget_bytes == 0) {
      // 95% of the nominal fp32 ledger: the first observation escalates,
      // the int8 rung relieves the pressure, and the ladder gets exercised.
      const devicesim::MemoryLedger nominal_ledger =
          devicesim::model_memory_ledger(*d.worker.model, device.buffer_bins);
      gc.memory_budget_bytes = static_cast<std::size_t>(
          static_cast<double>(nominal_ledger.total_bytes()) * 0.95);
    }
    d.governor = std::make_unique<resil::ResourceGovernor>(gc);
  }

  // Generation 1 lands before the schedule arms: every device starts with
  // an intact restore target no matter what the chaos does afterwards.
  for (Domain& d : devices) {
    d.ckpt->save(*d.worker.model, d.session->buffer, tokenizer.vocab(),
                 d.session->stats);
  }

  resil::Supervisor supervisor(config.supervisor);
  // SLO burn-rate loop: one snapshot observation per fleet round; the
  // evaluator's pressure rides every governor observation of the NEXT
  // round, closing the alert -> degradation ladder loop.
  obs::SloEvaluator slo_eval(config.slos);
  double slo_pressure = 0.0;
  static obs::Histogram& h_chaos_round =
      obs::registry().histogram("chaos.round.us", obs::default_us_bounds());
  {
    util::fault::ScopedSchedule armed(config.schedule);
    for (std::size_t round = 0; round < rounds; ++round) {
      for (Domain& d : devices) {
        fleet::UserSession& s = *d.session;
        const auto round_fn = [&] {
          util::Stopwatch round_sw;
          resil::apply_decision(d.governor->decision(),
                                make_engine_config(s.config), s.ec, s.buffer);
          // A transient injected fault (task poison, OOM at admission)
          // heals inside the chunk's ingest retry; persistent ones exhaust
          // and reach the supervisor, with the session swapped out whole.
          fleet::run_user_chunk(s, d.worker, tokenizer, d.adapter, discard);
          d.ckpt->save(*d.worker.model, s.buffer, tokenizer.vocab(), s.stats);
          // Pressure under the *current* decision: the governor sees the
          // effect of its own last rung before walking again. Chaos rounds
          // never evaluate, so one KV decode session is live at most.
          const devicesim::MemoryLedger ledger =
              devicesim::governed_memory_ledger(
                  *d.worker.model, s.buffer.effective_capacity(),
                  d.governor->decision().kv_fraction);
          h_chaos_round.record(round_sw.elapsed_seconds() * 1e6);
          d.governor->observe({ledger.total_bytes(),
                               round_sw.elapsed_seconds() * 1e3,
                               slo_pressure});
        };
        const auto recover_fn = [&]() -> bool {
          const auto restored = d.ckpt->restore(*d.worker.model);
          if (!restored) return false;
          s.buffer = std::move(restored->buffer);
          // The restore wrote the adapter values into the worker's LoRA
          // sites; the next chunk installs d.adapter, so take them from
          // there. The optimizer moments carry on.
          for (std::size_t k = 0; k < d.worker.sites.size(); ++k) {
            d.adapter.sites[k].a = d.worker.sites[k]->mutable_lora_a().value;
            d.adapter.sites[k].b = d.worker.sites[k]->mutable_lora_b().value;
          }
          d.worker.model->refresh_quantized_weights();
          return true;
        };
        supervisor.run_round(d.name, round_fn, recover_fn);
      }
      if (!config.slos.empty()) {
        slo_eval.observe(
            obs::full_snapshot(),
            static_cast<std::uint64_t>(watch.elapsed_seconds() * 1e6));
        slo_pressure = slo_eval.pressure();
      }
    }
    result.faults = util::fault::schedule_stats();
  }

  std::uint64_t fleet_hash = 1469598103934665603ull;
  for (Domain& d : devices) {
    ChaosDeviceReport report;
    report.name = d.name;
    report.health = supervisor.health(d.name);
    report.governor = d.governor->stats();
    report.final_rung = d.governor->rung();
    report.ckpt_retry = d.ckpt->retry()->stats();
    report.ingest_retry = d.ingest_retry->stats();
    report.engine_stats = d.session->stats;
    report.state_hash = device_state_hash(*d.ckpt, &report.final_generation);
    fleet_hash = fnv1a_bytes(
        reinterpret_cast<const unsigned char*>(&report.state_hash),
        sizeof(report.state_hash), fleet_hash);
    result.devices.push_back(std::move(report));
  }
  result.fleet_state_hash = fleet_hash;
  result.totals = supervisor.totals();
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

std::vector<FleetResult> compare_methods_over_fleet(
    const FleetConfig& config, const std::vector<std::string>& methods) {
  std::vector<FleetResult> results;
  results.reserve(methods.size());
  for (const auto& method : methods) {
    results.push_back(run_fleet(config, method));
  }
  // Per-device wins: which method scored highest on each device index.
  if (!results.empty()) {
    for (std::size_t device = 0; device < config.num_devices; ++device) {
      std::size_t best = 0;
      for (std::size_t m = 1; m < results.size(); ++m) {
        if (results[m].devices[device].final_rouge >
            results[best].devices[device].final_rouge) {
          best = m;
        }
      }
      ++results[best].wins;
    }
  }
  return results;
}

}  // namespace odlp::exp
