#include "exp/fleet.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "core/checkpoint.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "devicesim/memory_model.h"
#include "io/stream_capture.h"
#include "llm/embedding_extractor.h"
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

// Everything one chaos device owns: its model, engine, checkpoint store,
// governor, and retry policies — an isolated failure domain.
struct ChaosDevice {
  std::string name;
  std::unique_ptr<llm::MiniLlm> model;
  std::unique_ptr<llm::EmbeddingExtractor> extractor;
  std::unique_ptr<data::UserOracle> oracle;
  std::unique_ptr<core::PersonalizationEngine> engine;
  std::unique_ptr<core::CheckpointManager> ckpt;
  std::unique_ptr<resil::ResourceGovernor> governor;
  std::unique_ptr<resil::RetryPolicy> ingest_retry;
  core::EngineConfig nominal;
  data::DialogueStream stream;
  std::size_t cursor = 0;  // next stream position to ingest
};

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

ChaosFleetResult run_chaos_fleet(const ChaosFleetConfig& config) {
  if (config.work_dir.empty()) {
    throw std::invalid_argument("run_chaos_fleet: work_dir is required");
  }
  util::Stopwatch watch;
  ChaosFleetResult result;
  const auto& dict = lexicon::builtin_dictionary();
  const text::Tokenizer tokenizer = make_device_tokenizer();

  llm::ModelConfig mc;
  mc.vocab_size = tokenizer.vocab().size();
  mc.dim = config.model_dim;
  mc.heads = config.model_heads;
  mc.layers = config.model_layers;
  mc.ff_hidden = config.model_ff;
  mc.max_seq_len = config.max_seq_len;

  std::vector<std::unique_ptr<ChaosDevice>> devices;
  devices.reserve(config.num_devices);
  for (std::size_t i = 0; i < config.num_devices; ++i) {
    auto d = std::make_unique<ChaosDevice>();
    d->name = util::format("device-%03zu", i);
    const std::uint64_t seed = config.seed_base + i;

    // Raw-initialized tiny model, no base pretraining: the chaos suite
    // exercises the resilience stack, not personalization quality.
    d->model = std::make_unique<llm::MiniLlm>(mc, seed * 7919 + 17);
    d->extractor =
        std::make_unique<llm::BagOfWordsExtractor>(config.model_dim);
    d->oracle =
        std::make_unique<data::UserOracle>(seed * 2654435761ull + 1, dict);

    // Streams are settled here, before the fault schedule arms below, so
    // recording or replaying traffic cannot shift the fault firing
    // sequence — record-run and replay-run stay bit-identical.
    const std::string traffic_path =
        config.traffic_dir.empty()
            ? std::string()
            : config.traffic_dir + "/" + d->name + ".obsf";
    if (!traffic_path.empty() && std::filesystem::exists(traffic_path)) {
      d->stream = io::replay_dataset(traffic_path).stream;
    } else {
      data::Generator generator(data::profile_by_name(config.dataset),
                                *d->oracle, util::Rng(seed));
      data::GeneratedDataset dataset = generator.generate(
          config.rounds * config.sets_per_round, /*test_size=*/2);
      if (!traffic_path.empty()) io::record_dataset(dataset, traffic_path);
      d->stream = std::move(dataset.stream);
    }

    core::EngineConfig ec;
    ec.buffer_bins = config.buffer_bins;
    ec.finetune_interval = 0;  // rounds fine-tune explicitly
    ec.synth_per_set = config.synth_per_set;
    ec.max_seq_len = config.max_seq_len;
    ec.use_lora = true;
    ec.train.epochs = config.epochs;
    ec.train.batch_size = config.batch_size;
    ec.train.learning_rate = config.learning_rate;
    ec.sampler.max_new_tokens = 8;
    d->nominal = ec;

    util::Rng engine_rng(seed ^ 0xc4a05u);
    d->engine = std::make_unique<core::PersonalizationEngine>(
        *d->model, tokenizer, *d->extractor, *d->oracle, dict,
        make_policy("Ours"),
        std::make_unique<core::ParaphraseSynthesizer>(dict, engine_rng.split()),
        ec, engine_rng.split());

    d->ckpt = std::make_unique<core::CheckpointManager>(
        config.work_dir + "/" + d->name, config.keep_last);
    resil::RetryConfig ckpt_retry = config.retry;
    ckpt_retry.seed = config.retry.seed ^ (0x9E37u + i * 7919u);
    d->ckpt->set_retry(ckpt_retry);
    resil::RetryConfig ingest_retry = config.retry;
    ingest_retry.seed = config.retry.seed ^ (0x51DEu + i * 6271u);
    d->ingest_retry = std::make_unique<resil::RetryPolicy>(ingest_retry);

    resil::GovernorConfig gc = config.governor;
    if (config.engage_governor && gc.memory_budget_bytes == 0) {
      // 95% of the nominal fp32 ledger: the first observation escalates,
      // the int8 rung relieves the pressure, and the ladder gets exercised.
      const devicesim::MemoryLedger nominal_ledger =
          devicesim::model_memory_ledger(*d->model, config.buffer_bins);
      gc.memory_budget_bytes = static_cast<std::size_t>(
          static_cast<double>(nominal_ledger.total_bytes()) * 0.95);
    }
    d->governor = std::make_unique<resil::ResourceGovernor>(gc);
    devices.push_back(std::move(d));
  }

  // Generation 1 lands before the schedule arms: every device starts with
  // an intact restore target no matter what the chaos does afterwards.
  for (auto& d : devices) {
    d->ckpt->save(*d->model, d->engine->buffer(), tokenizer.vocab(),
                  d->engine->stats());
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
    for (std::size_t round = 0; round < config.rounds; ++round) {
      for (auto& d : devices) {
        const auto round_fn = [&] {
          util::Stopwatch round_sw;
          apply_decision(d->governor->decision(), *d->engine, d->nominal);
          for (std::size_t s = 0; s < config.sets_per_round; ++s) {
            const data::DialogueSet& set =
                d->stream[d->cursor % d->stream.size()];
            // A transient injected fault (task poison, OOM at admission)
            // heals here; persistent ones exhaust and reach the supervisor.
            d->ingest_retry->run(
                "ingest", [&] { d->engine->process(set); });
            ++d->cursor;
          }
          d->engine->finetune_now();
          d->ckpt->save(*d->model, d->engine->buffer(), tokenizer.vocab(),
                        d->engine->stats());
          // Pressure under the *current* decision: the governor sees the
          // effect of its own last rung before walking again.
          const devicesim::MemoryLedger ledger =
              devicesim::governed_memory_ledger(
                  *d->model, d->engine->buffer().effective_capacity(),
                  d->governor->decision().kv_fraction,
                  d->engine->decode_kv_sessions());
          h_chaos_round.record(round_sw.elapsed_seconds() * 1e6);
          d->governor->observe({ledger.total_bytes(),
                                round_sw.elapsed_seconds() * 1e3,
                                slo_pressure});
        };
        const auto recover_fn = [&]() -> bool {
          const auto restored = d->ckpt->restore(*d->model);
          if (!restored) return false;
          d->engine->restore_buffer(std::move(restored->buffer));
          d->model->refresh_quantized_weights();
          return true;
        };
        supervisor.run_round(d->name, round_fn, recover_fn);
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
  for (auto& d : devices) {
    ChaosDeviceReport report;
    report.name = d->name;
    report.health = supervisor.health(d->name);
    report.governor = d->governor->stats();
    report.final_rung = d->governor->rung();
    report.ckpt_retry = d->ckpt->retry()->stats();
    report.ingest_retry = d->ingest_retry->stats();
    report.engine_stats = d->engine->stats();
    report.state_hash =
        device_state_hash(*d->ckpt, &report.final_generation);
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
