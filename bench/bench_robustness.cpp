// Robustness extension: the framework under stream distortions.
//
// Re-runs the Ours pipeline on a MedDialog stream transformed four ways —
// original (bursty), fully shuffled (temporal correlation destroyed),
// reversed (late bursts first), and with 50% extra injected noise — and
// compares against Random Replace on the same transformed streams. The
// paper's claim that the framework handles both weak and strong temporal
// correlation predicts stable wins across the first three rows; the noise
// row stresses the DSS/EOE filters specifically.
//
// --chaos switches to the resilience sweep instead (DESIGN.md §11): full
// personalization fleets under seeded fault schedules, reporting
// availability, MTTR, rung transitions, and retry stats to
// results/BENCH_robustness.json. The default schedule must sustain
// availability >= 99% with bounded MTTR, and a repeated schedule must be
// bit-identical — the bench exits non-zero when either contract breaks.
#include <algorithm>
#include <array>
#include <filesystem>
#include <unistd.h>

#include "bench_common.h"
#include "core/checkpoint.h"
#include "data/generator.h"
#include "data/stream_transforms.h"
#include "exp/fleet.h"
#include "llm/embedding_extractor.h"

using namespace odlp;

namespace {

double run_on_stream(const bench::BenchOptions& opt, const std::string& method,
                     const data::DialogueStream& stream,
                     const data::DialogueStream& test, data::UserOracle& oracle) {
  exp::ExperimentConfig config = bench::standard_config(opt);
  const auto& dict = lexicon::builtin_dictionary();
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  auto model = exp::make_base_model(config, tokenizer);
  llm::LlmEmbeddingExtractor extractor(*model, tokenizer);

  const core::EngineConfig ec = exp::make_engine_config(config);
  util::Rng rng(config.seed ^ 0x0b0e);
  core::PersonalizationEngine engine(
      *model, tokenizer, extractor, oracle, dict, exp::make_policy(method),
      std::make_unique<core::ParaphraseSynthesizer>(dict, rng.split()), ec,
      rng.split());
  engine.run_stream(stream);
  engine.finetune_now();

  std::vector<const data::DialogueSet*> eval_sets;
  const std::size_t n = std::min<std::size_t>(config.eval_subset, test.size());
  for (std::size_t i = 0; i < n; ++i) {
    eval_sets.push_back(&test[i * test.size() / n]);
  }
  return engine.evaluate(eval_sets, config.eval_repeats);
}

// Durability cost at the standard 32-bin config: fill the buffer by
// streaming (no fine-tuning), then time one CheckpointManager save +
// restore cycle and report the generation's on-disk footprint.
void report_checkpoint_overhead(const bench::BenchOptions& opt,
                                const data::DialogueStream& stream,
                                data::UserOracle& oracle) {
  exp::ExperimentConfig config = bench::standard_config(opt);
  const auto& dict = lexicon::builtin_dictionary();
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  auto model = exp::make_base_model(config, tokenizer);
  llm::LlmEmbeddingExtractor extractor(*model, tokenizer);

  core::EngineConfig ec = exp::make_engine_config(config);  // 32 bins
  ec.finetune_interval = 0;  // selection only — fill the buffer
  util::Rng rng(config.seed ^ 0xC4E);
  core::PersonalizationEngine engine(
      *model, tokenizer, extractor, oracle, dict,
      std::make_unique<core::QualityReplacementPolicy>(),
      std::make_unique<core::ParaphraseSynthesizer>(dict, rng.split()), ec,
      rng.split());
  const std::size_t feed = std::min<std::size_t>(stream.size(), 96);
  for (std::size_t i = 0; i < feed; ++i) engine.process(stream[i]);

  const std::string dir = "/tmp/odlp_bench_ckpt";
  std::filesystem::remove_all(dir);
  core::CheckpointManager ckpt(dir, /*keep_last=*/2);

  util::Stopwatch save_watch;
  const std::uint64_t gen = ckpt.save(*model, engine.buffer(),
                                      tokenizer.vocab(), engine.stats());
  const double save_ms = save_watch.elapsed_ms();
  const std::uint64_t bytes = ckpt.generation_bytes(gen);

  util::Stopwatch restore_watch;
  const auto restored = ckpt.restore(*model);
  const double restore_ms = restore_watch.elapsed_ms();

  util::Table table({"checkpoint overhead (32 bins)", "value"});
  table.row().cell("buffered sets").cell(
      static_cast<long long>(engine.buffer().size()));
  table.row().cell("bytes per generation").cell(static_cast<long long>(bytes));
  table.row().cell("save wall ms").cell(save_ms, 2);
  table.row().cell("restore wall ms").cell(restore_ms, 2);
  std::printf("%s\n", table.to_string().c_str());
  std::fprintf(stderr,
               "  [robustness] checkpoint: gen %llu, %llu bytes, save %.2f ms, "
               "restore %.2f ms (restored=%s)\n",
               static_cast<unsigned long long>(gen),
               static_cast<unsigned long long>(bytes), save_ms, restore_ms,
               restored ? "yes" : "NO");
  std::filesystem::remove_all(dir);
}

// --- Chaos sweep (--chaos) ------------------------------------------------

// Mirrors the tests/test_chaos.cpp geometry: tiny raw-initialized models,
// memory-only governor pressure (deadlines off), backoff accounted but not
// slept — the whole sweep is deterministic on a timeshared host.
exp::ChaosFleetConfig chaos_fleet_config(std::uint64_t schedule_seed,
                                         std::size_t devices,
                                         std::size_t rounds,
                                         const std::string& work_dir,
                                         const std::string& traffic_dir) {
  exp::ChaosFleetConfig config;
  config.fleet.num_devices = devices;
  exp::ExperimentConfig& device = config.fleet.device_template;
  device.finetune_interval = 3;  // sets per round
  device.stream_size = rounds * device.finetune_interval;
  device.buffer_bins = 4;
  device.synth_per_set = 1;
  device.epochs = 1;
  config.fleet.seed_base = 1000 + schedule_seed * 101;
  config.work_dir = work_dir;
  // Record-once/replay-many: device streams are captured to
  // <traffic_dir>/user-<i>.obsf on first run and replayed after. The
  // traffic dir deliberately lives OUTSIDE work_dir (which is wiped per
  // run), so a repeated config replays its recording — the determinism
  // witness below therefore covers the OBSF replay path too.
  config.fleet.traffic_dir = traffic_dir;
  config.keep_last = rounds + 3;  // pruning never strands a restore target
  config.retry.sleep = false;
  config.governor.round_deadline_ms = 0.0;
  config.supervisor.round_deadline_ms = 0.0;
  config.schedule = util::fault::FaultSchedule::random(
      schedule_seed, /*num_events=*/10,
      /*horizon=*/rounds * devices * 4);
  // Account every stall, skip the nap: a persistent slow-I/O event can fire
  // tens of thousands of times across a 120-round fleet, and the sweep's
  // job is resilience accounting, not sleeping.
  config.schedule.stall_scale = 0.0;
  return config;
}

exp::ChaosFleetResult run_chaos_fleet_in(const exp::ChaosFleetConfig& config) {
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  if (!config.fleet.traffic_dir.empty()) {
    std::filesystem::create_directories(config.fleet.traffic_dir);
  }
  const exp::ChaosFleetResult result = exp::run_chaos_fleet(config);
  std::filesystem::remove_all(config.work_dir);
  return result;
}

int run_chaos_bench(const bench::BenchOptions& opt,
                    const std::string& out_path) {
  bench::print_header(
      "Robustness (chaos sweep)",
      "seeded fault schedules over full personalization fleets", opt);
  const std::string work_root =
      "/tmp/odlp_bench_chaos_" + std::to_string(::getpid());
  // Default-schedule fleet: large enough that the 99% availability bar has
  // meaning (full: 4 devices x 30 rounds = 120 device-rounds).
  const std::size_t devices = opt.quick ? 3 : 4;
  const std::size_t rounds = opt.quick ? 10 : 30;
  const std::size_t sweep_schedules = opt.quick ? 6 : 16;

  util::Stopwatch watch;
  const exp::ChaosFleetConfig default_config =
      chaos_fleet_config(opt.seed, devices, rounds, work_root + "/default",
                         work_root + "/traffic-default");
  const exp::ChaosFleetResult def = run_chaos_fleet_in(default_config);
  // Determinism witness: the same (config, schedule) pair must reproduce
  // the fleet state hash bit-for-bit. The first run recorded the device
  // streams; this one replays them, so the witness covers record/replay.
  const exp::ChaosFleetResult repeat = run_chaos_fleet_in(default_config);
  const bool deterministic = def.fleet_state_hash == repeat.fleet_state_hash;

  // Aggregate the per-device resilience ledgers of the default run.
  std::array<std::uint64_t, resil::kNumRungs> rung_entered{};
  resil::ResourceGovernor::Stats gov{};
  resil::RetryPolicy::Stats retry{};
  for (const auto& d : def.devices) {
    gov.observations += d.governor.observations;
    gov.escalations += d.governor.escalations;
    gov.recoveries += d.governor.recoveries;
    gov.relapses += d.governor.relapses;
    for (std::size_t r = 0; r < resil::kNumRungs; ++r) {
      rung_entered[r] += d.governor.entered[r];
    }
    for (const auto* stats : {&d.ckpt_retry, &d.ingest_retry}) {
      retry.calls += stats->calls;
      retry.attempts += stats->attempts;
      retry.retries += stats->retries;
      retry.healed += stats->healed;
      retry.exhausted += stats->exhausted;
      retry.terminal += stats->terminal;
      retry.backoff_us_total += stats->backoff_us_total;
    }
  }

  // Schedule sweep: the same invariants the chaos test suite enforces,
  // summarized across many independent seeds for the report.
  double sweep_avail_sum = 0.0, sweep_avail_min = 1.0, sweep_mttr_max = 0.0;
  std::uint64_t sweep_failures = 0, sweep_injected = 0;
  for (std::uint64_t s = 0; s < sweep_schedules; ++s) {
    const exp::ChaosFleetResult r = run_chaos_fleet_in(chaos_fleet_config(
        opt.seed + 1 + s, /*devices=*/2, /*rounds=*/5,
        work_root + "/sweep_" + std::to_string(s),
        work_root + "/traffic-sweep_" + std::to_string(s)));
    sweep_avail_sum += r.totals.availability;
    sweep_avail_min = std::min(sweep_avail_min, r.totals.availability);
    sweep_mttr_max = std::max(sweep_mttr_max, r.totals.mttr_rounds);
    sweep_failures += r.totals.failures;
    sweep_injected += r.faults.total_injected();
    std::fprintf(stderr,
                 "  [chaos] schedule %llu: avail %.4f, failures %llu, "
                 "injected %llu\n",
                 static_cast<unsigned long long>(opt.seed + 1 + s),
                 r.totals.availability,
                 static_cast<unsigned long long>(r.totals.failures),
                 static_cast<unsigned long long>(r.faults.total_injected()));
  }
  std::filesystem::remove_all(work_root);
  const double wall_seconds = watch.elapsed_seconds();

  // MTTR is "bounded" when every repair completed inside the run — the
  // supervisor closed each down interval, so MTTR can never exceed the
  // round horizon.
  const bool mttr_bounded =
      def.totals.mttr_rounds <= static_cast<double>(rounds);
  util::Table table({"chaos metric", "value"});
  table.row().cell("device-rounds").cell(
      static_cast<long long>(def.totals.rounds));
  table.row().cell("availability").cell(def.totals.availability, 4);
  table.row().cell("mttr rounds").cell(def.totals.mttr_rounds, 2);
  table.row().cell("failures").cell(static_cast<long long>(def.totals.failures));
  table.row().cell("recoveries").cell(
      static_cast<long long>(def.totals.recoveries));
  table.row().cell("faults injected").cell(
      static_cast<long long>(def.faults.total_injected()));
  table.row().cell("retry heals").cell(static_cast<long long>(retry.healed));
  table.row().cell("rung escalations").cell(
      static_cast<long long>(gov.escalations));
  table.row().cell("deterministic repeat").cell(deterministic ? "yes" : "NO");
  table.row().cell("sweep schedules").cell(
      static_cast<long long>(sweep_schedules));
  table.row().cell("sweep min avail").cell(sweep_avail_min, 4);
  std::printf("%s\n", table.to_string().c_str());

  bench::JsonWriter json;
  json.text("bench", "bench_robustness_chaos");
  json.integer("seed", static_cast<long long>(opt.seed));
  json.integer("quick", opt.quick ? 1 : 0);
  json.integer("devices", static_cast<long long>(devices));
  json.integer("rounds_per_device", static_cast<long long>(rounds));
  json.integer("device_rounds", static_cast<long long>(def.totals.rounds));
  json.number("availability", def.totals.availability);
  json.number("mttr_rounds", def.totals.mttr_rounds);
  json.integer("mttr_bounded", mttr_bounded ? 1 : 0);
  json.integer("failures", static_cast<long long>(def.totals.failures));
  json.integer("recoveries", static_cast<long long>(def.totals.recoveries));
  json.integer("deadline_misses",
               static_cast<long long>(def.totals.deadline_misses));
  json.integer("repairs", static_cast<long long>(def.totals.repairs));
  json.integer("deterministic", deterministic ? 1 : 0);
  {
    std::vector<std::pair<std::string, double>> rungs;
    for (std::size_t r = 0; r < resil::kNumRungs; ++r) {
      rungs.emplace_back(resil::to_string(static_cast<resil::Rung>(r)),
                         static_cast<double>(rung_entered[r]));
    }
    json.raw("rung_transitions", bench::json_object(rungs));
  }
  json.raw("governor",
           bench::json_object({{"observations", double(gov.observations)},
                               {"escalations", double(gov.escalations)},
                               {"recoveries", double(gov.recoveries)},
                               {"relapses", double(gov.relapses)}}));
  json.raw("retry",
           bench::json_object({{"calls", double(retry.calls)},
                               {"attempts", double(retry.attempts)},
                               {"retries", double(retry.retries)},
                               {"healed", double(retry.healed)},
                               {"exhausted", double(retry.exhausted)},
                               {"terminal", double(retry.terminal)},
                               {"backoff_us_total", retry.backoff_us_total}}));
  json.raw("faults_injected",
           bench::json_object({{"write_fails", double(def.faults.write_fails)},
                               {"truncations", double(def.faults.truncations)},
                               {"bit_flips", double(def.faults.bit_flips)},
                               {"stalls", double(def.faults.stalls)},
                               {"oom", double(def.faults.oom)},
                               {"task_fails", double(def.faults.task_fails)},
                               {"total",
                                double(def.faults.total_injected())}}));
  json.raw("sweep",
           bench::json_object(
               {{"schedules", double(sweep_schedules)},
                {"mean_availability",
                 sweep_avail_sum / double(sweep_schedules)},
                {"min_availability", sweep_avail_min},
                {"max_mttr_rounds", sweep_mttr_max},
                {"failures", double(sweep_failures)},
                {"faults_injected", double(sweep_injected)}}));
  json.number("wall_seconds", wall_seconds);

  std::filesystem::create_directories(
      std::filesystem::path(out_path).parent_path());
  if (FILE* f = std::fopen(out_path.c_str(), "w")) {
    const std::string body = json.finish();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "bench_robustness: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }

  // The acceptance contract: the default schedule sustains >= 99%
  // availability with bounded MTTR, and repeats are bit-identical.
  int status = 0;
  if (def.totals.availability < 0.99) {
    std::fprintf(stderr,
                 "bench_robustness: availability %.4f below the 0.99 bar\n",
                 def.totals.availability);
    status = 1;
  }
  if (!mttr_bounded) {
    std::fprintf(stderr, "bench_robustness: MTTR %.2f rounds is unbounded\n",
                 def.totals.mttr_rounds);
    status = 1;
  }
  if (!deterministic) {
    std::fprintf(stderr,
                 "bench_robustness: repeated schedule was NOT bit-identical\n");
    status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bool chaos = false;
  std::string out_path = "results/BENCH_robustness.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (chaos) return run_chaos_bench(opt, out_path);
  bench::print_header("Robustness (extension)",
                      "Ours vs Random under stream distortions (MedDialog)",
                      opt);

  const exp::ExperimentConfig base = bench::standard_config(opt);
  const auto& dict = lexicon::builtin_dictionary();
  data::UserOracle oracle(opt.seed * 31 + 5, dict);
  data::Generator generator(data::meddialog_profile(), oracle,
                            util::Rng(opt.seed));
  const auto dataset = generator.generate(base.stream_size, base.test_size);

  util::Rng transform_rng(opt.seed ^ 0x7a);
  std::vector<std::pair<std::string, data::DialogueStream>> variants;
  variants.emplace_back("original (bursty)", dataset.stream);
  variants.emplace_back("shuffled (iid)",
                        data::shuffled(dataset.stream, transform_rng));
  variants.emplace_back("reversed", data::reversed(dataset.stream));
  {
    util::Rng noise_rng(opt.seed ^ 0x17);
    variants.emplace_back(
        "50% extra noise",
        data::inject_noise(dataset.stream, 0.5, oracle, noise_rng));
  }

  util::Table table({"stream variant", "sets", "Ours", "Random", "margin"});
  for (const auto& [name, stream] : variants) {
    const double ours = run_on_stream(opt, "Ours", stream, dataset.test, oracle);
    const double rnd = run_on_stream(opt, "Random", stream, dataset.test, oracle);
    table.row()
        .cell(name)
        .cell(static_cast<long long>(stream.size()))
        .cell(ours, 4)
        .cell(rnd, 4)
        .cell(ours - rnd, 4);
    std::fprintf(stderr, "  [robustness] %s: ours %.4f random %.4f\n",
                 name.c_str(), ours, rnd);
  }
  std::printf("%s\n", table.to_string().c_str());

  report_checkpoint_overhead(opt, dataset.stream, oracle);
  return 0;
}
