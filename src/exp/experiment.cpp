#include "exp/experiment.h"

#include <set>
#include <stdexcept>
#include <sys/stat.h>

#include "baselines/fifo_policy.h"
#include "baselines/kcenter_policy.h"
#include "baselines/random_policy.h"
#include "baselines/single_metric_policy.h"
#include "data/generator.h"
#include "data/phrase_pools.h"
#include "fleet/user_session.h"
#include "llm/trainer.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace odlp::exp {

namespace {

// Learning rate of the base model's full-parameter pretraining.
constexpr float kPretrainLearningRate = 3e-3f;

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

std::unique_ptr<core::ReplacementPolicy> make_policy(const std::string& method) {
  if (method == "Ours") return std::make_unique<core::QualityReplacementPolicy>();
  if (method == "WeightedSum") return std::make_unique<core::WeightedSumPolicy>();
  if (method == "Random") return std::make_unique<baselines::RandomReplacePolicy>();
  if (method == "FIFO") return std::make_unique<baselines::FifoReplacePolicy>();
  if (method == "K-Center") return std::make_unique<baselines::KCenterPolicy>();
  if (method == "EOE") {
    return std::make_unique<baselines::SingleMetricPolicy>(
        baselines::SingleMetric::kEoe);
  }
  if (method == "DSS") {
    return std::make_unique<baselines::SingleMetricPolicy>(
        baselines::SingleMetric::kDss);
  }
  if (method == "IDD") {
    return std::make_unique<baselines::SingleMetricPolicy>(
        baselines::SingleMetric::kIdd);
  }
  throw std::invalid_argument("unknown selection method: " + method);
}

text::Tokenizer make_device_tokenizer() {
  text::Vocab vocab;
  for (const auto& w : data::vocabulary_words(lexicon::builtin_dictionary())) {
    vocab.add(w);
  }
  vocab.freeze();
  return text::Tokenizer(std::move(vocab));
}

llm::ModelConfig make_model_config(const ExperimentConfig& config,
                                   const text::Tokenizer& tokenizer) {
  llm::ModelConfig mc;
  mc.vocab_size = tokenizer.vocab().size();
  mc.dim = config.model_dim;
  mc.heads = config.model_heads;
  mc.layers = config.model_layers;
  mc.ff_hidden = config.model_ff;
  mc.max_seq_len = config.max_seq_len;
  mc.use_rmsnorm = config.use_rmsnorm;
  return mc;
}

std::uint64_t experiment_base_seed(const ExperimentConfig& config) {
  return config.base_seed != 0 ? config.base_seed : config.seed * 7919 + 17;
}

core::EngineConfig make_engine_config(const ExperimentConfig& config) {
  core::EngineConfig ec;
  ec.buffer_bins = config.buffer_bins;
  ec.finetune_interval = config.finetune_interval;
  ec.synth_per_set = config.synth_per_set;
  ec.max_seq_len = config.max_seq_len;
  ec.annotation_budget = config.annotation_budget;
  ec.train.epochs = config.epochs;
  ec.train.batch_size = config.batch_size;
  ec.train.learning_rate = config.learning_rate;
  ec.sampler.temperature = config.eval_temperature;
  ec.sampler.max_new_tokens = 16;
  return ec;
}

std::unique_ptr<llm::MiniLlm> make_base_model(const ExperimentConfig& config,
                                              const text::Tokenizer& tokenizer) {
  const llm::ModelConfig mc = make_model_config(config, tokenizer);
  // Base init seed deliberately excludes `method`: all methods start from
  // the identical deployed model.
  const std::uint64_t base_seed = experiment_base_seed(config);
  auto model = std::make_unique<llm::MiniLlm>(mc, base_seed);

  const std::string cache_path =
      config.cache_dir.empty()
          ? ""
          : util::format(
                "%s/base_v%zu_d%zu_l%zu_h%zu_f%zu_s%zu_p%zu_e%zu_%s_%llu.bin",
                config.cache_dir.c_str(), mc.vocab_size, mc.dim, mc.layers,
                mc.heads, mc.ff_hidden, mc.max_seq_len,
                config.pretrain_examples, config.pretrain_epochs,
                mc.use_rmsnorm ? "rms" : "ln",
                static_cast<unsigned long long>(base_seed));
  if (!cache_path.empty() && file_exists(cache_path)) {
    model->load(cache_path);
    return model;
  }

  // Pretraining corpus: generic dialogue over every domain/subtopic (the
  // assistant's un-personalized behaviour) + filler smalltalk. No user style
  // appears here.
  util::Rng rng(base_seed ^ 0xbade5eedull);
  const auto& dict = lexicon::builtin_dictionary();
  data::UserOracle pretrain_oracle(base_seed ^ 0x0f0f0f0full, dict);
  data::DatasetProfile generic;
  generic.name = "pretrain";
  for (const auto& domain : dict.domains()) generic.domain_mix.push_back({domain.name(), 1.0});
  generic.noise_rate = 0.3;
  generic.burst_length = 1;
  data::Generator gen(generic, pretrain_oracle, rng.split());

  std::vector<text::Tokenizer::EncodedDialogue> corpus;
  for (std::size_t i = 0; i < config.pretrain_examples; ++i) {
    data::DialogueSet set;
    if (rng.bernoulli(generic.noise_rate)) {
      set = gen.make_noise();
    } else {
      const auto d = rng.uniform_index(dict.num_domains());
      const auto s = rng.uniform_index(dict.domain(d).sublexicons().size());
      set = gen.make_informative(d, s);
    }
    // Pretraining supervises the full sequence (plain next-token LM) and the
    // *generic* answer — the deployed model knows language, not the user.
    corpus.push_back(tokenizer.encode_dialogue(set.question, set.answer,
                                               config.max_seq_len,
                                               /*supervise_question=*/true));
  }

  llm::TrainConfig tc;
  tc.epochs = config.pretrain_epochs;
  tc.batch_size = config.batch_size;
  tc.learning_rate = kPretrainLearningRate;
  llm::Trainer trainer(*model, tc, rng.split());
  const llm::TrainStats stats = trainer.fine_tune(corpus);
  util::log_info(util::format(
      "pretrained base model: loss %.3f -> %.3f (%.1fs)", stats.first_epoch_loss,
      stats.final_epoch_loss, stats.wall_seconds));

  if (!cache_path.empty()) {
    ::mkdir(config.cache_dir.c_str(), 0755);
    model->save(cache_path);
  }
  return model;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  util::Stopwatch watch;
  if (!config.trace_out.empty()) obs::enable_tracing(config.trace_out);
  // The registry is process-global and may carry counts from earlier runs in
  // the same process; per-run training time is the delta over this run.
  const std::uint64_t train_us_before =
      obs::registry().counter("train.wall_us.total").value();

  const text::Tokenizer tokenizer = make_device_tokenizer();
  // The pretrained base stays adapter-free and decodes every evaluation
  // (adapter snapshots ride along as overlays); a LoRA-attached clone of it
  // runs the rounds.
  fleet::FleetModels models = fleet::make_fleet_models(config, tokenizer, 1);
  llm::MiniLlm& base = *models.base;
  fleet::WorkerContext& worker = models.workers.front();
  const core::EngineConfig ec = make_engine_config(config);
  fleet::AdapterState adapter = fleet::initial_adapter_state(*worker.model);

  std::vector<fleet::EvalJob> jobs;
  const fleet::EvalSink sink = [&](fleet::EvalJob job) {
    jobs.push_back(std::move(job));
  };
  std::vector<std::unique_ptr<fleet::UserSession>> sessions;
  sessions.push_back(fleet::make_user_session(0, config, worker, sink));
  fleet::UserSession& session = *sessions.front();

  // Metrics journal: a full_snapshot() row-set before the stream, after
  // every chunk, and at the end — the single-device twin of the fleet
  // scheduler's wave-boundary journal.
  std::unique_ptr<obs::JournalWriter> journal;
  if (!config.journal_out.empty()) {
    journal = std::make_unique<obs::JournalWriter>(config.journal_out);
  }
  const auto flush = [&] {
    fleet::flush_evals(std::move(jobs), sessions, base, tokenizer,
                       ec.decode_batch);
    jobs.clear();
    if (journal) {
      journal->append(obs::full_snapshot(),
                      static_cast<std::uint64_t>(watch.elapsed_seconds() * 1e6));
    }
  };

  flush();  // the baseline curve point
  while (!session.work_done) {
    fleet::run_user_chunk(session, worker, tokenizer, adapter, sink);
    flush();
  }

  ExperimentResult result = std::move(session.result);
  result.train_wall_seconds =
      static_cast<double>(
          obs::registry().counter("train.wall_us.total").value() -
          train_us_before) /
      1e6;
  result.last_seconds_per_epoch =
      obs::registry().gauge("train.seconds_per_epoch.last").value();
  result.wall_seconds = watch.elapsed_seconds();
  if (journal) {
    journal->append(obs::full_snapshot(),
                    static_cast<std::uint64_t>(result.wall_seconds * 1e6));
    journal->finish();
  }
  if (!config.metrics_out.empty()) obs::write_metrics_json(config.metrics_out);
  if (!config.trace_out.empty()) obs::flush_trace();
  return result;
}

BufferComposition buffer_composition(const core::DataBuffer& buffer) {
  BufferComposition comp;
  comp.size = buffer.size();
  std::set<std::pair<int, int>> subtopics;
  std::set<int> domains;
  for (const auto& entry : buffer.entries()) {
    if (entry.set.is_noise) {
      ++comp.noise;
    } else {
      subtopics.emplace(entry.set.true_domain, entry.set.true_subtopic);
      domains.insert(entry.set.true_domain);
    }
  }
  comp.distinct_subtopics = subtopics.size();
  comp.distinct_domains = domains.size();
  return comp;
}

const std::vector<std::string>& main_methods() {
  static const std::vector<std::string> methods = {"Random", "FIFO", "K-Center",
                                                   "Ours"};
  return methods;
}

const std::vector<std::string>& ablation_methods() {
  static const std::vector<std::string> methods = {"EOE", "DSS", "IDD", "Ours"};
  return methods;
}

}  // namespace odlp::exp
