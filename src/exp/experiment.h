// Shared experiment harness for the benchmark binaries.
//
// One ExperimentConfig fully determines a run: dataset profile, selection
// method, buffer size, stream/fine-tune schedule, model geometry, and seed.
// All stochastic inputs derive from the seed, so two runs that differ only
// in `method` see the *same* user, the same stream, the same base model
// checkpoint, and the same evaluation subset — the comparisons in the
// paper's tables are therefore apples-to-apples.
//
// The loop itself lives in fleet/user_session.h: run_experiment is one
// UserSession run chunk by chunk, and keeps only the run-level outputs
// (trace, metrics dump, journal, training time).
//
// Base model: the paper personalizes a *pretrained* Llama-3B. The harness
// reproduces "deployed generic LLM" by pretraining MiniLlm once on generic
// assistant dialogue (questions from all domains answered with boilerplate,
// no user style) and caching the checkpoint on disk, keyed by the
// configuration; every experiment then clones that checkpoint.
#pragma once

#include <memory>
#include <string>

#include "core/engine.h"
#include "core/sanity_check.h"
#include "core/weighted_policy.h"
#include "core/policy.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "eval/learning_curve.h"
#include "llm/minillm.h"
#include "text/tokenizer.h"

namespace odlp::exp {

struct ExperimentConfig {
  std::string dataset = "MedDialog";
  // "Ours", "Random", "FIFO", "K-Center", "EOE", "DSS", "IDD",
  // "WeightedSum" (design-ablation alternative to Pareto dominance).
  std::string method = "Ours";

  // --- design-ablation knobs (DESIGN.md §6) ---
  // Embedding source for the quality metrics: "llm" (last hidden layer,
  // paper-faithful) or "bow" (hashed bag of words — cheap fallback).
  std::string embedding_source = "llm";
  // Synthesis sanity check: kRejectBelow keeps semantically similar outputs
  // (paper intent, default); kRejectAbove is the paper's literal wording.
  core::SanityCheckMode sanity_mode = core::SanityCheckMode::kRejectBelow;
  double sanity_threshold = 0.35;
  // Maximum user-annotation requests (0 = annotate every selected set).
  std::size_t annotation_budget = 0;

  std::size_t buffer_bins = 32;
  std::size_t stream_size = 320;
  std::size_t test_size = 600;        // held-out pool (the paper's 90%)
  std::size_t eval_subset = 24;       // sets evaluated per checkpoint
  std::size_t eval_repeats = 1;       // sampler seeds averaged per evaluation (must be >= 1)
  std::size_t finetune_interval = 80; // paper: 800 (scaled with the stream)
  std::size_t synth_per_set = 3;
  std::size_t epochs = 20;            // paper: 100 (scaled with model size)
  float learning_rate = 1e-2f;        // LoRA lr for the scaled-down model
  std::size_t batch_size = 16;

  // Model geometry (MiniLlm stand-in for Llama-3B; DESIGN.md §2).
  bool use_rmsnorm = false;  // Llama-style RMSNorm variant
  std::size_t model_dim = 48;
  std::size_t model_heads = 4;
  std::size_t model_layers = 2;
  std::size_t model_ff = 96;
  std::size_t max_seq_len = 64;

  // Base-model pretraining (the "deployed generic LLM").
  std::size_t pretrain_examples = 240;
  std::size_t pretrain_epochs = 6;
  // Directory for cached base checkpoints ("" disables caching).
  std::string cache_dir = "/tmp/odlp_cache";

  bool record_curve = true;   // evaluate at every fine-tune round
  // Generation temperature for evaluation. The paper fixes τ = 0.5; with a
  // miniature model and small evaluation subsets the sampling variance at
  // τ = 0.5 can swamp the method differences, so benches may lower it
  // (τ < 1e-4 is greedy decoding).
  float eval_temperature = 0.5f;
  std::uint64_t seed = 42;
  // Base-model init/pretraining seed override (0 = derive from `seed` as
  // seed*7919+17). The fleet scheduler sets this so every user in a run
  // personalizes the *same* deployed base checkpoint while keeping distinct
  // per-user data/method seeds; single experiments leave it at 0.
  std::uint64_t base_seed = 0;

  // --- traffic record/replay (DESIGN.md §14) ---
  // When traffic_replay_path names an OBSF recording (io/stream_capture),
  // the dataset is read back from it instead of being generated — bit-
  // identical to the recorded run, so benches and the chaos harness replay
  // the same traffic many times without paying generation cost. When
  // traffic_record_path is set, the generated dataset is recorded there
  // after generation. At most one of the two may be set.
  std::string traffic_record_path;
  std::string traffic_replay_path;

  // --- observability (DESIGN.md §10) ---
  // When non-empty, run_experiment dumps the global metrics registry as JSON
  // to this path at the end of the run.
  std::string metrics_out;
  // When non-empty, enables trace-span recording at the start of the run and
  // flushes Chrome Trace Event Format JSON (Perfetto-loadable) to this path
  // at the end. Equivalent to setting ODLP_TRACE=<path> in the environment.
  std::string trace_out;
  // When non-empty, an OBSF metrics journal (obs/journal.h) is written to
  // this path: one full_snapshot() before the stream, one after every chunk
  // (a fine-tune interval of the stream and its evaluations), and one at
  // the end of the run.
  std::string journal_out;
};

// Ground-truth composition of the final buffer (diagnostics only — the
// selection algorithms never see these fields).
struct BufferComposition {
  std::size_t size = 0;
  std::size_t noise = 0;               // uninformative sets retained
  std::size_t distinct_subtopics = 0;  // distinct (domain, subtopic) pairs
  std::size_t distinct_domains = 0;
};

BufferComposition buffer_composition(const core::DataBuffer& buffer);

struct ExperimentResult {
  std::string dataset;
  std::string method;
  double final_rouge = 0.0;
  // Per-set ROUGE-1 of the final model over the shared evaluation subset —
  // aligned across methods under the same seed, so eval::paired_bootstrap
  // applies directly.
  std::vector<double> final_per_set;
  eval::LearningCurve curve{""};
  core::EngineStats engine_stats;
  BufferComposition buffer;
  std::size_t annotation_requests = 0;
  double wall_seconds = 0.0;
  double train_wall_seconds = 0.0;
  double last_seconds_per_epoch = 0.0;
};

// Instantiate a policy by method name (throws std::invalid_argument).
std::unique_ptr<core::ReplacementPolicy> make_policy(const std::string& method);

// Build the fixed on-device tokenizer (vocabulary from the lexicon
// dictionary + phrase pools, frozen).
text::Tokenizer make_device_tokenizer();

// Model geometry from an experiment config + tokenizer.
llm::ModelConfig make_model_config(const ExperimentConfig& config,
                                   const text::Tokenizer& tokenizer);

// Seed of the deployed base model: base_seed, or seed*7919+17 when
// base_seed == 0. (Every per-user seed derives in fleet::make_user_session.)
std::uint64_t experiment_base_seed(const ExperimentConfig& config);

// The EngineConfig a user session runs with.
core::EngineConfig make_engine_config(const ExperimentConfig& config);

// Pretrain (or load from cache) the generic base model.
std::unique_ptr<llm::MiniLlm> make_base_model(const ExperimentConfig& config,
                                              const text::Tokenizer& tokenizer);

// A user's traffic: generated through `oracle` from a seed derived from
// (seed, dataset), or replayed bit-identically from
// config.traffic_replay_path; a generated dataset is recorded to
// config.traffic_record_path when set. Defined in fleet/user_session.cpp,
// next to the session's other seed derivations.
data::GeneratedDataset make_experiment_dataset(const ExperimentConfig& config,
                                               data::UserOracle& oracle);

// Runs the full pipeline for one (dataset, method) cell: one
// fleet::UserSession, chunk by chunk, with its evaluations flushed after
// every chunk at EngineConfig::decode_batch width.
ExperimentResult run_experiment(const ExperimentConfig& config);

// All method names of the paper's main comparison, in table order.
const std::vector<std::string>& main_methods();     // Random FIFO K-Center Ours
const std::vector<std::string>& ablation_methods(); // EOE DSS IDD Ours

}  // namespace odlp::exp
