// PersonalizationEngine: the end-to-end on-device personalization framework
// (paper Fig. 1).
//
// For every dialogue set arriving from the user↔LLM interaction stream:
//   1. score it with the self-supervised quality metrics (embedding from the
//      LLM's last hidden layer, EOE/DSS/IDD against the buffer),
//   2. offer it to the replacement policy (ours or a baseline),
//   3. on admission, ask the user for the preferred response and store the
//      annotated set in the buffer.
// Every `finetune_interval` streamed sets, the engine synthesizes additional
// semantically-similar sets from the buffer contents and LoRA-fine-tunes the
// model on selected + synthesized data. Evaluation generates responses for
// held-out questions at τ = 0.5 and reports mean ROUGE-1 against the
// references.
#pragma once

#include <memory>
#include <vector>

#include "core/buffer.h"
#include "core/policy.h"
#include "core/synthesizer.h"
#include "data/dialogue.h"
#include "data/user_oracle.h"
#include "llm/embedding_extractor.h"
#include "llm/minillm.h"
#include "llm/sampler.h"
#include "llm/trainer.h"
#include "nn/lora_overlay.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace odlp::core {

struct EngineConfig {
  std::size_t buffer_bins = 32;
  std::size_t finetune_interval = 100;  // paper: every 800 streamed sets
  std::size_t synth_per_set = 3;        // paper default: 3 additional sets
  std::size_t max_seq_len = 64;         // token budget per encoded dialogue
  // Maximum user-annotation requests over the engine's lifetime (0 =
  // unlimited). Once exhausted, admitted sets keep the LLM's own response —
  // an even stricter sparse-annotation regime than the paper's
  // annotate-on-selection (exercised by the annotation-budget ablation).
  std::size_t annotation_budget = 0;
  nn::LoraConfig lora;                  // r=8, α=16, dropout=0.05 (paper)
  llm::TrainConfig train;
  llm::SamplerConfig sampler;           // τ=0.5 evaluation generation (paper)
  // Continuous-batching width for evaluation/synthesis generation: up to
  // this many KV-cached sessions share each batched forward step (1 =
  // serial decoding; outputs are bit-identical at every width).
  std::size_t decode_batch = 4;
  // Precision for the model's inference-time forwards (synthesis,
  // evaluation, embedding extraction). kInt8 quantizes the frozen base
  // weights at engine construction; training math stays fp32 either way.
  nn::InferencePrecision inference_precision = nn::InferencePrecision::kFp32;
  // Fine-tune rounds run only while this is set; the resource governor
  // clears it at the kSkipFinetune rung (resil::apply_decision). Skipped
  // rounds are counted in EngineStats::finetune_skipped.
  bool finetune_enabled = true;
};

struct EngineStats {
  std::size_t seen = 0;
  std::size_t admitted_free = 0;
  std::size_t admitted_replacing = 0;
  std::size_t rejected = 0;
  // Malformed inputs turned away before scoring/selection could see them:
  // empty or oversized dialogue sets, and sets whose embedding or quality
  // scores came back non-finite (would otherwise poison EOE/IDD and every
  // buffered comparison).
  std::size_t quarantined = 0;
  std::size_t annotations_made = 0;
  std::size_t annotations_skipped = 0;  // budget exhausted at admission
  std::size_t finetune_rounds = 0;
  // Fine-tune rounds skipped because the resource governor disabled
  // training (kSkipFinetune rung); selection and annotation kept running.
  std::size_t finetune_skipped = 0;
  SynthesisStats synthesis;
  std::size_t synthesized_used = 0;   // synthetic sets fed to fine-tuning
  double last_train_loss = 0.0;
  // Wall-clock timings live in the obs metrics registry, not here:
  // train.wall_us.total (counter) and train.seconds_per_epoch.last (gauge)
  // — see DESIGN.md §10. CheckpointManager persists a registry snapshot per
  // generation, so cumulative timings survive reboots alongside the stats.
};

// One evaluation for evaluate_requests: per-set ROUGE-1 over `sets`, each
// score the mean over `repeats` sampled responses. `overlay`, when set,
// applies one user's adapter snapshot to this request's rows (the model
// must then be an adapter-free base; see llm::BatchedDecodeScheduler).
struct EvalRequest {
  const std::vector<const data::DialogueSet*>* sets = nullptr;
  std::size_t repeats = 1;
  llm::SamplerConfig sampler;
  const nn::LoraOverlaySet* overlay = nullptr;  // borrowed
};

struct EvalDecodeStats {
  std::size_t steps = 0;           // batched forward steps
  std::size_t peak_occupancy = 0;  // most sessions in one step
};

// The evaluation protocol — the one scoring loop behind
// PersonalizationEngine::evaluate_per_set and the fleet's eval flush
// (fleet::flush_evals). Every generation of every request shares one
// BatchedDecodeScheduler of width `decode_batch`. The repeats of one
// (request, set) share prompt and adapter, so they are submitted as one
// shared-prefix group with the fixed sampler seeds
// 0xE7A1 + r*7919 + i*0x9E3779B9 (r = repeat, i = set index). Fixed seeds
// make each score independent of the batch width, of the other requests,
// and of the user's training state. Returns one score vector per request,
// aligned with its sets; `stats`, when set, receives the decode counts.
std::vector<std::vector<double>> evaluate_requests(
    llm::MiniLlm& model, const text::Tokenizer& tokenizer,
    const std::vector<EvalRequest>& requests, std::size_t decode_batch,
    EvalDecodeStats* stats = nullptr);

class PersonalizationEngine {
 public:
  PersonalizationEngine(llm::MiniLlm& model, const text::Tokenizer& tokenizer,
                        llm::EmbeddingExtractor& extractor,
                        data::UserOracle& oracle,
                        const lexicon::LexiconDictionary& dict,
                        std::unique_ptr<ReplacementPolicy> policy,
                        std::unique_ptr<Synthesizer> synthesizer,
                        const EngineConfig& config, util::Rng rng);

  // Score a dialogue set against the current buffer (no side effects).
  Candidate score(const data::DialogueSet& set);

  // One stream step: ingest(set), then fine-tuning on the configured
  // interval. Returns true if the set was admitted.
  bool process(const data::DialogueSet& set);

  // score → policy → (annotate + store), without the interval fine-tune.
  // Returns true if the set was admitted. An injected "engine.process" task
  // fault and an injected "buffer" allocation fault both fire before
  // anything is counted or offered, so a retried call sees the set once.
  bool ingest(const data::DialogueSet& set);

  // Consume an entire stream.
  void run_stream(const data::DialogueStream& stream);

  // Synthesize from the buffer and fine-tune immediately. A no-op (counted
  // in stats().finetune_skipped) while config().finetune_enabled is off.
  void finetune_now();

  // Mean ROUGE-1 of generated responses against references over `test`.
  // `repeats` averages over that many independent sampler seeds to damp the
  // τ=0.5 sampling variance (1 = single pass, the paper's protocol).
  double evaluate(const std::vector<const data::DialogueSet*>& test,
                  std::size_t repeats = 1);

  // Per-set ROUGE-1 scores (mean over `repeats` sampler seeds), aligned with
  // `test`: one evaluate_requests call on this engine's model, at
  // decode_batch width. Input to eval::paired_bootstrap / sign tests when
  // comparing two engines evaluated on the identical subset.
  std::vector<double> evaluate_per_set(
      const std::vector<const data::DialogueSet*>& test,
      std::size_t repeats = 1);

  // Peak number of simultaneously-live KV-cached decode sessions in the
  // most recent evaluation (1 before any evaluation ran). The devicesim
  // memory ledger multiplies its KV-cache term by this occupancy.
  std::size_t decode_kv_sessions() const { return last_decode_occupancy_; }

  const DataBuffer& buffer() const { return buffer_; }

  // Replaces the engine's buffer with a previously persisted one (device
  // reboot restore; see core/buffer_io.h). The restored buffer's capacity
  // must equal the configured bin count — throws std::invalid_argument
  // otherwise.
  void restore_buffer(DataBuffer buffer);
  const EngineStats& stats() const { return stats_; }
  const ReplacementPolicy& policy() const { return *policy_; }
  const EngineConfig& config() const { return config_; }
  llm::Trainer& trainer() { return trainer_; }

  // --- Fleet state-swap surface (src/fleet/) ---
  // A worker engine is a reusable shell: fleet::run_user_chunk moves each
  // user's mutable state (buffer, stats, policy, synthesizer, rngs,
  // optimizer moments, adapter values) in and out so any worker resumes
  // any user bit-identically to a dedicated engine.
  util::Rng& rng() { return rng_; }
  void set_stats(const EngineStats& stats) { stats_ = stats; }
  DataBuffer take_buffer() { return std::move(buffer_); }
  std::unique_ptr<ReplacementPolicy> take_policy() {
    return std::move(policy_);
  }
  std::unique_ptr<Synthesizer> take_synthesizer() {
    return std::move(synthesizer_);
  }

 private:
  llm::MiniLlm& model_;
  const text::Tokenizer& tokenizer_;
  llm::EmbeddingExtractor& extractor_;
  data::UserOracle& oracle_;
  const lexicon::LexiconDictionary& dict_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::unique_ptr<Synthesizer> synthesizer_;
  EngineConfig config_;
  util::Rng rng_;
  DataBuffer buffer_;
  llm::Trainer trainer_;
  EngineStats stats_;
  std::size_t last_decode_occupancy_ = 1;
};

}  // namespace odlp::core
