#include "core/engine.h"

#include <algorithm>
#include <cmath>

#include "eval/rouge.h"
#include "llm/batch_decode.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "text/normalize.h"
#include "util/fault.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace odlp::core {

namespace {

// Ceiling on one dialogue set's raw text; anything larger is hostile or
// corrupt input (the tokenizer would truncate to max_seq_len anyway, but
// scoring still walks the full text).
constexpr std::size_t kMaxDialogueBytes = 1 << 16;  // 64 KiB

bool all_finite(const tensor::Tensor& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(t.data()[i])) return false;
  }
  return true;
}

}  // namespace

PersonalizationEngine::PersonalizationEngine(
    llm::MiniLlm& model, const text::Tokenizer& tokenizer,
    llm::EmbeddingExtractor& extractor, data::UserOracle& oracle,
    const lexicon::LexiconDictionary& dict,
    std::unique_ptr<ReplacementPolicy> policy,
    std::unique_ptr<Synthesizer> synthesizer, const EngineConfig& config,
    util::Rng rng)
    : model_(model),
      tokenizer_(tokenizer),
      extractor_(extractor),
      oracle_(oracle),
      dict_(dict),
      policy_(std::move(policy)),
      synthesizer_(std::move(synthesizer)),
      config_(config),
      rng_(rng),
      buffer_(config.buffer_bins),
      trainer_(model, config.train, rng_.split()) {
  if (!model_.has_lora()) model_.attach_lora(config_.lora);
  if (config_.inference_precision != model_.inference_precision()) {
    model_.set_inference_precision(config_.inference_precision);
  }
}

Candidate PersonalizationEngine::score(const data::DialogueSet& set) {
  ODLP_TRACE_SCOPE("engine.score");
  static obs::Histogram& h_score = obs::registry().histogram("engine.score.us");
  static obs::Histogram& h_embed =
      obs::registry().histogram("engine.score.embed_us");
  static obs::Histogram& h_eoe = obs::registry().histogram("engine.score.eoe_us");
  static obs::Histogram& h_dss = obs::registry().histogram("engine.score.dss_us");
  static obs::Histogram& h_idd = obs::registry().histogram("engine.score.idd_us");
  util::Stopwatch total;

  Candidate cand;
  cand.set = &set;
  const std::string block = set.text_block();
  // One normalization pass feeds both the lexicon metrics and the embedding
  // extractor (which previously re-tokenized the block internally).
  const auto tokens = text::normalize_and_split(block);

  util::Stopwatch sw;
  tensor::Tensor token_embs;
  {
    ODLP_TRACE_SCOPE("engine.score.embed");
    token_embs = extractor_.token_embeddings(tokens);
    cand.embedding = tensor::mean_rows(token_embs);
  }
  h_embed.record(sw.elapsed_seconds() * 1e6);

  sw.reset();
  {
    ODLP_TRACE_SCOPE("engine.score.eoe");
    cand.scores.eoe = entropy_of_embedding(token_embs);
  }
  h_eoe.record(sw.elapsed_seconds() * 1e6);

  sw.reset();
  {
    ODLP_TRACE_SCOPE("engine.score.dss");
    cand.scores.dss = domain_specific_score(tokens, dict_);
    cand.dominant_domain = dominant_domain(tokens, dict_);
  }
  h_dss.record(sw.elapsed_seconds() * 1e6);

  sw.reset();
  {
    ODLP_TRACE_SCOPE("engine.score.idd");
    if (cand.dominant_domain) {
      // Incremental IDD: buffered norms are cached, the candidate's norm is
      // computed once, each cosine costs a single dot product.
      const double norm = std::sqrt(tensor::sum_squares(cand.embedding));
      cand.scores.idd = in_domain_dissimilarity_cached(
          cand.embedding, norm,
          buffer_.normed_embeddings_in_domain(*cand.dominant_domain));
    } else {
      // No lexicon overlap at all: the set carries no recognizable domain
      // content, so it brings no in-domain novelty.
      cand.scores.idd = 0.0;
    }
  }
  h_idd.record(sw.elapsed_seconds() * 1e6);
  h_score.record(total.elapsed_seconds() * 1e6);
  return cand;
}

bool PersonalizationEngine::process(const data::DialogueSet& set) {
  const bool admitted = ingest(set);
  if (config_.finetune_interval > 0 && stats_.seen % config_.finetune_interval == 0) {
    finetune_now();
  }
  return admitted;
}

bool PersonalizationEngine::ingest(const data::DialogueSet& set) {
  // Chaos-harness fault boundary: both injected faults fire before any
  // stats/policy/buffer mutation, so an aborted-and-retried call counts and
  // offers the set once. The "buffer" allocation stands for the bin a set
  // may need in the buffer.
  util::fault::on_task("engine.process");
  util::fault::on_alloc("buffer", devicesim::paper_bin_spec().bytes());
  ODLP_TRACE_SCOPE("engine.process");
  static obs::Counter& c_seen = obs::registry().counter("engine.seen.sets");
  static obs::Counter& c_quarantine =
      obs::registry().counter("engine.offer.quarantine");
  static obs::Counter& c_accept = obs::registry().counter("engine.offer.accept");
  static obs::Counter& c_reject = obs::registry().counter("engine.offer.reject");
  static obs::Counter& c_admit_free =
      obs::registry().counter("engine.admit.free");
  static obs::Counter& c_admit_replace =
      obs::registry().counter("engine.admit.replace");
  static obs::Histogram& h_offer = obs::registry().histogram("engine.offer.us");
  ++stats_.seen;
  c_seen.inc();

  // Graceful degradation: malformed sets are quarantined (counted, logged)
  // instead of reaching the metrics, the policy, or the buffer.
  if (set.question.empty() || set.answer.empty()) {
    ++stats_.quarantined;
    c_quarantine.inc();
    util::log_warn("engine: quarantined empty dialogue set at stream position " +
                   std::to_string(set.stream_position));
    return false;
  }
  if (set.question.size() + set.answer.size() + set.reference.size() >
      kMaxDialogueBytes) {
    ++stats_.quarantined;
    c_quarantine.inc();
    util::log_warn("engine: quarantined oversized dialogue set at stream "
                   "position " + std::to_string(set.stream_position));
    return false;
  }

  Candidate cand = score(set);

  // A NaN/Inf embedding or score would propagate into every subsequent
  // EOE/IDD comparison through the buffer; quarantine instead.
  if (!all_finite(cand.embedding) || !std::isfinite(cand.scores.eoe) ||
      !std::isfinite(cand.scores.dss) || !std::isfinite(cand.scores.idd)) {
    ++stats_.quarantined;
    c_quarantine.inc();
    util::log_warn("engine: quarantined non-finite embedding/scores at stream "
                   "position " + std::to_string(set.stream_position));
    return false;
  }
  util::Stopwatch offer_sw;
  Decision decision;
  {
    ODLP_TRACE_SCOPE("engine.replacement");
    decision = policy_->offer(cand, buffer_, rng_);
  }
  h_offer.record(offer_sw.elapsed_seconds() * 1e6);

  bool admitted = false;
  if (decision.admit) {
    BufferEntry entry;
    entry.set = set;
    // Ask the user for the preferred response and replace the LLM-generated
    // answer before the set enters the buffer (paper §3.2) — unless the
    // annotation budget is exhausted, in which case the set is stored as-is.
    if (config_.annotation_budget == 0 ||
        stats_.annotations_made < config_.annotation_budget) {
      entry.set.answer = oracle_.annotate(set);
      entry.annotated = true;
      ++stats_.annotations_made;
    } else {
      entry.annotated = false;
      ++stats_.annotations_skipped;
    }
    // The candidate is dead after this branch, so its embedding moves
    // instead of copying [1, D] floats.
    entry.embedding = std::move(cand.embedding);
    entry.dominant_domain = cand.dominant_domain;
    entry.scores = cand.scores;
    entry.inserted_at = stats_.seen;
    if (decision.victim) {
      buffer_.replace(*decision.victim, std::move(entry));
      ++stats_.admitted_replacing;
      c_admit_replace.inc();
    } else {
      buffer_.add(std::move(entry));
      ++stats_.admitted_free;
      c_admit_free.inc();
    }
    c_accept.inc();
    admitted = true;
  } else {
    ++stats_.rejected;
    c_reject.inc();
  }
  return admitted;
}

void PersonalizationEngine::restore_buffer(DataBuffer buffer) {
  if (buffer.capacity() != config_.buffer_bins) {
    throw std::invalid_argument(
        "restore_buffer: capacity mismatch with configured buffer_bins");
  }
  buffer_ = std::move(buffer);
}

void PersonalizationEngine::run_stream(const data::DialogueStream& stream) {
  for (const auto& set : stream) process(set);
}

void PersonalizationEngine::finetune_now() {
  util::fault::on_task("engine.finetune");
  if (!config_.finetune_enabled) {
    ++stats_.finetune_skipped;
    return;
  }
  if (buffer_.empty()) return;
  ODLP_TRACE_SCOPE("engine.finetune");
  static obs::Histogram& h_finetune =
      obs::registry().histogram("engine.finetune.us");
  static obs::Histogram& h_synth =
      obs::registry().histogram("engine.synthesize.us");
  util::Stopwatch total;

  // Stage 2 (paper §3.3): synthesis happens right before fine-tuning.
  std::vector<text::Tokenizer::EncodedDialogue> examples;
  examples.reserve(buffer_.size() * (1 + config_.synth_per_set));
  {
    ODLP_TRACE_SCOPE("engine.synthesize");
    util::Stopwatch synth_sw;
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
      const BufferEntry& entry = buffer_.entry(i);
      examples.push_back(tokenizer_.encode_dialogue(
          entry.set.question, entry.set.answer, config_.max_seq_len));
      if (synthesizer_ && config_.synth_per_set > 0) {
        const auto synthetic = synthesizer_->synthesize(
            entry.set, config_.synth_per_set, &stats_.synthesis);
        for (const auto& syn : synthetic) {
          examples.push_back(tokenizer_.encode_dialogue(
              syn.question, syn.answer, config_.max_seq_len));
          ++stats_.synthesized_used;
        }
      }
    }
    h_synth.record(synth_sw.elapsed_seconds() * 1e6);
  }

  const llm::TrainStats train = trainer_.fine_tune(examples);
  // Under LoRA the quantized base is untouched by training, but a full
  // fine-tune mutates it; re-snapshot either way (no-op at fp32).
  model_.refresh_quantized_weights();
  ++stats_.finetune_rounds;
  stats_.last_train_loss = train.final_epoch_loss;
  h_finetune.record(total.elapsed_seconds() * 1e6);
}

double PersonalizationEngine::evaluate(
    const std::vector<const data::DialogueSet*>& test, std::size_t repeats,
    std::optional<nn::InferencePrecision> precision) {
  if (test.empty() || repeats == 0) return 0.0;
  const std::vector<double> per_set = evaluate_per_set(test, repeats, precision);
  double total = 0.0;
  for (double s : per_set) total += s;
  return total / static_cast<double>(per_set.size());
}

std::vector<double> PersonalizationEngine::evaluate_per_set(
    const std::vector<const data::DialogueSet*>& test, std::size_t repeats,
    std::optional<nn::InferencePrecision> precision) {
  ODLP_TRACE_SCOPE("engine.evaluate");
  static obs::Histogram& h_eval =
      obs::registry().histogram("engine.evaluate.us");
  util::Stopwatch eval_sw;
  if (test.empty() || repeats == 0) {
    return std::vector<double>(test.size(), 0.0);
  }
  if (precision) model_.set_inference_precision(*precision);

  EvalDecodeStats decode;
  std::vector<double> scores = std::move(
      evaluate_requests(model_, tokenizer_,
                        {EvalRequest{&test, repeats, config_.sampler, nullptr}},
                        std::max<std::size_t>(1, config_.decode_batch),
                        &decode)
          .front());
  last_decode_occupancy_ = std::max<std::size_t>(1, decode.peak_occupancy);
  h_eval.record(eval_sw.elapsed_seconds() * 1e6);
  return scores;
}

std::vector<std::vector<double>> evaluate_requests(
    llm::MiniLlm& model, const text::Tokenizer& tokenizer,
    const std::vector<EvalRequest>& requests, std::size_t decode_batch,
    EvalDecodeStats* stats) {
  llm::BatchedDecodeScheduler scheduler(model, decode_batch);
  // tickets[q][i][r]: request q, set i, repeat r.
  std::vector<std::vector<std::vector<std::size_t>>> tickets(requests.size());
  for (std::size_t q = 0; q < requests.size(); ++q) {
    const EvalRequest& req = requests[q];
    for (std::size_t i = 0; i < req.sets->size(); ++i) {
      std::vector<util::Rng> rngs;
      rngs.reserve(req.repeats);
      for (std::size_t r = 0; r < req.repeats; ++r) {
        rngs.emplace_back(0xE7A1ull + r * 7919ull + i * 0x9E3779B9ull);
      }
      tickets[q].push_back(scheduler.submit_shared_prefix(
          tokenizer.encode_prompt((*req.sets)[i]->question,
                                  model.config().max_seq_len / 2),
          req.sampler, rngs, req.overlay));
    }
  }
  scheduler.run();
  if (stats) {
    stats->steps = scheduler.steps();
    stats->peak_occupancy = scheduler.peak_occupancy();
  }

  ODLP_TRACE_SCOPE("eval.rouge");
  std::vector<std::vector<double>> scores(requests.size());
  for (std::size_t q = 0; q < requests.size(); ++q) {
    const EvalRequest& req = requests[q];
    scores[q].assign(req.sets->size(), 0.0);
    if (req.repeats == 0) continue;
    for (std::size_t r = 0; r < req.repeats; ++r) {
      for (std::size_t i = 0; i < req.sets->size(); ++i) {
        const std::string response =
            tokenizer.decode(scheduler.result(tickets[q][i][r]));
        scores[q][i] += eval::rouge1_f1(response, (*req.sets)[i]->reference);
      }
    }
    for (double& s : scores[q]) s /= static_cast<double>(req.repeats);
  }
  return scores;
}

}  // namespace odlp::core
