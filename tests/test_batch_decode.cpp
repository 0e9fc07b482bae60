// BatchedDecodeScheduler: continuous-batched KV-cached generation must be
// bit-identical to decoding each request serially on a DecodeSession, at
// every batch width and under every KvCache edge case — sessions joining
// mid-stream, slots drained and reused, prompts overflowing max_seq_len,
// and the governor's KV-trim rung shrinking the generation budget.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/engine.h"
#include "core/synthesizer.h"
#include "data/generator.h"
#include "devicesim/memory_model.h"
#include "exp/experiment.h"
#include "llm/batch_decode.h"
#include "llm/decode_session.h"
#include "llm/sampler.h"
#include "nn/linear.h"
#include "nn/lora_overlay.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace odlp::llm {
namespace {

ModelConfig tiny_config() {
  ModelConfig mc;
  mc.vocab_size = 40;
  mc.dim = 16;
  mc.heads = 4;
  mc.layers = 2;
  mc.ff_hidden = 32;
  mc.max_seq_len = 24;
  return mc;
}

SamplerConfig decode_config(std::size_t max_new = 10) {
  SamplerConfig sc;
  sc.temperature = 0.7f;
  sc.max_new_tokens = max_new;
  return sc;
}

// Mixed-length prompts so lanes finish priming (and generating) at
// different steps — sessions leave and join mid-stream whenever the
// request count exceeds the batch width.
std::vector<std::vector<int>> mixed_prompts() {
  return {
      {2, 7, 11},
      {5},
      {2, 4, 6, 8, 10, 12, 14},
      {30, 14, 9},
      {1, 2, 3, 4, 5},
      {17},
      {2, 7, 11, 5, 9, 30, 14, 3, 8},
  };
}

// One request decoded on its own through a DecodeSession — an independent
// implementation of the generation loop (Sampler itself is a width-1
// scheduler run): truncate, prime, then sample until <eos>, the token
// budget, or a full session.
std::vector<int> serial_reference(MiniLlm& model, std::vector<int> prompt,
                                  const SamplerConfig& sc,
                                  std::uint64_t seed) {
  std::vector<int> generated;
  if (prompt.empty()) return generated;
  if (prompt.size() > model.config().max_seq_len) {
    prompt.resize(model.config().max_seq_len);
  }
  util::Rng rng(seed);
  DecodeSession session(model);
  const tensor::Tensor* logits = &session.prime(prompt);
  while (generated.size() < sc.max_new_tokens && !session.full()) {
    const int next =
        sample_from_logits(logits->row(0), logits->cols(), sc, rng);
    if (next == text::Vocab::kEos) break;
    generated.push_back(next);
    if (generated.size() >= sc.max_new_tokens || session.full()) break;
    logits = &session.step(next);
  }
  return generated;
}

TEST(BatchDecode, BitIdenticalToSerialAtEveryWidth) {
  MiniLlm model(tiny_config(), 31);
  const auto prompts = mixed_prompts();
  const SamplerConfig sc = decode_config();
  for (std::size_t width : {1u, 2u, 3u, 8u}) {
    BatchedDecodeScheduler scheduler(model, width);
    std::vector<std::size_t> tickets;
    for (std::size_t i = 0; i < prompts.size(); ++i) {
      tickets.push_back(
          scheduler.submit(prompts[i], sc, util::Rng(100 + i)));
    }
    scheduler.run();
    ASSERT_TRUE(scheduler.finished());
    for (std::size_t i = 0; i < prompts.size(); ++i) {
      EXPECT_EQ(scheduler.result(tickets[i]),
                serial_reference(model, prompts[i], sc, 100 + i))
          << "width " << width << " request " << i;
    }
  }
}

TEST(BatchDecode, BitIdenticalToSerialInt8) {
  MiniLlm model(tiny_config(), 31);
  model.set_inference_precision(nn::InferencePrecision::kInt8);
  const auto prompts = mixed_prompts();
  const SamplerConfig sc = decode_config();
  BatchedDecodeScheduler scheduler(model, 4);
  std::vector<std::size_t> tickets;
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    tickets.push_back(scheduler.submit(prompts[i], sc, util::Rng(50 + i)));
  }
  scheduler.run();
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_EQ(scheduler.result(tickets[i]),
              serial_reference(model, prompts[i], sc, 50 + i))
        << "request " << i;
  }
}

// Attaches LoRA to `model` with non-zero B factors (B starts at zero, which
// would make every adapter a no-op) and returns the overlay snapshot of
// those adapters, in lora_linears() site order.
nn::LoraOverlaySet attach_test_adapters(MiniLlm& model) {
  nn::LoraConfig lc;
  lc.rank = 4;
  lc.alpha = 8.0f;
  model.attach_lora(lc);
  util::Rng rng(77);
  nn::LoraOverlaySet overlay;
  overlay.scaling = lc.alpha / static_cast<float>(lc.rank);
  for (nn::Linear* site : model.lora_linears()) {
    tensor::Tensor& b = site->mutable_lora_b().value;
    for (std::size_t i = 0; i < b.size(); ++i) {
      b.data()[i] = 0.2f * (static_cast<float>(rng.uniform()) - 0.5f);
    }
    overlay.sites.push_back(
        {site->mutable_lora_a().value, site->mutable_lora_b().value});
  }
  return overlay;
}

// Shared-prefix groups (evaluation's sampling repeats) prime the prompt
// prefix once and fork that KV snapshot into every other member. Each forked
// request must still equal an independent serial decode with its own rng:
// at every width, on the bare base and through a LoRA overlay (checked
// against a DecodeSession on the LoRA-attached model), with a prompt that
// overflows max_seq_len and one that fills the cache while generating, and
// with plain requests interleaved so followers get admitted past.
TEST(BatchDecode, SharedPrefixForksMatchSerial) {
  MiniLlm base(tiny_config(), 31);
  MiniLlm adapted(tiny_config(), 31);
  const nn::LoraOverlaySet overlay = attach_test_adapters(adapted);
  const std::size_t max_len = tiny_config().max_seq_len;
  std::vector<int> filling;  // generation runs into max_seq_len
  for (std::size_t i = 0; i < max_len - 4; ++i) {
    filling.push_back(static_cast<int>(i % 31) + 5);
  }
  std::vector<int> overflow;
  for (std::size_t i = 0; i < max_len + 6; ++i) {
    overflow.push_back(static_cast<int>(i % 35) + 4);
  }
  const std::vector<std::vector<int>> prompts = {
      {2, 7, 11, 5, 9}, {17}, {30, 14}, filling, overflow};
  const SamplerConfig sc = decode_config(12);
  const std::size_t repeats = 4;
  bool overlay_changes_output = false;
  for (const auto& prompt : prompts) {
    overlay_changes_output |= serial_reference(adapted, prompt, sc, 1) !=
                              serial_reference(base, prompt, sc, 1);
  }
  ASSERT_TRUE(overlay_changes_output);
  obs::Counter& forks =
      obs::registry().counter("decode.batch.prefix_forks.total");

  for (const bool with_overlay : {false, true}) {
    MiniLlm& reference_model = with_overlay ? adapted : base;
    for (std::size_t width : {1u, 2u, 4u, 8u}) {
      const std::uint64_t forks_before = forks.value();
      BatchedDecodeScheduler scheduler(base, width);
      std::vector<std::vector<std::size_t>> groups;
      std::vector<std::size_t> plain;
      for (std::size_t p = 0; p < prompts.size(); ++p) {
        std::vector<util::Rng> rngs;
        for (std::size_t r = 0; r < repeats; ++r) {
          rngs.emplace_back(1000 + 10 * p + r);
        }
        groups.push_back(scheduler.submit_shared_prefix(
            prompts[p], sc, rngs, with_overlay ? &overlay : nullptr));
        plain.push_back(scheduler.submit(prompts[(p + 1) % prompts.size()],
                                         sc, util::Rng(2000 + p),
                                         with_overlay ? &overlay : nullptr));
      }
      scheduler.run();
      ASSERT_TRUE(scheduler.finished());
      for (std::size_t p = 0; p < prompts.size(); ++p) {
        for (std::size_t r = 0; r < repeats; ++r) {
          EXPECT_EQ(scheduler.result(groups[p][r]),
                    serial_reference(reference_model, prompts[p], sc,
                                     1000 + 10 * p + r))
              << "overlay " << with_overlay << " width " << width
              << " prompt " << p << " repeat " << r;
        }
        EXPECT_EQ(scheduler.result(plain[p]),
                  serial_reference(reference_model,
                                   prompts[(p + 1) % prompts.size()], sc,
                                   2000 + p))
            << "overlay " << with_overlay << " width " << width
            << " plain " << p;
      }
      // Every prompt but {17} has a prefix to share, so each follower of
      // those four groups forked instead of re-priming.
      EXPECT_EQ(forks.value() - forks_before, 4 * (repeats - 1))
          << "overlay " << with_overlay << " width " << width;
    }
  }
}

TEST(BatchDecode, EmptyPromptFinishesAtSubmit) {
  MiniLlm model(tiny_config(), 31);
  BatchedDecodeScheduler scheduler(model, 2);
  const std::size_t t = scheduler.submit({}, decode_config(), util::Rng(1));
  EXPECT_TRUE(scheduler.finished());  // done before run()
  scheduler.run();
  EXPECT_TRUE(scheduler.result(t).empty());
  EXPECT_EQ(scheduler.steps(), 0u);
}

TEST(BatchDecode, MaxNewTokensZeroGeneratesNothing) {
  MiniLlm model(tiny_config(), 31);
  const SamplerConfig sc = decode_config(0);
  BatchedDecodeScheduler scheduler(model, 2);
  const std::size_t t = scheduler.submit({2, 7}, sc, util::Rng(3));
  scheduler.run();
  EXPECT_TRUE(scheduler.result(t).empty());
  EXPECT_EQ(scheduler.result(t), serial_reference(model, {2, 7}, sc, 3));
}

// KvCache overflow edges: a prompt longer than max_seq_len is truncated
// exactly as Sampler truncates it, and a generation that would run past
// max_seq_len stops when the cache fills — in both cases token-identical
// to the serial path.
TEST(BatchDecode, PromptOverflowAndCacheFullMatchSerial) {
  MiniLlm model(tiny_config(), 31);
  const std::size_t max_len = tiny_config().max_seq_len;
  std::vector<int> long_prompt;
  for (std::size_t i = 0; i < max_len + 10; ++i) {
    long_prompt.push_back(static_cast<int>(i % 35) + 4);
  }
  // max_new far beyond what the cache can hold: generation must stop at
  // max_seq_len positions, like the serial sampler.
  const SamplerConfig sc = decode_config(3 * max_len);
  BatchedDecodeScheduler scheduler(model, 3);
  const std::size_t a = scheduler.submit(long_prompt, sc, util::Rng(7));
  const std::size_t b = scheduler.submit({2, 7}, sc, util::Rng(8));
  scheduler.run();
  EXPECT_EQ(scheduler.result(a),
            serial_reference(model, long_prompt, sc, 7));
  EXPECT_EQ(scheduler.result(b), serial_reference(model, {2, 7}, sc, 8));
}

// Slots drain completely, then a second round of submissions re-primes the
// same KvCache storage from position 0 — leave-and-rejoin reuse must not
// leak state between the requests that share a slot.
TEST(BatchDecode, SlotReuseAcrossRunsIsStateless) {
  MiniLlm model(tiny_config(), 31);
  const SamplerConfig sc = decode_config();
  BatchedDecodeScheduler scheduler(model, 2);
  const std::size_t a = scheduler.submit({2, 7, 11}, sc, util::Rng(21));
  scheduler.run();
  ASSERT_TRUE(scheduler.finished());
  // Same prompt+rng resubmitted after the slot was used: identical result.
  const std::size_t b = scheduler.submit({2, 7, 11}, sc, util::Rng(21));
  const std::size_t c = scheduler.submit({5, 9}, sc, util::Rng(22));
  scheduler.run();
  EXPECT_EQ(scheduler.result(b), scheduler.result(a));
  EXPECT_EQ(scheduler.result(c), serial_reference(model, {5, 9}, sc, 22));
}

TEST(BatchDecode, OccupancyTracksLiveSessions) {
  MiniLlm model(tiny_config(), 31);
  const SamplerConfig sc = decode_config();
  BatchedDecodeScheduler scheduler(model, 3);
  EXPECT_EQ(scheduler.max_batch(), 3u);
  for (std::size_t i = 0; i < 8; ++i) {
    scheduler.submit({2, 7, 11}, sc, util::Rng(40 + i));
  }
  scheduler.run();
  EXPECT_EQ(scheduler.peak_occupancy(), 3u);  // all three lanes were busy
  EXPECT_GT(scheduler.steps(), 0u);
}

TEST(BatchDecode, ZeroWidthThrows) {
  MiniLlm model(tiny_config(), 31);
  EXPECT_THROW(BatchedDecodeScheduler(model, 0), std::invalid_argument);
}

// The governor's KV-trim rung halves the decode generation budget
// (kv_fraction scales max_new_tokens). A scheduler fed the trimmed config
// must stop at the trimmed length and still match the serial path under the
// same trim; the devicesim ledger sees the same fraction applied per live
// session.
TEST(BatchDecode, GovernorKvTrimShrinksGenerationAndLedger) {
  MiniLlm model(tiny_config(), 31);
  const double kv_fraction = 0.5;
  SamplerConfig trimmed = decode_config(16);
  trimmed.max_new_tokens = static_cast<std::size_t>(
      static_cast<double>(trimmed.max_new_tokens) * kv_fraction);
  ASSERT_EQ(trimmed.max_new_tokens, 8u);

  BatchedDecodeScheduler scheduler(model, 4);
  std::vector<std::size_t> tickets;
  const auto prompts = mixed_prompts();
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    tickets.push_back(
        scheduler.submit(prompts[i], trimmed, util::Rng(60 + i)));
  }
  scheduler.run();
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    EXPECT_LE(scheduler.result(tickets[i]).size(), trimmed.max_new_tokens);
    EXPECT_EQ(scheduler.result(tickets[i]),
              serial_reference(model, prompts[i], trimmed, 60 + i));
  }

  // Ledger: the trim fraction applies to every live KV session's bytes.
  const std::size_t sessions = scheduler.peak_occupancy();
  const devicesim::MemoryLedger full =
      devicesim::model_memory_ledger(model, 0, sessions);
  const devicesim::MemoryLedger trimmed_ledger =
      devicesim::governed_memory_ledger(model, 0, kv_fraction, sessions);
  EXPECT_EQ(full.kv_sessions, sessions);
  EXPECT_EQ(trimmed_ledger.kv_cache_bytes,
            static_cast<std::size_t>(
                static_cast<double>(full.kv_cache_bytes) * kv_fraction));
}

// Satellite: the ledger's KV term scales linearly with the live session
// count (batch occupancy), defaulting to one session.
TEST(BatchDecode, LedgerKvBytesScaleWithSessions) {
  MiniLlm model(tiny_config(), 31);
  const devicesim::MemoryLedger one = devicesim::model_memory_ledger(model, 0);
  const devicesim::MemoryLedger four =
      devicesim::model_memory_ledger(model, 0, 4);
  EXPECT_EQ(one.kv_sessions, 1u);
  EXPECT_EQ(four.kv_sessions, 4u);
  EXPECT_EQ(four.kv_cache_bytes, 4 * one.kv_cache_bytes);
  const llm::ModelConfig& mc = model.config();
  EXPECT_EQ(one.kv_cache_bytes,
            mc.layers * 2 * mc.max_seq_len * mc.dim * sizeof(float));
}

}  // namespace
}  // namespace odlp::llm

namespace odlp::core {
namespace {

struct BatchEngineFixture {
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  llm::ModelConfig mc;
  std::unique_ptr<llm::MiniLlm> model;
  llm::BagOfWordsExtractor extractor{16};
  data::UserOracle oracle{123, lexicon::builtin_dictionary()};
  std::unique_ptr<PersonalizationEngine> engine;

  explicit BatchEngineFixture(std::size_t decode_batch) {
    mc.vocab_size = tokenizer.vocab().size();
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 1;
    mc.ff_hidden = 32;
    mc.max_seq_len = 48;
    model = std::make_unique<llm::MiniLlm>(mc, 7);
    EngineConfig ec;
    ec.buffer_bins = 4;
    ec.finetune_interval = 0;
    ec.max_seq_len = 48;
    ec.decode_batch = decode_batch;
    ec.sampler.max_new_tokens = 8;
    engine = std::make_unique<PersonalizationEngine>(
        *model, tokenizer, extractor, oracle, lexicon::builtin_dictionary(),
        exp::make_policy("Ours"),
        std::make_unique<ParaphraseSynthesizer>(lexicon::builtin_dictionary(),
                                                util::Rng(9)),
        ec, util::Rng(11));
  }
};

// The engine's evaluation is per-request seeded, so the batching width is
// invisible in the scores — decode_batch trades latency only.
TEST(BatchDecodeEngine, EvaluateScoresIndependentOfDecodeBatch) {
  BatchEngineFixture serial(1);
  BatchEngineFixture batched(4);
  util::Rng rng(10);
  data::Generator gen(data::meddialog_profile(), serial.oracle, rng.split());
  const auto ds = gen.generate(0, 5);
  std::vector<const data::DialogueSet*> test;
  for (const auto& s : ds.test) test.push_back(&s);
  const std::vector<double> a = serial.engine->evaluate_per_set(test);
  const std::vector<double> b = batched.engine->evaluate_per_set(test);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << "set " << i;
  }
  EXPECT_GE(batched.engine->decode_kv_sessions(), 1u);
  EXPECT_LE(batched.engine->decode_kv_sessions(), 4u);
}

// Same property for the LLM synthesizer's wave batching: accepted variants
// (and accept/reject bookkeeping) are identical at every width.
TEST(BatchDecodeEngine, SynthesizerOutputsIndependentOfDecodeBatch) {
  const text::Tokenizer tokenizer = exp::make_device_tokenizer();
  llm::ModelConfig mc;
  mc.vocab_size = tokenizer.vocab().size();
  mc.dim = 16;
  mc.heads = 2;
  mc.layers = 1;
  mc.ff_hidden = 32;
  mc.max_seq_len = 48;
  llm::MiniLlm model(mc, 7);
  llm::SamplerConfig sc;
  sc.max_new_tokens = 12;
  data::UserOracle oracle(123, lexicon::builtin_dictionary());
  util::Rng rng(5);
  data::Generator gen(data::meddialog_profile(), oracle, rng.split());
  const data::DialogueSet original = gen.make_informative(0, 0);

  SynthesisStats stats1, stats4;
  LlmSynthesizer synth1(model, tokenizer, sc, util::Rng(77),
                        SanityCheckConfig{}, /*decode_batch=*/1);
  LlmSynthesizer synth4(model, tokenizer, sc, util::Rng(77),
                        SanityCheckConfig{}, /*decode_batch=*/4);
  const auto out1 = synth1.synthesize(original, 3, &stats1);
  const auto out4 = synth4.synthesize(original, 3, &stats4);
  EXPECT_EQ(stats1.generated, stats4.generated);
  EXPECT_EQ(stats1.accepted, stats4.accepted);
  ASSERT_EQ(out1.size(), out4.size());
  for (std::size_t i = 0; i < out1.size(); ++i) {
    EXPECT_EQ(out1[i].question, out4[i].question) << "variant " << i;
    EXPECT_EQ(out1[i].answer, out4[i].answer) << "variant " << i;
    EXPECT_EQ(out1[i].reference, out4[i].reference) << "variant " << i;
  }
}

}  // namespace
}  // namespace odlp::core
