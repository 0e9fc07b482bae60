// KV-cached incremental decoding: numerical equivalence with the full
// recompute path, plus top-p sampling behaviour.
#include <gtest/gtest.h>

#include "llm/decode_session.h"
#include "llm/sampler.h"
#include "util/stopwatch.h"

namespace odlp::llm {
namespace {

ModelConfig session_config() {
  ModelConfig mc;
  mc.vocab_size = 40;
  mc.dim = 16;
  mc.heads = 4;
  mc.layers = 2;
  mc.ff_hidden = 32;
  mc.max_seq_len = 24;
  return mc;
}

// Full-recompute decode: every step reruns the whole sequence through
// MiniLlm::forward (O(T²) per token). Independent of the KV cache, it is
// the oracle the cached Sampler path is compared against.
std::vector<int> recompute_generate(MiniLlm& model, std::vector<int> seq,
                                    const SamplerConfig& config,
                                    util::Rng rng) {
  std::vector<int> generated;
  for (std::size_t step = 0; step < config.max_new_tokens; ++step) {
    if (seq.size() >= model.config().max_seq_len) break;
    const tensor::Tensor logits = model.forward(seq, /*training=*/false);
    const int next = sample_from_logits(logits.row(logits.rows() - 1),
                                        logits.cols(), config, rng);
    if (next == text::Vocab::kEos) break;
    seq.push_back(next);
    generated.push_back(next);
  }
  return generated;
}

TEST(DecodeSession, LogitsMatchFullForward) {
  MiniLlm model(session_config(), 31);
  const std::vector<int> tokens = {2, 7, 11, 5, 9, 30, 14};

  DecodeSession session(model);
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const tensor::Tensor inc = session.step(tokens[t]);
    const std::vector<int> prefix(tokens.begin(), tokens.begin() + t + 1);
    const tensor::Tensor full = model.forward(prefix, false);
    ASSERT_EQ(inc.cols(), full.cols());
    for (std::size_t j = 0; j < inc.cols(); ++j) {
      EXPECT_NEAR(inc.at(0, j), full.at(t, j), 1e-3f)
          << "position " << t << " vocab " << j;
    }
  }
}

TEST(DecodeSession, PrimeEqualsSequenceOfSteps) {
  MiniLlm model(session_config(), 32);
  const std::vector<int> prompt = {2, 4, 6, 8};
  DecodeSession a(model);
  const tensor::Tensor la = a.prime(prompt);
  DecodeSession b(model);
  tensor::Tensor lb;
  for (int t : prompt) lb = b.step(t);
  for (std::size_t j = 0; j < la.cols(); ++j) {
    EXPECT_FLOAT_EQ(la.at(0, j), lb.at(0, j));
  }
  EXPECT_EQ(a.length(), 4u);
}

TEST(DecodeSession, ResetStartsOver) {
  MiniLlm model(session_config(), 33);
  DecodeSession session(model);
  const tensor::Tensor first = session.step(5);
  session.step(7);
  session.reset();
  EXPECT_EQ(session.length(), 0u);
  const tensor::Tensor again = session.step(5);
  for (std::size_t j = 0; j < first.cols(); ++j) {
    EXPECT_FLOAT_EQ(again.at(0, j), first.at(0, j));
  }
}

TEST(DecodeSession, FullAtMaxSeqLen) {
  MiniLlm model(session_config(), 34);
  DecodeSession session(model);
  for (std::size_t t = 0; t < session_config().max_seq_len; ++t) {
    EXPECT_FALSE(session.full());
    session.step(1);
  }
  EXPECT_TRUE(session.full());
}

TEST(DecodeSession, WorksWithLoraAttached) {
  MiniLlm model(session_config(), 35);
  nn::LoraConfig lc;
  lc.rank = 2;
  lc.dropout = 0.0f;
  model.attach_lora(lc);
  const std::vector<int> tokens = {2, 9, 13};
  DecodeSession session(model);
  tensor::Tensor inc;
  for (int t : tokens) inc = session.step(t);
  const tensor::Tensor full = model.forward(tokens, false);
  for (std::size_t j = 0; j < inc.cols(); ++j) {
    EXPECT_NEAR(inc.at(0, j), full.at(2, j), 1e-3f);
  }
}

TEST(SamplerKvCache, GreedyOutputsMatchRecompute) {
  MiniLlm model(session_config(), 36);
  SamplerConfig greedy;
  greedy.temperature = 0.0f;
  greedy.max_new_tokens = 10;
  Sampler cached(model, greedy, util::Rng(2));
  EXPECT_EQ(recompute_generate(model, {2, 5, 7}, greedy, util::Rng(1)),
            cached.generate_ids({2, 5, 7}));
}

TEST(SamplerKvCache, CachedPathRespectsLimits) {
  MiniLlm model(session_config(), 37);
  SamplerConfig cached;
  cached.temperature = 1.0f;
  cached.max_new_tokens = 5;
  Sampler sampler(model, cached, util::Rng(3));
  const auto out = sampler.generate_ids({2, 5});
  EXPECT_LE(out.size(), 5u);
  for (int id : out) EXPECT_NE(id, text::Vocab::kEos);
}

TEST(TopP, FullMassEqualsPlainSampling) {
  MiniLlm model(session_config(), 38);
  SamplerConfig a;
  a.temperature = 0.8f;
  a.top_p = 1.0f;
  a.max_new_tokens = 6;
  SamplerConfig b = a;
  b.top_p = 0.9999999f;  // keeps everything but exercises the nucleus path
  Sampler sa(model, a, util::Rng(4));
  Sampler sb(model, b, util::Rng(4));
  EXPECT_EQ(sa.generate_ids({2, 3}), sb.generate_ids({2, 3}));
}

TEST(TopP, TinyMassDegeneratesToGreedy) {
  MiniLlm model(session_config(), 39);
  SamplerConfig greedy;
  greedy.temperature = 0.0f;
  greedy.max_new_tokens = 6;
  SamplerConfig nucleus;
  nucleus.temperature = 1.0f;
  nucleus.top_p = 1e-6f;  // nucleus collapses to the single top token
  nucleus.max_new_tokens = 6;
  Sampler g(model, greedy, util::Rng(5));
  Sampler n(model, nucleus, util::Rng(6));
  EXPECT_EQ(g.generate_ids({2, 7}), n.generate_ids({2, 7}));
}

}  // namespace
}  // namespace odlp::llm
