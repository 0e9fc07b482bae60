// Numerical-equivalence suite for the compute kernels:
//   * tiled matmul (+backward) vs. the serial reference kernels,
//   * cached-norm IDD vs. the direct Eq. 4–5 formula,
//   * evaluate_per_set run twice on the same engine.
// Determinism contract (DESIGN.md §8): the tiled kernels fix their own
// accumulation order, but NOT the *same* order as the naive `*_reference`
// kernels, so reference comparisons use a relative tolerance band.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/buffer.h"
#include "core/engine.h"
#include "core/quality_metrics.h"
#include "data/generator.h"
#include "exp/experiment.h"
#include "llm/minillm.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace odlp {
namespace {

tensor::Tensor random_tensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  tensor::Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

bool bit_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Relative-tolerance band for comparisons against the naive reference
// kernels: the tiled kernels reassociate the k-sum, so elements agree to
// float rounding, not bit-for-bit. |got - ref| <= atol + rtol * |ref|.
void expect_close(const tensor::Tensor& ref, const tensor::Tensor& got,
                  float rtol = 1e-4f, float atol = 1e-5f) {
  ASSERT_TRUE(ref.same_shape(got));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float r = ref.data()[i];
    const float g = got.data()[i];
    ASSERT_LE(std::abs(g - r), atol + rtol * std::abs(r)) << "element " << i;
  }
}

TEST(MatmulEquivalence, BlockedMatchesReferenceAcrossShapes) {
  util::Rng rng(0xABCD);
  // Mix of below-threshold, above-threshold, and non-multiple-of-block
  // shapes (the 1×1 and thin cases catch chunking edge conditions).
  const std::size_t shapes[][3] = {{1, 1, 1},     {3, 5, 7},    {17, 33, 9},
                                   {64, 64, 64},  {96, 64, 512}, {100, 130, 70},
                                   {256, 64, 64}};
  for (const auto& s : shapes) {
    const tensor::Tensor a = random_tensor(s[0], s[1], rng);
    const tensor::Tensor b = random_tensor(s[1], s[2], rng);
    const tensor::Tensor ref = tensor::matmul_reference(a, b);
    const tensor::Tensor got = tensor::matmul(a, b);
    SCOPED_TRACE(testing::Message()
                 << "shape " << s[0] << "x" << s[1] << "x" << s[2]);
    expect_close(ref, got);
  }
}

TEST(MatmulEquivalence, BackwardMatchesReference) {
  util::Rng rng(0x5EED);
  const std::size_t shapes[][3] = {{2, 3, 4}, {40, 50, 60}, {96, 64, 512}};
  for (const auto& s : shapes) {
    const tensor::Tensor a = random_tensor(s[0], s[1], rng);
    const tensor::Tensor b = random_tensor(s[1], s[2], rng);
    const tensor::Tensor dc = random_tensor(s[0], s[2], rng);
    // Seed the accumulators with nonzero values: backward *accumulates*.
    tensor::Tensor da_ref = random_tensor(s[0], s[1], rng);
    tensor::Tensor db_ref = random_tensor(s[1], s[2], rng);
    tensor::Tensor da = da_ref;
    tensor::Tensor db = db_ref;
    tensor::matmul_backward_reference(a, b, dc, da_ref, db_ref);
    tensor::matmul_backward(a, b, dc, da, db);
    SCOPED_TRACE(testing::Message()
                 << "shape " << s[0] << "x" << s[1] << "x" << s[2]);
    expect_close(da_ref, da);
    expect_close(db_ref, db);
  }
}

TEST(IddEquivalence, CachedNormMatchesDirectFormula) {
  util::Rng rng(0xD0C);
  core::DataBuffer buffer(16);
  for (std::size_t i = 0; i < 12; ++i) {
    core::BufferEntry e;
    e.embedding = random_tensor(1, 64, rng);
    e.dominant_domain = i % 3;
    e.inserted_at = i;
    buffer.add(std::move(e));
  }
  const tensor::Tensor cand = random_tensor(1, 64, rng);
  const double cand_norm = std::sqrt(tensor::sum_squares(cand));
  for (std::size_t domain = 0; domain < 4; ++domain) {
    const double direct = core::in_domain_dissimilarity(
        cand, buffer.embeddings_in_domain(domain));
    const double cached = core::in_domain_dissimilarity_cached(
        cand, cand_norm, buffer.normed_embeddings_in_domain(domain));
    // Same accumulations, just factored: exact equality expected. (Domain 3
    // is empty and must hit the R = 0 ⇒ 1.0 branch in both.)
    EXPECT_EQ(direct, cached) << "domain " << domain;
  }
}

TEST(IddEquivalence, CacheSurvivesReplaceAndZeroNorm) {
  util::Rng rng(0xACE);
  core::DataBuffer buffer(4);
  core::BufferEntry a;
  a.embedding = random_tensor(1, 32, rng);
  a.dominant_domain = 0;
  buffer.add(std::move(a));
  core::BufferEntry zero;
  zero.embedding = tensor::Tensor(1, 32, 0.0f);  // zero vector: norm 0
  zero.dominant_domain = 0;
  buffer.add(std::move(zero));
  // Replace entry 0 and re-check the cache tracks the new embedding.
  core::BufferEntry b;
  b.embedding = random_tensor(1, 32, rng);
  b.dominant_domain = 0;
  buffer.replace(0, std::move(b));

  const tensor::Tensor cand = random_tensor(1, 32, rng);
  const double cand_norm = std::sqrt(tensor::sum_squares(cand));
  const double direct =
      core::in_domain_dissimilarity(cand, buffer.embeddings_in_domain(0));
  const double cached = core::in_domain_dissimilarity_cached(
      cand, cand_norm, buffer.normed_embeddings_in_domain(0));
  EXPECT_EQ(direct, cached);
  // The zero-norm entry contributes cos = 0 ⇒ dissimilarity 1 in both paths.
  EXPECT_GT(cached, 0.0);
}

struct EvalFixture {
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  llm::ModelConfig mc;
  std::unique_ptr<llm::MiniLlm> model;
  llm::BagOfWordsExtractor extractor{16};
  data::UserOracle oracle{123, lexicon::builtin_dictionary()};
  std::unique_ptr<core::PersonalizationEngine> engine;

  EvalFixture() {
    core::EngineConfig ec;
    ec.buffer_bins = 4;
    ec.finetune_interval = 0;
    ec.max_seq_len = 48;
    mc.vocab_size = tokenizer.vocab().size();
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 1;
    mc.ff_hidden = 32;
    mc.max_seq_len = 48;
    model = std::make_unique<llm::MiniLlm>(mc, 7);
    engine = std::make_unique<core::PersonalizationEngine>(
        *model, tokenizer, extractor, oracle, lexicon::builtin_dictionary(),
        exp::make_policy("Ours"),
        std::make_unique<core::ParaphraseSynthesizer>(
            lexicon::builtin_dictionary(), util::Rng(9)),
        ec, util::Rng(11));
  }
};

TEST(EvaluateEquivalence, RepeatCallMatchesPerSetScores) {
  EvalFixture fx;
  util::Rng rng(21);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  const auto ds = gen.generate(0, 10);
  std::vector<const data::DialogueSet*> test;
  for (const auto& s : ds.test) test.push_back(&s);

  const std::vector<double> first =
      fx.engine->evaluate_per_set(test, /*repeats=*/2);
  const std::vector<double> second =
      fx.engine->evaluate_per_set(test, /*repeats=*/2);
  // Per-(repeat, set) sampler seeds make each generation a function of its
  // inputs alone: exact equality, not a tolerance.
  EXPECT_EQ(first, second);
}

TEST(EvaluateEquivalence, RepeatCallMatchesAfterFinetune) {
  // Same check with LoRA-updated weights in play.
  EvalFixture fx;
  util::Rng rng(22);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  const auto ds = gen.generate(8, 6);
  for (const auto& s : ds.stream) fx.engine->process(s);
  fx.engine->finetune_now();
  std::vector<const data::DialogueSet*> test;
  for (const auto& s : ds.test) test.push_back(&s);

  const std::vector<double> first = fx.engine->evaluate_per_set(test);
  const std::vector<double> second = fx.engine->evaluate_per_set(test);
  EXPECT_EQ(first, second);
}

TEST(ScoreEquivalence, SingleTokenizationScoreMatchesTextBlockPath) {
  // score() now tokenizes once and feeds words to the extractor; the result
  // must match extracting straight from the text block.
  EvalFixture fx;
  util::Rng rng(23);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  const auto set = gen.make_informative(0, 0);
  const core::Candidate cand = fx.engine->score(set);
  const tensor::Tensor direct =
      fx.extractor.token_embeddings(set.text_block());
  EXPECT_TRUE(bit_identical(tensor::mean_rows(direct), cand.embedding));
}

}  // namespace
}  // namespace odlp
