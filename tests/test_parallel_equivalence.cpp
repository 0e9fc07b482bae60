// Numerical-equivalence suite for the compute kernels:
//   * tiled/parallel matmul (+backward) vs. the serial reference kernels,
//   * cached-norm IDD vs. the direct Eq. 4–5 formula,
//   * parallel evaluate_per_set vs. the serial (1-lane) path.
// Determinism contract (DESIGN.md §8): the tiled kernels fix their own
// accumulation order, so results never depend on the lane count — those
// checks are exact, bit-for-bit. They do NOT promise the *same* order as
// the naive `*_reference` kernels, so reference comparisons use a relative
// tolerance band instead.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/buffer.h"
#include "core/engine.h"
#include "core/quality_metrics.h"
#include "data/generator.h"
#include "exp/experiment.h"
#include "llm/trainer.h"
#include "nn/kv_cache.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

std::uint64_t pool_regions() {
  return obs::registry().counter("pool.regions.total").value();
}

// Runs `fn` with the global pool temporarily resized to `lanes`.
template <typename Fn>
auto with_global_lanes(std::size_t lanes, Fn fn) {
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t before = pool.lanes();
  pool.resize(lanes);
  auto result = fn();
  pool.resize(before);
  return result;
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

TEST(MatmulEquivalence, ResultIndependentOfLaneCount) {
  // One shape below tensor::kFanOutMinFlops (runs inline at any lane count)
  // and one above it, which must open a pool region in the 4-lane run.
  util::Rng rng(0x1234);
  const std::size_t shapes[][3] = {{128, 96, 160}, {256, 160, 420}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message()
                 << "shape " << s[0] << "x" << s[1] << "x" << s[2]);
    const tensor::Tensor a = random_tensor(s[0], s[1], rng);
    const tensor::Tensor b = random_tensor(s[1], s[2], rng);
    const tensor::Tensor one =
        with_global_lanes(1, [&] { return tensor::matmul(a, b); });
    const std::uint64_t before = pool_regions();
    const tensor::Tensor four =
        with_global_lanes(4, [&] { return tensor::matmul(a, b); });
    const bool fans_out = tensor::fans_out(2 * s[0] * s[1] * s[2]);
    EXPECT_EQ(pool_regions() - before, fans_out ? 1u : 0u);
    EXPECT_TRUE(bit_identical(one, four));
  }
  EXPECT_TRUE(tensor::fans_out(2 * 256 * 160 * 420));
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
    with_global_lanes(4, [&] {
      tensor::matmul_backward(a, b, dc, da, db);
      return 0;
    });
    SCOPED_TRACE(testing::Message()
                 << "shape " << s[0] << "x" << s[1] << "x" << s[2]);
    expect_close(da_ref, da);
    expect_close(db_ref, db);
  }
}

TEST(MatmulEquivalence, BackwardIndependentOfLaneCount) {
  // The second shape's two products (2·256·160·420 flops each) are above
  // tensor::kFanOutMinFlops and must each open a region at 4 lanes.
  util::Rng rng(0xBEEF);
  const std::size_t shapes[][3] = {{96, 64, 160}, {256, 160, 420}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message()
                 << "shape " << s[0] << "x" << s[1] << "x" << s[2]);
    const tensor::Tensor a = random_tensor(s[0], s[1], rng);
    const tensor::Tensor b = random_tensor(s[1], s[2], rng);
    const tensor::Tensor dc = random_tensor(s[0], s[2], rng);
    const tensor::Tensor da_seed = random_tensor(s[0], s[1], rng);
    const tensor::Tensor db_seed = random_tensor(s[1], s[2], rng);
    struct R {
      tensor::Tensor da, db;
    };
    auto run = [&] {
      R r{da_seed, db_seed};
      tensor::matmul_backward(a, b, dc, r.da, r.db);
      return r;
    };
    const R one = with_global_lanes(1, run);
    const std::uint64_t before = pool_regions();
    const R four = with_global_lanes(4, run);
    const bool fans_out = tensor::fans_out(2 * s[0] * s[1] * s[2]);
    EXPECT_EQ(pool_regions() - before, fans_out ? 2u : 0u);
    // Row chunks are disjoint and each element's accumulation order is
    // fixed, so the lane count must not change a single bit.
    EXPECT_TRUE(bit_identical(one.da, four.da));
    EXPECT_TRUE(bit_identical(one.db, four.db));
  }
  EXPECT_TRUE(tensor::fans_out(2 * 256 * 160 * 420));
}

TEST(RowwiseEquivalence, SoftmaxAndLayerNormIndependentOfLaneCount) {
  // 200×128 sits above the chunked-reduction switch but below the fan-out
  // cut-over (its chunks run inline); 512×512 × kRowwiseFlopsPerElem
  // reaches tensor::kFanOutMinFlops, so at 4 lanes every op opens a region
  // — the row-parallel softmax/LayerNorm passes and the reduce_ordered
  // bias-gradient and cross-entropy reductions.
  util::Rng rng(0xF00D);
  const std::size_t shapes[][2] = {{200, 128}, {512, 512}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << "shape " << s[0] << "x" << s[1]);
    const tensor::Tensor x = random_tensor(s[0], s[1], rng);
    std::vector<int> targets(s[0]);
    for (std::size_t t = 0; t < s[0]; ++t) {
      targets[t] = t % 7 == 0 ? -1 : static_cast<int>((t * 31) % s[1]);
    }
    struct R {
      tensor::Tensor sm, ln, lnb, dbias;
      double loss = 0.0;
      tensor::Tensor dlogits;
      std::uint64_t regions = 0;
    };
    auto run = [&] {
      const std::uint64_t before = pool_regions();
      tensor::LayerNormCache cache;
      R r;
      r.sm = tensor::softmax_rows(x);
      r.ln = tensor::layernorm_rows(x, 1e-5f, &cache);
      r.lnb = tensor::layernorm_rows_backward(r.sm, cache);
      r.dbias = tensor::Tensor(1, s[1], 0.5f);
      tensor::add_row_broadcast_backward(x, r.dbias);
      // Its own softmax is a sixth region, next to the loss reduction.
      nn::CrossEntropyResult ce = nn::cross_entropy(x, targets);
      r.regions = pool_regions() - before;
      r.loss = ce.loss;
      r.dlogits = std::move(ce.dlogits);
      return r;
    };
    const R one = with_global_lanes(1, run);
    const R four = with_global_lanes(4, run);
    EXPECT_TRUE(bit_identical(one.sm, four.sm));
    EXPECT_TRUE(bit_identical(one.ln, four.ln));
    EXPECT_TRUE(bit_identical(one.lnb, four.lnb));
    EXPECT_TRUE(bit_identical(one.dbias, four.dbias));
    EXPECT_TRUE(bit_identical(one.dlogits, four.dlogits));
    EXPECT_EQ(std::memcmp(&one.loss, &four.loss, sizeof(double)), 0);
    const bool fans_out =
        tensor::fans_out(s[0] * s[1] * tensor::kRowwiseFlopsPerElem);
    EXPECT_EQ(one.regions, 0u);
    EXPECT_EQ(four.regions, fans_out ? 6u : 0u);
  }
  EXPECT_TRUE(tensor::fans_out(512 * 512 * tensor::kRowwiseFlopsPerElem));
}

// The fix this cut-over exists for: at the paper geometry (the
// ExperimentConfig-default MiniLlm with LoRA) neither a fine-tune step nor
// a width-12 batched decode step may leave the calling thread, even with
// four lanes available — the pool's wake/join cost exceeds every kernel
// call's work there.
TEST(FanOutCutover, PaperGeometryTrainAndDecodeStayOnCallingThread) {
  const exp::ExperimentConfig config;
  const text::Tokenizer tokenizer = exp::make_device_tokenizer();
  const llm::ModelConfig mc = exp::make_model_config(config, tokenizer);
  util::Rng rng(0xCAFE);
  std::vector<text::Tokenizer::EncodedDialogue> batch(config.batch_size);
  for (auto& ex : batch) {
    for (std::size_t t = 0; t < mc.max_seq_len; ++t) {
      ex.input.push_back(static_cast<int>(rng.uniform_int(0, static_cast<int>(mc.vocab_size) - 1)));
      ex.targets.push_back(static_cast<int>(rng.uniform_int(0, static_cast<int>(mc.vocab_size) - 1)));
    }
    ex.sep_position = mc.max_seq_len / 2;
  }
  with_global_lanes(4, [&] {
    llm::MiniLlm model(mc, 11);
    model.attach_lora(exp::make_engine_config(config).lora);
    llm::TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = config.batch_size;
    tc.learning_rate = config.learning_rate;
    llm::Trainer trainer(model, tc, util::Rng(12));
    std::uint64_t before = pool_regions();
    const llm::TrainStats stats = trainer.fine_tune(batch);
    EXPECT_EQ(stats.optimizer_steps, 1u);
    EXPECT_EQ(pool_regions(), before) << "fine-tune step fanned out";

    llm::MiniLlm base(mc, 13);
    constexpr std::size_t kWidth = 12;
    std::vector<std::vector<nn::KvCache>> caches(kWidth);
    std::vector<std::vector<nn::KvCache>*> cache_ptrs;
    std::vector<int> tokens, positions;
    for (std::size_t b = 0; b < kWidth; ++b) {
      for (std::size_t l = 0; l < base.num_blocks(); ++l) {
        caches[b].emplace_back(mc.max_seq_len, mc.dim);
      }
      cache_ptrs.push_back(&caches[b]);
      tokens.push_back(static_cast<int>(b + 2));
      positions.push_back(0);
    }
    before = pool_regions();
    const tensor::Tensor& logits =
        base.forward_incremental_batch(tokens, positions, cache_ptrs);
    EXPECT_EQ(logits.rows(), kWidth);
    EXPECT_EQ(pool_regions(), before) << "width-12 decode step fanned out";
    return 0;
  });
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

TEST(EvaluateEquivalence, ParallelMatchesSerialPerSetScores) {
  EvalFixture fx;
  util::Rng rng(21);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  const auto ds = gen.generate(0, 10);
  std::vector<const data::DialogueSet*> test;
  for (const auto& s : ds.test) test.push_back(&s);

  const std::vector<double> serial = with_global_lanes(
      1, [&] { return fx.engine->evaluate_per_set(test, /*repeats=*/2); });
  const std::vector<double> parallel = with_global_lanes(
      4, [&] { return fx.engine->evaluate_per_set(test, /*repeats=*/2); });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Per-(repeat, set) sampler seeds make each generation independent of
    // the schedule: exact equality, not a tolerance.
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]) << "set " << i;
  }
}

TEST(EvaluateEquivalence, ParallelMatchesSerialAfterFinetune) {
  // Same check with LoRA-updated weights in play (exercises the per-lane
  // model clone path against the post-fine-tune parameters).
  EvalFixture fx;
  util::Rng rng(22);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  const auto ds = gen.generate(8, 6);
  for (const auto& s : ds.stream) fx.engine->process(s);
  fx.engine->finetune_now();
  std::vector<const data::DialogueSet*> test;
  for (const auto& s : ds.test) test.push_back(&s);

  const std::vector<double> serial =
      with_global_lanes(1, [&] { return fx.engine->evaluate_per_set(test); });
  const std::vector<double> parallel =
      with_global_lanes(4, [&] { return fx.engine->evaluate_per_set(test); });
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]) << "set " << i;
  }
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
