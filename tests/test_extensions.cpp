// Tests for the design-ablation extensions: weighted-sum policy, annotation
// budget, embedding-source selection, and sanity-mode plumbing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <string>

#include "core/engine.h"
#include "core/weighted_policy.h"
#include "data/generator.h"
#include "exp/experiment.h"
#include "fleet/scheduler.h"

namespace odlp {
namespace {

using core::Candidate;
using core::DataBuffer;
using core::QualityScores;

core::BufferEntry entry_with_scores(QualityScores s, std::size_t at) {
  core::BufferEntry e;
  e.scores = s;
  e.inserted_at = at;
  e.embedding = tensor::Tensor(1, 2, 1.0f);
  return e;
}

Candidate candidate_with_scores(QualityScores s) {
  Candidate c;
  c.scores = s;
  c.embedding = tensor::Tensor(1, 2, 1.0f);
  return c;
}

TEST(WeightedSumPolicy, AdmitsFreeAndReplacesWorstSum) {
  core::WeightedSumPolicy policy;
  DataBuffer buf(2);
  util::Rng rng(1);
  EXPECT_TRUE(policy.offer(candidate_with_scores({0, 0, 0}), buf, rng).admit);
  buf.add(entry_with_scores({0.9, 0.0, 0.0}, 1));  // sum 0.9
  buf.add(entry_with_scores({0.2, 0.2, 0.2}, 2));  // sum 0.6 (worst)
  auto d = policy.offer(candidate_with_scores({0.3, 0.3, 0.3}), buf, rng);  // 0.9
  ASSERT_TRUE(d.admit);
  EXPECT_EQ(d.victim.value(), 1u);
}

TEST(WeightedSumPolicy, RejectsWhenNotAboveWorst) {
  core::WeightedSumPolicy policy;
  DataBuffer buf(1);
  buf.add(entry_with_scores({0.5, 0.5, 0.5}, 1));  // sum 1.5
  util::Rng rng(2);
  EXPECT_FALSE(policy.offer(candidate_with_scores({0.5, 0.5, 0.5}), buf, rng).admit);
  EXPECT_FALSE(policy.offer(candidate_with_scores({0.4, 0.4, 0.4}), buf, rng).admit);
}

TEST(WeightedSumPolicy, AdmitsOnSingleStrongMetricUnlikePareto) {
  // Key behavioural difference vs. Pareto dominance: one overwhelming metric
  // can buy admission even when the other two are lower.
  core::WeightedSumPolicy weighted;
  core::QualityReplacementPolicy pareto;
  DataBuffer buf(1);
  buf.add(entry_with_scores({0.3, 0.3, 0.3}, 1));  // sum 0.9
  util::Rng rng(3);
  const Candidate strong_one = candidate_with_scores({1.0, 0.1, 0.1});  // 1.2
  EXPECT_TRUE(weighted.offer(strong_one, buf, rng).admit);
  EXPECT_FALSE(pareto.offer(strong_one, buf, rng).admit);
}

TEST(WeightedSumPolicy, CustomWeights) {
  core::WeightedSumPolicy policy({0.0, 1.0, 0.0});  // DSS only
  DataBuffer buf(1);
  buf.add(entry_with_scores({0.9, 0.2, 0.9}, 1));
  util::Rng rng(4);
  EXPECT_TRUE(policy.offer(candidate_with_scores({0.0, 0.3, 0.0}), buf, rng).admit);
  EXPECT_FALSE(policy.offer(candidate_with_scores({1.0, 0.1, 1.0}), buf, rng).admit);
}

TEST(WeightedSumPolicy, ResolvableThroughFactory) {
  auto policy = exp::make_policy("WeightedSum");
  EXPECT_EQ(policy->name(), "WeightedSum");
}

TEST(AnnotationBudget, EngineStopsAnnotatingAfterBudget) {
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  llm::ModelConfig mc;
  mc.vocab_size = tokenizer.vocab().size();
  mc.dim = 16;
  mc.heads = 2;
  mc.layers = 1;
  mc.ff_hidden = 32;
  llm::MiniLlm model(mc, 5);
  llm::BagOfWordsExtractor extractor(16);
  data::UserOracle oracle(321, lexicon::builtin_dictionary());

  core::EngineConfig ec;
  ec.buffer_bins = 8;
  ec.finetune_interval = 0;
  ec.annotation_budget = 2;
  core::PersonalizationEngine engine(
      model, tokenizer, extractor, oracle, lexicon::builtin_dictionary(),
      exp::make_policy("FIFO"), nullptr, ec, util::Rng(6));

  data::Generator gen(data::meddialog_profile(), oracle, util::Rng(7));
  for (int i = 0; i < 5; ++i) engine.process(gen.make_informative(0, 0));

  EXPECT_EQ(engine.stats().annotations_made, 2u);
  EXPECT_EQ(engine.stats().annotations_skipped, 3u);
  EXPECT_EQ(oracle.annotation_requests(), 2u);
  // The first two buffered sets carry the user's style; later ones keep the
  // assistant's own answer.
  EXPECT_TRUE(engine.buffer().entry(0).annotated);
  EXPECT_TRUE(engine.buffer().entry(1).annotated);
  EXPECT_FALSE(engine.buffer().entry(2).annotated);
  EXPECT_NE(engine.buffer().entry(2).set.answer,
            oracle.preferred_response(0, 0));
}

TEST(AnnotationBudget, ZeroMeansUnlimited) {
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  llm::ModelConfig mc;
  mc.vocab_size = tokenizer.vocab().size();
  mc.dim = 16;
  mc.heads = 2;
  mc.layers = 1;
  mc.ff_hidden = 32;
  llm::MiniLlm model(mc, 8);
  llm::BagOfWordsExtractor extractor(16);
  data::UserOracle oracle(654, lexicon::builtin_dictionary());
  core::EngineConfig ec;
  ec.buffer_bins = 8;
  ec.finetune_interval = 0;
  ec.annotation_budget = 0;
  core::PersonalizationEngine engine(
      model, tokenizer, extractor, oracle, lexicon::builtin_dictionary(),
      exp::make_policy("FIFO"), nullptr, ec, util::Rng(9));
  data::Generator gen(data::meddialog_profile(), oracle, util::Rng(10));
  for (int i = 0; i < 6; ++i) engine.process(gen.make_informative(0, 1));
  EXPECT_EQ(engine.stats().annotations_made, 6u);
  EXPECT_EQ(engine.stats().annotations_skipped, 0u);
}

TEST(EmbeddingSource, BowRunsThroughHarness) {
  exp::ExperimentConfig c;
  c.dataset = "MedDialog";
  c.method = "Ours";
  c.embedding_source = "bow";
  c.buffer_bins = 4;
  c.stream_size = 10;
  c.test_size = 10;
  c.eval_subset = 4;
  c.finetune_interval = 0;
  c.record_curve = false;
  c.epochs = 1;
  c.pretrain_examples = 8;
  c.pretrain_epochs = 1;
  c.cache_dir = "";
  c.seed = 11;
  const auto r = exp::run_experiment(c);
  EXPECT_EQ(r.engine_stats.seen, 10u);
}

TEST(EmbeddingSource, UnknownSourceThrows) {
  exp::ExperimentConfig c;
  c.embedding_source = "word2vec";
  c.cache_dir = "";
  c.pretrain_examples = 4;
  c.pretrain_epochs = 1;
  c.stream_size = 4;
  c.test_size = 4;
  EXPECT_THROW(exp::run_experiment(c), std::invalid_argument);

  // The concurrent fleet rejects it too, instead of silently scoring with
  // bag-of-words embeddings.
  fleet::ConcurrentFleetConfig fc;
  fc.fleet.num_devices = 1;
  fc.fleet.device_template = c;
  fc.spill_dir = "/tmp/odlp_embedding_source_" + std::to_string(::getpid());
  EXPECT_THROW(fleet::run_concurrent_fleet(fc), std::invalid_argument);
}

TEST(SanityModePlumbing, RejectAboveReachesSynthesizer) {
  // With reject-above at threshold 0 every candidate whose similarity > 0 is
  // discarded, so synthesis yields nothing for on-topic paraphrases.
  exp::ExperimentConfig c;
  c.dataset = "MedDialog";
  c.sanity_mode = core::SanityCheckMode::kRejectAbove;
  c.sanity_threshold = 0.0;
  c.buffer_bins = 4;
  c.stream_size = 8;
  c.test_size = 8;
  c.eval_subset = 4;
  c.finetune_interval = 4;
  c.record_curve = false;
  c.epochs = 1;
  c.pretrain_examples = 8;
  c.pretrain_epochs = 1;
  c.cache_dir = "";
  c.seed = 12;
  const auto r = exp::run_experiment(c);
  EXPECT_EQ(r.engine_stats.synthesized_used, 0u);
  EXPECT_GT(r.engine_stats.synthesis.generated, 0u);
}

}  // namespace
}  // namespace odlp
