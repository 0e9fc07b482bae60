// Experiment harness: policy factory, device tokenizer, determinism, and the
// fairness guarantees the paper's comparisons rely on.
#include <gtest/gtest.h>

#include "exp/experiment.h"

namespace odlp::exp {
namespace {

TEST(MakePolicy, AllMethodNamesResolve) {
  for (const char* name : {"Ours", "Random", "FIFO", "K-Center", "EOE", "DSS", "IDD"}) {
    auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(MakePolicy, UnknownNameThrows) {
  EXPECT_THROW(make_policy("SGD"), std::invalid_argument);
}

TEST(MethodLists, MatchPaperTables) {
  EXPECT_EQ(main_methods(),
            (std::vector<std::string>{"Random", "FIFO", "K-Center", "Ours"}));
  EXPECT_EQ(ablation_methods(),
            (std::vector<std::string>{"EOE", "DSS", "IDD", "Ours"}));
}

TEST(DeviceTokenizer, FrozenWithFullWorldCoverage) {
  text::Tokenizer tok = make_device_tokenizer();
  EXPECT_TRUE(tok.vocab().frozen());
  EXPECT_GT(tok.vocab().size(), 400u);  // lexicons + filler + phrase pools
  // Lexicon words resolve; arbitrary novel words map to <unk>.
  EXPECT_NE(tok.vocab().id("dose"), text::Vocab::kUnk);
  EXPECT_EQ(tok.vocab().id("supercalifragilistic"), text::Vocab::kUnk);
}

TEST(ModelConfigFactory, VocabTracksTokenizer) {
  ExperimentConfig config;
  text::Tokenizer tok = make_device_tokenizer();
  const llm::ModelConfig mc = make_model_config(config, tok);
  EXPECT_EQ(mc.vocab_size, tok.vocab().size());
  EXPECT_EQ(mc.dim, config.model_dim);
}

TEST(BufferCompositionFn, CountsNoiseAndTopics) {
  core::DataBuffer buf(4);
  auto add = [&](bool noise, int domain, int subtopic) {
    core::BufferEntry e;
    e.set.is_noise = noise;
    e.set.true_domain = domain;
    e.set.true_subtopic = subtopic;
    e.embedding = tensor::Tensor(1, 2, 1.0f);
    buf.add(std::move(e));
  };
  add(true, -1, -1);
  add(false, 0, 1);
  add(false, 0, 2);
  add(false, 1, 1);
  const BufferComposition comp = buffer_composition(buf);
  EXPECT_EQ(comp.size, 4u);
  EXPECT_EQ(comp.noise, 1u);
  EXPECT_EQ(comp.distinct_subtopics, 3u);
  EXPECT_EQ(comp.distinct_domains, 2u);
}

// A single micro experiment exercising the full harness path. Kept tiny so
// the suite stays fast; the benches run the full-size configurations.
ExperimentConfig micro_config(const std::string& method) {
  ExperimentConfig c;
  c.dataset = "MedDialog";
  c.method = method;
  c.buffer_bins = 4;
  c.stream_size = 12;
  c.test_size = 12;
  c.eval_subset = 4;
  c.finetune_interval = 6;
  c.epochs = 1;
  c.synth_per_set = 1;
  c.pretrain_examples = 8;
  c.pretrain_epochs = 1;
  c.cache_dir = "";  // no caching in tests
  c.eval_temperature = 0.0f;
  c.seed = 5;
  return c;
}

TEST(RunExperiment, ProducesCompleteResult) {
  const ExperimentResult r = run_experiment(micro_config("Ours"));
  EXPECT_EQ(r.dataset, "MedDialog");
  EXPECT_EQ(r.method, "Ours");
  EXPECT_EQ(r.engine_stats.seen, 12u);
  EXPECT_EQ(r.engine_stats.finetune_rounds, 2u);
  EXPECT_GE(r.final_rouge, 0.0);
  EXPECT_LE(r.final_rouge, 1.0);
  EXPECT_GT(r.curve.num_points(), 1u);
  EXPECT_GT(r.annotation_requests, 0u);
  EXPECT_LE(r.buffer.size, 4u);
  EXPECT_GT(r.wall_seconds, 0.0);
}

TEST(RunExperiment, DeterministicUnderSeed) {
  const ExperimentResult a = run_experiment(micro_config("Ours"));
  const ExperimentResult b = run_experiment(micro_config("Ours"));
  EXPECT_DOUBLE_EQ(a.final_rouge, b.final_rouge);
  ASSERT_EQ(a.curve.num_points(), b.curve.num_points());
  for (std::size_t i = 0; i < a.curve.num_points(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve.rouge()[i], b.curve.rouge()[i]);
  }
}

TEST(RunExperiment, MethodsShareBaselinePoint) {
  // Fairness: before any fine-tuning, every method evaluates the identical
  // base model on the identical subset — the first curve point must match.
  const ExperimentResult ours = run_experiment(micro_config("Ours"));
  const ExperimentResult fifo = run_experiment(micro_config("FIFO"));
  ASSERT_GT(ours.curve.num_points(), 0u);
  ASSERT_GT(fifo.curve.num_points(), 0u);
  EXPECT_DOUBLE_EQ(ours.curve.rouge()[0], fifo.curve.rouge()[0]);
}

TEST(RunExperiment, AnnotationSparsityBounded) {
  // Annotations are only requested for admitted sets: never more than the
  // stream length, and with a small buffer, strictly fewer.
  const ExperimentResult r = run_experiment(micro_config("Ours"));
  EXPECT_LE(r.annotation_requests, r.engine_stats.seen);
  EXPECT_EQ(r.annotation_requests,
            r.engine_stats.admitted_free + r.engine_stats.admitted_replacing);
}

TEST(RunExperiment, SynthesisTogglable) {
  ExperimentConfig c = micro_config("Ours");
  c.synth_per_set = 0;
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.engine_stats.synthesized_used, 0u);
}

TEST(LearningCurveMetrics, GainAndBest) {
  eval::LearningCurve curve("m");
  EXPECT_DOUBLE_EQ(curve.total_gain(), 0.0);
  EXPECT_DOUBLE_EQ(curve.best_rouge(), 0.0);
  curve.record(0, 0.1);
  curve.record(80, 0.4);
  curve.record(160, 0.3);
  EXPECT_DOUBLE_EQ(curve.final_rouge(), 0.3);
  EXPECT_DOUBLE_EQ(curve.best_rouge(), 0.4);
  EXPECT_NEAR(curve.total_gain(), 0.2, 1e-12);
  EXPECT_EQ(curve.to_series().xs().size(), 3u);
}

}  // namespace
}  // namespace odlp::exp
