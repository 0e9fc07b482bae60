// Edge cases and interaction paths not covered by the per-module suites:
// LoRA dropout behaviour, engine + LlmSynthesizer integration, long-input
// truncation through the whole stack, and misc boundary conditions.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/generator.h"
#include "exp/experiment.h"
#include "llm/sampler.h"

namespace odlp {
namespace {

TEST(LoraDropout, TrainingPathIsStochasticInferenceIsNot) {
  util::Rng rng(1);
  nn::Linear lin("l", 8, 8, rng);
  nn::LoraConfig lc;
  lc.dropout = 0.5f;
  lin.attach_lora(lc, rng);
  // Make the adapter non-trivial so dropout visibly changes outputs.
  nn::ParameterList params;
  lin.collect_parameters(params);
  for (nn::Parameter* p : params) {
    if (p->name.find("lora_b") != std::string::npos) {
      for (std::size_t i = 0; i < p->value.size(); ++i) {
        p->value.data()[i] = 0.5f;
      }
    }
  }
  tensor::Tensor x(2, 8, 1.0f);
  // Inference: deterministic.
  const tensor::Tensor a = lin.forward(x, false);
  const tensor::Tensor b = lin.forward(x, false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
  // Training: dropout masks differ between calls.
  const tensor::Tensor t1 = lin.forward(x, true);
  const tensor::Tensor t2 = lin.forward(x, true);
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < t1.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(t1.data()[i] - t2.data()[i]));
  }
  EXPECT_GT(max_diff, 1e-6f);
}

TEST(EngineWithLlmSynthesizer, FullLoopRuns) {
  // The faithful LLM-prompted synthesis path, end to end through the engine.
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  llm::ModelConfig mc;
  mc.vocab_size = tokenizer.vocab().size();
  mc.dim = 16;
  mc.heads = 2;
  mc.layers = 1;
  mc.ff_hidden = 32;
  mc.max_seq_len = 48;
  llm::MiniLlm model(mc, 2);
  llm::BagOfWordsExtractor extractor(16);
  data::UserOracle oracle(3, lexicon::builtin_dictionary());

  llm::SamplerConfig synth_sc;
  synth_sc.temperature = 1.0f;
  synth_sc.max_new_tokens = 6;
  core::SanityCheckConfig sanity;
  sanity.threshold = 0.0;  // accept whatever the untrained model emits

  core::EngineConfig ec;
  ec.buffer_bins = 3;
  ec.finetune_interval = 0;
  ec.synth_per_set = 2;
  ec.train.epochs = 1;
  core::PersonalizationEngine engine(
      model, tokenizer, extractor, oracle, lexicon::builtin_dictionary(),
      exp::make_policy("FIFO"),
      std::make_unique<core::LlmSynthesizer>(model, tokenizer, synth_sc,
                                             util::Rng(4), sanity),
      ec, util::Rng(5));

  data::Generator gen(data::meddialog_profile(), oracle, util::Rng(6));
  for (int i = 0; i < 3; ++i) engine.process(gen.make_informative(0, 0));
  engine.finetune_now();
  EXPECT_EQ(engine.stats().finetune_rounds, 1u);
  EXPECT_GT(engine.stats().synthesis.generated, 0u);
}

TEST(LongInput, TruncationFlowsThroughEngineScoring) {
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  llm::ModelConfig mc;
  mc.vocab_size = tokenizer.vocab().size();
  mc.dim = 16;
  mc.heads = 2;
  mc.layers = 1;
  mc.ff_hidden = 32;
  mc.max_seq_len = 16;  // very tight budget
  llm::MiniLlm model(mc, 7);
  llm::LlmEmbeddingExtractor extractor(model, tokenizer);
  data::UserOracle oracle(8, lexicon::builtin_dictionary());
  core::EngineConfig ec;
  ec.buffer_bins = 2;
  ec.finetune_interval = 0;
  ec.max_seq_len = 16;
  core::PersonalizationEngine engine(
      model, tokenizer, extractor, oracle, lexicon::builtin_dictionary(),
      exp::make_policy("Ours"), nullptr, ec, util::Rng(9));

  data::DialogueSet huge;
  for (int i = 0; i < 200; ++i) huge.question += "dose ";
  huge.answer = "inject the arm";
  huge.true_domain = 0;
  huge.true_subtopic = 0;
  EXPECT_NO_THROW(engine.process(huge));
  EXPECT_EQ(engine.buffer().size(), 1u);
}

TEST(Sampler, EmptyPromptCachedPathIsSafe) {
  llm::ModelConfig mc;
  mc.vocab_size = 16;
  mc.dim = 8;
  mc.heads = 2;
  mc.layers = 1;
  mc.ff_hidden = 16;
  mc.max_seq_len = 8;
  llm::MiniLlm model(mc, 10);
  llm::SamplerConfig sc;
  llm::Sampler sampler(model, sc, util::Rng(11));
  EXPECT_TRUE(sampler.generate_ids({}).empty());
}

TEST(QualityScores, NanSafetyInComparisons) {
  // Scores are plain doubles; Pareto dominance with identical values must
  // not admit (strict inequality), the buffer's guard against churn.
  core::QualityScores a{0.5, 0.5, 0.5};
  EXPECT_FALSE(a.dominates(a));
}

TEST(Tokenizer, DialogueWithEmptyAnswer) {
  text::Tokenizer tok{text::Vocab{}};
  tok.encode("what now");
  const auto enc = tok.encode_dialogue("what now", "");
  // <bos> what now <sep> <eos>
  ASSERT_EQ(enc.input.size(), 5u);
  EXPECT_EQ(enc.targets[enc.sep_position], text::Vocab::kEos);
}

TEST(Tokenizer, DialogueWithEmptyQuestion) {
  text::Tokenizer tok{text::Vocab{}};
  tok.encode("fine");
  const auto enc = tok.encode_dialogue("", "fine");
  EXPECT_EQ(enc.sep_position, 1u);  // <bos> <sep> fine <eos>
  EXPECT_EQ(enc.input.size(), 4u);
}

TEST(Generator, SingleSetStream) {
  data::UserOracle oracle(12, lexicon::builtin_dictionary());
  data::Generator gen(data::meddialog_profile(), oracle, util::Rng(13));
  const auto ds = gen.generate(1, 1);
  EXPECT_EQ(ds.stream.size(), 1u);
  EXPECT_EQ(ds.test.size(), 1u);
}

TEST(Engine, ProcessingAfterManualFinetuneContinues) {
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  llm::ModelConfig mc;
  mc.vocab_size = tokenizer.vocab().size();
  mc.dim = 16;
  mc.heads = 2;
  mc.layers = 1;
  mc.ff_hidden = 32;
  llm::MiniLlm model(mc, 14);
  llm::BagOfWordsExtractor extractor(16);
  data::UserOracle oracle(15, lexicon::builtin_dictionary());
  core::EngineConfig ec;
  ec.buffer_bins = 2;
  ec.finetune_interval = 0;
  ec.train.epochs = 1;
  core::PersonalizationEngine engine(
      model, tokenizer, extractor, oracle, lexicon::builtin_dictionary(),
      exp::make_policy("FIFO"),
      std::make_unique<core::ParaphraseSynthesizer>(
          lexicon::builtin_dictionary(), util::Rng(16)),
      ec, util::Rng(17));
  data::Generator gen(data::meddialog_profile(), oracle, util::Rng(18));
  engine.process(gen.make_informative(0, 0));
  engine.finetune_now();
  // The buffer is not cleared after fine-tuning (paper §4.1) and selection
  // continues.
  EXPECT_EQ(engine.buffer().size(), 1u);
  engine.process(gen.make_informative(0, 1));
  EXPECT_EQ(engine.buffer().size(), 2u);
}

}  // namespace
}  // namespace odlp
