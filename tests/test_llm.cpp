#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "llm/minillm.h"
#include "llm/trainer.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace odlp::llm {
namespace {

ModelConfig tiny_config() {
  ModelConfig mc;
  mc.vocab_size = 16;
  mc.dim = 8;
  mc.heads = 2;
  mc.layers = 2;
  mc.ff_hidden = 16;
  mc.max_seq_len = 12;
  return mc;
}

TEST(MiniLlm, ForwardShape) {
  MiniLlm model(tiny_config(), 1);
  auto logits = model.forward({2, 5, 7}, false);
  EXPECT_EQ(logits.rows(), 3u);
  EXPECT_EQ(logits.cols(), 16u);
}

TEST(MiniLlm, ForwardIsDeterministicInInference) {
  MiniLlm model(tiny_config(), 2);
  auto a = model.forward({1, 2, 3}, false);
  auto b = model.forward({1, 2, 3}, false);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
}

TEST(MiniLlm, SameSeedSameWeights) {
  MiniLlm a(tiny_config(), 7), b(tiny_config(), 7);
  auto la = a.forward({1, 4}, false);
  auto lb = b.forward({1, 4}, false);
  for (std::size_t i = 0; i < la.size(); ++i) EXPECT_FLOAT_EQ(la.data()[i], lb.data()[i]);
}

TEST(MiniLlm, SequenceTruncatedToMaxLen) {
  MiniLlm model(tiny_config(), 3);
  std::vector<int> ids(40, 1);
  auto logits = model.forward(ids, false);
  EXPECT_EQ(logits.rows(), tiny_config().max_seq_len);
}

TEST(MiniLlm, HiddenStatesShape) {
  MiniLlm model(tiny_config(), 4);
  auto h = model.hidden_states({1, 2, 3, 4});
  EXPECT_EQ(h.rows(), 4u);
  EXPECT_EQ(h.cols(), 8u);
}

TEST(MiniLlm, ParameterCountsMatchArchitecture) {
  MiniLlm model(tiny_config(), 5);
  // tok 16*8 + pos 12*8 + head 8*16 = 352; per block: 4 projections
  // 4*(8*8+8)=288 + 2 LayerNorms 2*16=32 + ff (8*16+16)+(16*8+8)=280 = 600;
  // final LN 16.
  const std::size_t expected = 352u + 2u * 600u + 16u;
  EXPECT_EQ(model.num_parameters(), expected);
  EXPECT_EQ(model.num_trainable_parameters(), expected);
}

TEST(MiniLlm, LoraReducesTrainableParams) {
  MiniLlm model(tiny_config(), 6);
  const std::size_t total = model.num_parameters();
  nn::LoraConfig lc;
  lc.rank = 2;
  model.attach_lora(lc);
  EXPECT_TRUE(model.has_lora());
  // 2 layers x 4 projections x (8*2 + 2*8) = 256 adapter params.
  EXPECT_EQ(model.num_trainable_parameters(), 256u);
  EXPECT_EQ(model.num_parameters(), total + 256u);
}

TEST(MiniLlm, MergeLoraKeepsOutputs) {
  MiniLlm model(tiny_config(), 8);
  nn::LoraConfig lc;
  lc.rank = 2;
  lc.dropout = 0.0f;
  model.attach_lora(lc);
  // Train one step so adapters become nonzero.
  text::Tokenizer tok = text::Tokenizer(text::Vocab{});
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 1;
  tc.learning_rate = 0.05f;
  Trainer trainer(model, tc, util::Rng(9));
  text::Tokenizer::EncodedDialogue ex;
  ex.input = {2, 5, 4, 6, 3};
  ex.targets = {5, 4, 6, 3, -1};
  trainer.fine_tune({ex});

  auto before = model.forward({2, 5, 4}, false);
  model.merge_lora();
  EXPECT_FALSE(model.has_lora());
  auto after = model.forward({2, 5, 4}, false);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after.data()[i], before.data()[i], 1e-4f);
  }
}

TEST(MiniLlm, SaveLoadRoundTrip) {
  const std::string path = "/tmp/odlp_test_model.bin";
  MiniLlm a(tiny_config(), 10);
  a.save(path);
  MiniLlm b(tiny_config(), 11);  // different init
  b.load(path);
  auto la = a.forward({1, 2, 3}, false);
  auto lb = b.forward({1, 2, 3}, false);
  for (std::size_t i = 0; i < la.size(); ++i) EXPECT_FLOAT_EQ(la.data()[i], lb.data()[i]);
  std::remove(path.c_str());
}

TEST(MiniLlm, LoadRejectsMissingFile) {
  MiniLlm model(tiny_config(), 12);
  EXPECT_THROW(model.load("/tmp/definitely_not_a_file_odlp.bin"), std::runtime_error);
}

TEST(MiniLlm, LoadRejectsGarbage) {
  const std::string path = "/tmp/odlp_garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  MiniLlm model(tiny_config(), 13);
  EXPECT_THROW(model.load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelConfig, FlopsGrowWithSequenceLength) {
  ModelConfig mc = tiny_config();
  EXPECT_GT(mc.forward_flops(16), mc.forward_flops(4));
  EXPECT_GT(mc.forward_flops(4), 0.0);
}

TEST(Trainer, LossDecreasesOnOverfittableCorpus) {
  MiniLlm model(tiny_config(), 14);
  TrainConfig tc;
  tc.epochs = 30;
  tc.batch_size = 4;
  tc.learning_rate = 1e-2f;
  Trainer trainer(model, tc, util::Rng(15));

  std::vector<text::Tokenizer::EncodedDialogue> corpus;
  for (int k = 0; k < 4; ++k) {
    text::Tokenizer::EncodedDialogue ex;
    ex.input = {2, 5 + k, 4, 6, 7, 3};
    ex.targets = {5 + k, 4, 6, 7, 3, -1};
    ex.sep_position = 2;
    corpus.push_back(ex);
  }
  auto stats = trainer.fine_tune(corpus);
  EXPECT_LT(stats.final_epoch_loss, stats.first_epoch_loss * 0.5);
  EXPECT_GT(stats.optimizer_steps, 0u);
  EXPECT_EQ(stats.sequences_processed, 4u * 30u);
}

TEST(Trainer, EmptyCorpusIsNoop) {
  MiniLlm model(tiny_config(), 16);
  Trainer trainer(model, TrainConfig{}, util::Rng(17));
  auto stats = trainer.fine_tune({});
  EXPECT_EQ(stats.optimizer_steps, 0u);
  EXPECT_EQ(stats.sequences_processed, 0u);
}

TEST(Trainer, LoraOnlyTrainingLeavesBaseWeightsUntouched) {
  MiniLlm model(tiny_config(), 18);
  nn::LoraConfig lc;
  lc.rank = 2;
  model.attach_lora(lc);
  // Snapshot a base weight.
  nn::ParameterList params = model.parameters();
  const nn::Parameter* frozen = nullptr;
  for (const nn::Parameter* p : params) {
    if (!p->trainable && p->name.find("q_proj.weight") != std::string::npos) {
      frozen = p;
      break;
    }
  }
  ASSERT_NE(frozen, nullptr);
  const tensor::Tensor snapshot = frozen->value;

  TrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 2;
  tc.learning_rate = 1e-2f;
  Trainer trainer(model, tc, util::Rng(19));
  text::Tokenizer::EncodedDialogue ex;
  ex.input = {2, 5, 4, 3};
  ex.targets = {5, 4, 3, -1};
  trainer.fine_tune({ex});

  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_FLOAT_EQ(frozen->value.data()[i], snapshot.data()[i]);
  }
}

ModelConfig paper_config() {
  ModelConfig mc;  // ExperimentConfig's default geometry
  mc.vocab_size = 600;
  mc.dim = 48;
  mc.heads = 4;
  mc.layers = 2;
  mc.ff_hidden = 96;
  mc.max_seq_len = 64;
  return mc;
}

std::vector<int> random_ids(std::size_t n, std::size_t vocab, util::Rng& rng) {
  std::vector<int> ids;
  for (std::size_t t = 0; t < n; ++t) {
    ids.push_back(5 + static_cast<int>(rng.uniform_index(vocab - 5)));
  }
  return ids;
}

const tensor::Tensor& lm_head_weight(MiniLlm& model) {
  for (const nn::Parameter* p : model.parameters()) {
    if (p->name == "lm_head.weight") return p->value;
  }
  throw std::logic_error("no lm_head.weight");
}

// hidden_states stops at the final norm; the LM head it skips is one GEMM,
// so forward's logits are hidden_states · W_head bit for bit.
TEST(MiniLlm, HiddenStatesTimesHeadEqualsForwardLogits) {
  MiniLlm model(paper_config(), 3);
  util::Rng rng(4);
  for (std::size_t T : {1u, 3u, 17u, 64u}) {
    const std::vector<int> ids = random_ids(T, 600, rng);
    const tensor::Tensor logits = model.forward(ids, false);
    const tensor::Tensor h = model.hidden_states(ids);
    ASSERT_EQ(h.rows(), T);
    ASSERT_EQ(h.cols(), 48u);
    tensor::Tensor want;
    tensor::matmul_into(h, lm_head_weight(model), want);
    ASSERT_TRUE(want.same_shape(logits));
    EXPECT_EQ(std::memcmp(want.data(), logits.data(), want.size() * sizeof(float)), 0)
        << "T=" << T;
  }
}

TEST(MiniLlm, SupervisedHeadSpanCoversTargetsWithAtLeastFourRows) {
  const auto span = [](std::vector<int> targets) {
    const HeadSpan s = supervised_head_span(targets);
    return std::make_pair(s.begin, s.end);
  };
  using P = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(span({-1, -1, -1, -1, -1, -1}), P(0, 0));  // nothing supervised
  EXPECT_EQ(span({-1, 7, -1}), P(0, 3));               // T < 4: all rows
  EXPECT_EQ(span({-1, -1, 4, 5, 6, -1, -1, -1, -1, -1, -1, -1}), P(2, 6));
  EXPECT_EQ(span({-1, -1, -1, -1, -1, -1, -1, 8, 9, -1}), P(6, 10));
  EXPECT_EQ(span({1, 2, 3, 4, 5, 6, 7, 8, 9, -1}), P(0, 9));
  EXPECT_EQ(span({-1, -1, -1, 1, 2, 3, 4, 5, 6, -1}), P(3, 9));
}

// A head span returns exactly those rows of the full forward's logits.
TEST(MiniLlm, HeadSpanRowsMatchFullForward) {
  MiniLlm model(paper_config(), 5);
  util::Rng rng(6);
  const std::vector<int> ids = random_ids(40, 600, rng);
  const tensor::Tensor full = model.forward(ids, false);
  for (const HeadSpan span : {HeadSpan{0, 4}, HeadSpan{13, 40}, HeadSpan{36, 40},
                              HeadSpan{7, 12}}) {
    const tensor::Tensor& part = model.forward_shared(ids, false, span);
    ASSERT_EQ(part.rows(), span.end - span.begin);
    EXPECT_EQ(std::memcmp(part.data(), full.row(span.begin),
                          part.size() * sizeof(float)), 0)
        << "span [" << span.begin << ", " << span.end << ")";
  }
  EXPECT_EQ(model.forward_shared(ids, false, HeadSpan{9, 9}).rows(), 0u);
}

// Pins the bytes of a whole training run at the paper's model geometry
// (ExperimentConfig defaults: dim 48, 4 heads, 2 layers, ff 96, T <= 64): a
// full-weight pretraining pass with every position supervised, then a LoRA
// fine-tune on response-only targets. The corpus mixes lengths 2..80 (so
// both the straight and the chunked loss reduction run, and two sequences
// truncate), a sequence shorter than 4 rows, one whose supervised span is
// 2 rows, and one with no supervised row. Any change to the training step
// that moves a gradient bit moves the digest.
TEST(Trainer, FineTuneMatchesGoldenDigest) {
  constexpr std::uint32_t kGoldenCrc = 0x8467f293u;
  const ModelConfig mc = paper_config();
  MiniLlm model(mc, 2024);

  util::Rng rng(77);
  const auto make_example = [&](std::size_t len, std::size_t sep,
                                bool supervise_all) {
    text::Tokenizer::EncodedDialogue ex;
    for (std::size_t t = 0; t < len; ++t) {
      ex.input.push_back(5 + static_cast<int>(rng.uniform_index(mc.vocab_size - 5)));
    }
    ex.sep_position = sep;
    ex.targets.assign(len, -1);
    for (std::size_t t = 0; t + 1 < len; ++t) {
      if (supervise_all || t >= sep) ex.targets[t] = ex.input[t + 1];
    }
    return ex;
  };
  std::vector<text::Tokenizer::EncodedDialogue> pretrain;
  std::vector<text::Tokenizer::EncodedDialogue> personal;
  const std::size_t lens[] = {2, 3, 9, 17, 24, 31, 33, 40, 47, 58, 64, 80};
  for (std::size_t len : lens) {
    pretrain.push_back(make_example(len, len / 3, /*supervise_all=*/true));
    personal.push_back(make_example(len, len / 3, /*supervise_all=*/false));
  }
  personal.push_back(make_example(10, 7, false));   // supervised span [7, 9)
  personal.push_back(make_example(12, 11, false));  // no supervised row

  TrainConfig pc;
  pc.epochs = 1;
  pc.batch_size = 4;
  pc.learning_rate = 3e-3f;
  const TrainStats pre = Trainer(model, pc, util::Rng(5)).fine_tune(pretrain);

  nn::LoraConfig lc;  // paper: r = 8, alpha = 16, dropout 0.05
  model.attach_lora(lc);
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 4;
  tc.learning_rate = 1e-2f;
  const TrainStats ft = Trainer(model, tc, util::Rng(6)).fine_tune(personal);
  EXPECT_EQ(ft.sequences_processed, 3u * (personal.size() - 1));

  std::uint32_t crc = 0;
  for (const nn::Parameter* p : model.parameters()) {
    if (p->name.find("lora_") == std::string::npos) continue;
    crc = util::crc32(p->value.data(), p->value.size() * sizeof(float), crc);
  }
  crc = util::crc32(&pre.final_epoch_loss, sizeof(double), crc);
  crc = util::crc32(&ft.final_epoch_loss, sizeof(double), crc);
  EXPECT_EQ(crc, kGoldenCrc) << std::hex << "actual 0x" << crc;
}

}  // namespace
}  // namespace odlp::llm
