#include <gtest/gtest.h>

#include <algorithm>

#include "devicesim/cost_model.h"
#include "devicesim/memory_model.h"
#include "llm/minillm.h"
#include "resil/governor.h"

namespace odlp::devicesim {
namespace {

TEST(MemoryModel, PaperBinPayloadFitsTwentyTwoKb) {
  const BinSpec spec = paper_bin_spec();
  EXPECT_EQ(spec.max_text_tokens, 1024u);      // 512 question + 512 answer
  EXPECT_EQ(spec.embedding_floats, 4096u);     // Llama-3B hidden size
  EXPECT_LE(spec.kilobytes(), 22.0);           // payload fits in the granule
  EXPECT_GT(spec.kilobytes(), 16.0);           // embedding alone is 16 KB
}

// The paper's Table 3 bin-count ↔ KB ladder.
struct BufferSizeCase {
  std::size_t bins;
  double kb;
};

class PaperBufferLadder : public ::testing::TestWithParam<BufferSizeCase> {};

TEST_P(PaperBufferLadder, KbMatchesPaper) {
  EXPECT_DOUBLE_EQ(buffer_kb(GetParam().bins), GetParam().kb);
  EXPECT_EQ(bins_for_kb(GetParam().kb), GetParam().bins);
}

INSTANTIATE_TEST_SUITE_P(
    Table3, PaperBufferLadder,
    ::testing::Values(BufferSizeCase{8, 176.0}, BufferSizeCase{16, 352.0},
                      BufferSizeCase{32, 704.0}, BufferSizeCase{64, 1408.0},
                      BufferSizeCase{128, 2816.0}, BufferSizeCase{256, 5632.0},
                      BufferSizeCase{512, 11264.0}));

TEST(MemoryModel, BinsForKbEdgeCases) {
  EXPECT_EQ(bins_for_kb(0.0), 0u);
  EXPECT_EQ(bins_for_kb(-5.0), 0u);
  EXPECT_EQ(bins_for_kb(22.0), 1u);
}

TEST(MemoryModel, LrLadderMatchesPaperWithinRounding) {
  // Paper: {8:2, 16:3, 32:4, 64:5, 128:7, 256:10, 512:14} x 1e-5.
  const std::pair<std::size_t, double> ladder[] = {
      {8, 2e-5}, {16, 3e-5}, {32, 4e-5}, {64, 5e-5},
      {128, 7e-5}, {256, 10e-5}, {512, 14e-5}};
  for (const auto& [bins, lr] : ladder) {
    // The paper rounds to integer multiples of 1e-5; sqrt scaling lands
    // within 0.55e-5 of every rung.
    EXPECT_NEAR(scaled_learning_rate(bins), lr, 0.55e-5) << bins << " bins";
  }
}

TEST(MemoryModel, LrScalesWithSqrtOfBins) {
  const float lr32 = scaled_learning_rate(32);
  const float lr128 = scaled_learning_rate(128);
  EXPECT_NEAR(lr128 / lr32, 2.0f, 1e-4f);  // sqrt(4)
}

TEST(CostModel, FinetuneCostLinearInSequences) {
  llm::ModelConfig mc;
  const auto c1 = finetune_cost(mc, 100, 32.0, 1);
  const auto c2 = finetune_cost(mc, 200, 32.0, 1);
  EXPECT_NEAR(c2.flops / c1.flops, 2.0, 1e-9);
}

TEST(CostModel, FinetuneCostLinearInEpochs) {
  llm::ModelConfig mc;
  const auto c1 = finetune_cost(mc, 100, 32.0, 2);
  const auto c2 = finetune_cost(mc, 100, 32.0, 6);
  EXPECT_NEAR(c2.flops / c1.flops, 3.0, 1e-9);
}

TEST(CostModel, BackwardCostsTwiceForward) {
  llm::ModelConfig mc;
  const double fwd = mc.forward_flops(32);
  const auto c = finetune_cost(mc, 1, 32.0, 1);
  EXPECT_NEAR(c.flops, 3.0 * fwd, 1e-6);
}

TEST(CostModel, ModeledSecondsUseDeviceThroughput) {
  llm::ModelConfig mc;
  DeviceSpec fast;
  fast.sustained_flops = 1e12;
  DeviceSpec slow;
  slow.sustained_flops = 1e10;
  const auto cf = finetune_cost(mc, 50, 32.0, 2, fast);
  const auto cs = finetune_cost(mc, 50, 32.0, 2, slow);
  EXPECT_NEAR(cs.modeled_seconds / cf.modeled_seconds, 100.0, 1e-6);
}

TEST(CostModel, EnergyTracksPower) {
  llm::ModelConfig mc;
  DeviceSpec spec;
  spec.watts = 150.0;  // the paper's A10
  const auto c = finetune_cost(mc, 10, 32.0, 1, spec);
  EXPECT_NEAR(c.modeled_joules, c.modeled_seconds * 150.0, 1e-9);
}

// --- MemoryLedger edge cases (resilience-layer accounting) ---------------

llm::ModelConfig tiny_model_config() {
  llm::ModelConfig mc;
  mc.vocab_size = 64;
  mc.dim = 16;
  mc.heads = 2;
  mc.layers = 1;
  mc.ff_hidden = 32;
  mc.max_seq_len = 32;
  return mc;
}

TEST(MemoryLedger, ZeroBinBufferHasNoBufferShare) {
  EXPECT_DOUBLE_EQ(buffer_kb(0), 0.0);
  llm::MiniLlm model(tiny_model_config(), 1);
  const MemoryLedger ledger = model_memory_ledger(model, 0);
  EXPECT_EQ(ledger.buffer_bytes, 0u);
  EXPECT_EQ(ledger.total_bytes(), ledger.model_bytes() + ledger.kv_cache_bytes);
  EXPECT_GT(ledger.model_bytes(), 0u);
  EXPECT_GT(ledger.kv_cache_bytes, 0u);
}

TEST(MemoryLedger, Fp32RatioIsExactlyOne) {
  llm::MiniLlm model(tiny_model_config(), 1);
  const MemoryLedger ledger = model_memory_ledger(model, 8);
  EXPECT_DOUBLE_EQ(ledger.model_ratio_vs_fp32(), 1.0);
  EXPECT_EQ(ledger.model_bytes(), ledger.fp32_model_bytes);
}

TEST(MemoryLedger, Int8RatioWithinExpectedBounds) {
  llm::MiniLlm model(tiny_model_config(), 1);
  const MemoryLedger fp32 = model_memory_ledger(model, 8);
  model.set_inference_precision(nn::InferencePrecision::kInt8);
  const MemoryLedger int8 = model_memory_ledger(model, 8);
  // The fp32 baseline is precision-independent; the quantized resident set
  // must land strictly between "free lunch" and "no savings".
  EXPECT_EQ(int8.fp32_model_bytes, fp32.fp32_model_bytes);
  EXPECT_LT(int8.model_bytes(), fp32.model_bytes());
  EXPECT_GT(int8.model_ratio_vs_fp32(), 0.15);
  EXPECT_LT(int8.model_ratio_vs_fp32(), 0.75);
  EXPECT_GT(int8.scale_bytes, 0u);
  // KV cache and buffer shares do not depend on the weight precision.
  EXPECT_EQ(int8.kv_cache_bytes, fp32.kv_cache_bytes);
  EXPECT_EQ(int8.buffer_bytes, fp32.buffer_bytes);
}

TEST(MemoryLedger, GovernedLedgerScalesKvAndClamps) {
  llm::MiniLlm model(tiny_model_config(), 1);
  const MemoryLedger nominal = model_memory_ledger(model, 8);
  const MemoryLedger half = governed_memory_ledger(model, 8, 0.5);
  EXPECT_EQ(half.kv_cache_bytes, nominal.kv_cache_bytes / 2);
  EXPECT_EQ(half.model_bytes(), nominal.model_bytes());
  EXPECT_EQ(half.buffer_bytes, nominal.buffer_bytes);
  const MemoryLedger none = governed_memory_ledger(model, 8, 0.0);
  EXPECT_EQ(none.kv_cache_bytes, 0u);
  // Out-of-range fractions clamp instead of inflating or going negative.
  EXPECT_EQ(governed_memory_ledger(model, 8, 2.0).kv_cache_bytes,
            nominal.kv_cache_bytes);
  EXPECT_EQ(governed_memory_ledger(model, 8, -1.0).kv_cache_bytes, 0u);
}

TEST(MemoryLedger, ConsistentAcrossGovernorRungTransitions) {
  llm::MiniLlm model(tiny_model_config(), 1);
  const std::size_t bins = 8;
  resil::GovernorConfig gc;
  gc.memory_budget_bytes = 1;  // everything is over budget: walk every rung
  resil::ResourceGovernor gov(gc);

  std::size_t previous_total = governed_memory_ledger(model, bins, 1.0)
                                   .total_bytes();
  for (std::size_t step = 0; step + 1 < resil::kNumRungs; ++step) {
    const resil::GovernorDecision& d = gov.observe(
        {previous_total, 0.0});
    model.set_inference_precision(d.precision);
    // Bin shedding applied the way apply_decision scales it.
    const std::size_t live_bins = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(bins) *
                                    d.buffer_fraction));
    const MemoryLedger ledger =
        governed_memory_ledger(model, live_bins, d.kv_fraction);
    // Internal consistency at every rung.
    EXPECT_EQ(ledger.total_bytes(), ledger.model_bytes() +
                                        ledger.kv_cache_bytes +
                                        ledger.buffer_bytes);
    // Each deeper rung can only shrink (or hold) the resident set.
    EXPECT_LE(ledger.total_bytes(), previous_total)
        << "rung " << resil::to_string(d.rung);
    previous_total = ledger.total_bytes();
  }
  EXPECT_EQ(gov.rung(), resil::Rung::kSkipFinetune);
  model.set_inference_precision(nn::InferencePrecision::kFp32);
  EXPECT_EQ(model_memory_ledger(model, bins).model_bytes(),
            model_memory_ledger(model, bins).fp32_model_bytes);
}

}  // namespace
}  // namespace odlp::devicesim
