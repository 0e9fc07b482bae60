// INT8 quantized inference, side by side with fp32.
//
// Builds a mid-size MiniLlm (large enough that a decode step streams the
// whole weight set through cache — the regime an on-device deployment lives
// in), greedy-decodes the same prompt under fp32 and under int8, and prints:
//   * both token streams with a per-step agreement marker,
//   * decode throughput (tokens/s) and the int8 speedup,
//   * the devicesim memory ledger: what each precision keeps resident
//     (weights + scales + KV cache + selection buffer) and the compression
//     ratio.
//
//   ./example_quantized_decode [seed]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "devicesim/memory_model.h"
#include "llm/decode_session.h"
#include "llm/minillm.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace odlp;

namespace {

llm::ModelConfig demo_config() {
  llm::ModelConfig mc;
  mc.vocab_size = 2048;
  mc.dim = 384;
  mc.heads = 6;
  mc.layers = 4;
  mc.ff_hidden = 768;
  mc.max_seq_len = 48;
  return mc;
}

int argmax_token(const tensor::Tensor& logits) {
  const float* row = logits.row(logits.rows() - 1);
  int best = 0;
  for (std::size_t v = 1; v < logits.cols(); ++v) {
    if (row[v] > row[best]) best = static_cast<int>(v);
  }
  return best;
}

// Greedy-decode `steps` tokens from `prompt`; returns the chosen tokens and
// the wall seconds spent stepping.
std::vector<int> greedy_decode(llm::MiniLlm& model,
                               const std::vector<int>& prompt,
                               std::size_t steps, double& seconds) {
  llm::DecodeSession session(model);
  util::Stopwatch sw;
  const tensor::Tensor* logits = &session.prime(prompt);
  std::vector<int> out;
  for (std::size_t i = 0; i < steps; ++i) {
    const int tok = argmax_token(*logits);
    out.push_back(tok);
    if (session.full()) break;
    logits = &session.step(tok);
  }
  seconds = sw.elapsed_seconds();
  return out;
}

std::string mb(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f MB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5;
  const llm::ModelConfig mc = demo_config();
  std::printf("building %zu-layer dim-%zu model (seed %llu)...\n", mc.layers,
              mc.dim, static_cast<unsigned long long>(seed));
  llm::MiniLlm model(mc, seed);

  const std::vector<int> prompt = {11, 42, 7, 99};
  const std::size_t steps = mc.max_seq_len - prompt.size() - 1;

  double fp32_s = 0.0, int8_s = 0.0;
  const std::vector<int> fp32_tokens =
      greedy_decode(model, prompt, steps, fp32_s);
  const devicesim::MemoryLedger led_fp32 =
      devicesim::model_memory_ledger(model, /*buffer_bins=*/32);

  model.set_inference_precision(nn::InferencePrecision::kInt8);
  const std::vector<int> int8_tokens =
      greedy_decode(model, prompt, steps, int8_s);
  const devicesim::MemoryLedger led_int8 =
      devicesim::model_memory_ledger(model, /*buffer_bins=*/32);

  std::size_t agree = 0;
  std::printf("\ngreedy decode, %zu steps (prompt: 11 42 7 99):\n", steps);
  std::printf("  %-6s %-8s %-8s\n", "step", "fp32", "int8");
  for (std::size_t i = 0; i < fp32_tokens.size(); ++i) {
    const bool same = int8_tokens[i] == fp32_tokens[i];
    if (same) ++agree;
    std::printf("  %-6zu %-8d %-8d%s\n", i, fp32_tokens[i], int8_tokens[i],
                same ? "" : "  <- differs");
  }
  std::printf("agreement: %zu/%zu steps\n\n", agree, fp32_tokens.size());

  const double fp32_tps = static_cast<double>(fp32_tokens.size()) / fp32_s;
  const double int8_tps = static_cast<double>(int8_tokens.size()) / int8_s;
  std::printf("throughput: fp32 %.1f tok/s, int8 %.1f tok/s (%.2fx)\n\n",
              fp32_tps, int8_tps, int8_tps / fp32_tps);

  util::Table table({"resident set", "fp32", "int8"});
  table.row()
      .cell("matmul weights")
      .cell(mb(led_fp32.matmul_weight_bytes))
      .cell(mb(led_int8.matmul_weight_bytes));
  table.row()
      .cell("embeddings")
      .cell(mb(led_fp32.embedding_bytes))
      .cell(mb(led_int8.embedding_bytes));
  table.row()
      .cell("  of which scales")
      .cell(mb(led_fp32.scale_bytes))
      .cell(mb(led_int8.scale_bytes));
  table.row()
      .cell("norms (fp32)")
      .cell(mb(led_fp32.norm_bytes))
      .cell(mb(led_int8.norm_bytes));
  table.row()
      .cell("model total")
      .cell(mb(led_fp32.model_bytes()))
      .cell(mb(led_int8.model_bytes()));
  table.row()
      .cell("KV cache")
      .cell(mb(led_fp32.kv_cache_bytes))
      .cell(mb(led_int8.kv_cache_bytes));
  table.row()
      .cell("selection buffer")
      .cell(mb(led_fp32.buffer_bytes))
      .cell(mb(led_int8.buffer_bytes));
  table.row()
      .cell("device total")
      .cell(mb(led_fp32.total_bytes()))
      .cell(mb(led_int8.total_bytes()));
  std::printf("%s", table.to_string().c_str());
  std::printf("model compression: %.3fx of fp32\n",
              led_int8.model_ratio_vs_fp32());
  return 0;
}
