// Reproducible perf-benchmark harness for the compute kernels.
//
// Measures, on the current host:
//   * register-tiled matmul vs. the naive reference kernel (several shapes,
//     including the 256x256x256 contract size), with GFLOP/s,
//   * matmul_backward (both tiled products) vs. its serial reference, with
//     GFLOP/s,
//   * the allocation probe: tensor heap allocations during a steady-state
//     training step and decode step (the workspace design targets zero),
//   * µs per LoRA training step (forward, loss, backward of one sequence)
//     at the paper geometry for T = 16, 32 and 64,
//   * cross-tenant overlay decode at the paper geometry: tok/s of a
//     12-lane flush over 8 users' LoRA overlays, next to the bare base,
//   * cached-norm IDD vs. the direct Eq. 4-5 formula,
//   * end-to-end engine throughput: score() rate, fine-tune seconds/epoch,
//     and evaluate_per_set() rate, with a per-stage time breakdown read
//     back from the obs metrics registry (stage sum is checked against the
//     measured wall clock),
//   * the cost of a disabled ODLP_TRACE_SCOPE relative to a decode step
//     (the ≤1%-overhead budget of DESIGN.md §10).
//
// Writes a machine-readable summary to results/BENCH_perf.json (override
// with --out). `kernel_variant` and `native_arch` name the GEMM build that
// was measured (see tensor::kernel_build_info()). Every kernel runs on the
// calling thread, so the rows are single-core numbers; `hardware_threads`
// is recorded for the host's description.
//
// Flags: --quick (fewer reps / smaller end-to-end run), --seed N,
// --out PATH, --metrics-out PATH (dump the full metrics registry as JSON).
// Deterministic for a fixed seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "core/quality_metrics.h"
#include "data/generator.h"
#include "devicesim/memory_model.h"
#include "llm/batch_decode.h"
#include "llm/decode_session.h"
#include "llm/sampler.h"
#include "nn/lora_overlay.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/qops.h"
#include "tensor/qtensor.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace odlp;

namespace {

tensor::Tensor random_tensor(std::size_t rows, std::size_t cols,
                             util::Rng& rng) {
  tensor::Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// Median-of-reps wall time for `fn`, in seconds. One warmup call.
template <typename Fn>
double timed_seconds(int reps, Fn&& fn) {
  fn();
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch sw;
    fn();
    times.push_back(sw.elapsed_seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

using bench::JsonWriter;
using bench::json_object;

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::parse_options(argc, argv);
  std::string out_path = "results/BENCH_perf.json";
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    }
  }
  const int reps = opt.quick ? 3 : 7;
  // Hard-gate failures (batched-vs-serial mismatch, batching slowdown):
  // the bench still writes its JSON but exits non-zero.
  int failures = 0;
  util::Rng rng(opt.seed);

  JsonWriter json;
  json.text("bench", "bench_perf");
  json.integer("seed", static_cast<long long>(opt.seed));
  json.integer("quick", opt.quick ? 1 : 0);
  json.integer("hardware_threads",
               static_cast<long long>(std::thread::hardware_concurrency()));
  const tensor::KernelBuildInfo kinfo = tensor::kernel_build_info();
  json.text("kernel_variant", kinfo.variant);
  json.integer("native_arch", kinfo.native_arch ? 1 : 0);
  json.text("int8_kernel_variant", kinfo.int8_variant);
  json.integer("int8_block", static_cast<long long>(kinfo.int8_block));
  json.text("simd_level", kinfo.simd_level);

  // ---- Matmul: blocked kernel vs. naive reference. ----
  std::printf("== matmul ==\n");
  const std::size_t shapes[][3] = {
      {64, 64, 64}, {256, 256, 256}, {96, 64, 512}};
  std::string matmul_rows = "[";
  for (std::size_t si = 0; si < sizeof(shapes) / sizeof(shapes[0]); ++si) {
    const auto& s = shapes[si];
    const tensor::Tensor a = random_tensor(s[0], s[1], rng);
    const tensor::Tensor b = random_tensor(s[1], s[2], rng);
    const double flops = 2.0 * s[0] * s[1] * s[2];
    const double t_naive =
        timed_seconds(reps, [&] { tensor::matmul_reference(a, b); });
    const double t = timed_seconds(reps, [&] { tensor::matmul(a, b); });
    const std::vector<std::pair<std::string, double>> kv = {
        {"m", double(s[0])},
        {"k", double(s[1])},
        {"n", double(s[2])},
        {"naive_ms", t_naive * 1e3},
        {"naive_gflops", flops / t_naive * 1e-9},
        {"tiled_ms", t * 1e3},
        {"tiled_gflops", flops / t * 1e-9},
        {"tiled_speedup_vs_naive", t_naive / t}};
    std::printf("  %zux%zux%zu: naive %.3f ms, tiled %s\n", s[0], s[1],
                s[2], t_naive * 1e3, json_object(kv).c_str());
    if (si) matmul_rows += ", ";
    matmul_rows += json_object(kv);
  }
  matmul_rows += "]";
  json.raw("matmul", matmul_rows);

  // ---- matmul_backward: tiled vs. serial reference. ----
  {
    const std::size_t m = 128, k = 128, n = 128;
    const tensor::Tensor a = random_tensor(m, k, rng);
    const tensor::Tensor b = random_tensor(k, n, rng);
    const tensor::Tensor dc = random_tensor(m, n, rng);
    tensor::Tensor da(m, k), db(k, n);
    const double t_ref = timed_seconds(reps, [&] {
      da.zero();
      db.zero();
      tensor::matmul_backward_reference(a, b, dc, da, db);
    });
    const double t_par = timed_seconds(reps, [&] {
      da.zero();
      db.zero();
      tensor::matmul_backward(a, b, dc, da, db);
    });
    // Two products (dA += dC.B^T and dB += A^T.dC), 2*m*k*n flops each.
    const double bwd_flops = 2.0 * 2.0 * m * k * n;
    json.raw("matmul_backward_128",
             json_object({{"reference_ms", t_ref * 1e3},
                          {"reference_gflops", bwd_flops / t_ref * 1e-9},
                          {"tiled_ms", t_par * 1e3},
                          {"tiled_gflops", bwd_flops / t_par * 1e-9},
                          {"speedup", t_ref / t_par}}));
    std::printf("== matmul_backward 128^3: ref %.3f ms, tiled %.3f ms "
                "(%.2fx, %.2f GF/s)\n",
                t_ref * 1e3, t_par * 1e3, t_ref / t_par,
                bwd_flops / t_par * 1e-9);
  }

  // ---- Allocation probe: steady-state training + decode steps. ----
  {
    llm::ModelConfig mc;
    mc.vocab_size = 32;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ff_hidden = 64;
    mc.max_seq_len = 32;
    llm::MiniLlm model(mc, 3);
    const std::vector<int> ids = {2, 5, 6, 7, 9, 4, 8, 11};
    std::vector<int> targets(ids.begin() + 1, ids.end());
    targets.push_back(3);
    nn::CrossEntropyResult ce;
    auto train_step = [&] {
      tensor::Tensor& logits = model.forward_shared(ids, /*training=*/true);
      nn::cross_entropy_into(logits, targets, ce);
      model.backward(ce.dlogits);
    };
    train_step();
    train_step();  // warm: pools at the step's high-water mark
    const std::uint64_t before_train = tensor::allocation_count();
    train_step();
    const long long train_allocs =
        static_cast<long long>(tensor::allocation_count() - before_train);

    llm::DecodeSession session(model);
    session.step(2);
    session.step(5);
    const std::uint64_t before_decode = tensor::allocation_count();
    session.step(6);
    const long long decode_allocs =
        static_cast<long long>(tensor::allocation_count() - before_decode);
    json.raw("allocations",
             json_object({{"steady_train_step", double(train_allocs)},
                          {"steady_decode_step", double(decode_allocs)}}));
    std::printf("== allocations: steady train step %lld, decode step %lld\n",
                train_allocs, decode_allocs);
  }

  // ---- LoRA training step at the paper geometry (kernel layer). ----
  // One sequence's forward, loss and backward on a LoRA-attached model with
  // the ExperimentConfig geometry (vocab 430, d 48, 4 heads, 2 layers,
  // ff 96); the loss supervises the rows after T/3, as a dialogue does.
  {
    llm::ModelConfig mc;
    mc.vocab_size = 430;
    mc.dim = 48;
    mc.heads = 4;
    mc.layers = 2;
    mc.ff_hidden = 96;
    mc.max_seq_len = 64;
    llm::MiniLlm model(mc, opt.seed);
    model.attach_lora(nn::LoraConfig{});
    nn::CrossEntropyResult ce;
    util::Rng ids_rng(opt.seed + 1);
    std::string rows = "[";
    for (const std::size_t T : {16, 32, 64}) {
      std::vector<int> ids(T);
      for (int& id : ids) {
        id = 5 + static_cast<int>(ids_rng.uniform_index(mc.vocab_size - 5));
      }
      std::vector<int> targets(T, -1);
      for (std::size_t t = T / 3; t + 1 < T; ++t) targets[t] = ids[t + 1];
      const llm::HeadSpan head = llm::supervised_head_span(targets);
      const int steps = opt.quick ? 40 : 200;
      const double t = timed_seconds(reps, [&] {
        for (int i = 0; i < steps; ++i) {
          tensor::Tensor& logits = model.forward_shared(ids, /*training=*/true, head);
          nn::cross_entropy_into(logits, targets, ce, /*ignore_index=*/-1,
                                 head.begin);
          model.backward(ce.dlogits);
        }
      });
      const double us = t / steps * 1e6;
      if (T != 16) rows += ", ";
      rows += json_object({{"T", double(T)}, {"us", us}});
      std::printf("== train_step (LoRA, paper geometry) T=%zu: %.1f us\n", T, us);
    }
    json.raw("train_step", rows + "]");
  }

  // ---- Cross-tenant overlay decode at the paper geometry (decode layer).
  // The fleet's evaluation flush: 8 users' LoRA overlays (r 8, alpha 16)
  // over one frozen adapter-free base, 12 decode lanes, 4 requests per
  // user interleaved across users; tok/s next to the same requests on the
  // bare base. The width-12 overlay ids must equal a width-1 run's (a
  // mismatch fails the bench, DESIGN.md §12-§13). ----
  {
    llm::ModelConfig mc;
    mc.vocab_size = 430;
    mc.dim = 48;
    mc.heads = 4;
    mc.layers = 2;
    mc.ff_hidden = 96;
    mc.max_seq_len = 64;
    llm::MiniLlm model(mc, opt.seed + 2);
    model.freeze();
    constexpr std::size_t kUsers = 8;
    constexpr std::size_t kWidth = 12;
    constexpr std::size_t kRequests = 4 * kUsers;
    constexpr std::size_t kPromptLen = 8;
    util::Rng overlay_rng(opt.seed + 3);
    std::vector<nn::LoraOverlaySet> users(kUsers);
    for (nn::LoraOverlaySet& user : users) {
      user.scaling = 16.0f / 8.0f;
      for (const nn::Linear* site : model.lora_linears()) {
        user.sites.push_back(
            {random_tensor(site->in_features(), 8, overlay_rng),
             random_tensor(8, site->out_features(), overlay_rng)});
        for (tensor::Tensor* t : {&user.sites.back().a, &user.sites.back().b}) {
          *t *= 0.05f;
        }
      }
    }
    llm::SamplerConfig sc;
    sc.temperature = 0.5f;
    sc.max_new_tokens = 24;
    const auto prompt_for = [&](std::size_t r) {
      std::vector<int> p(kPromptLen);
      for (std::size_t i = 0; i < kPromptLen; ++i) {
        p[i] = 5 + static_cast<int>(((r * kPromptLen + i) * 2654435761ull) %
                                    (mc.vocab_size - 5));
      }
      return p;
    };
    // One flush of every request; returns the tokens pushed through the
    // model (prompt + generated).
    const auto run_flush = [&](std::size_t width, bool overlays,
                               std::vector<std::vector<int>>* outs) {
      llm::BatchedDecodeScheduler sched(model, width);
      std::vector<std::size_t> tickets(kRequests);
      for (std::size_t r = 0; r < kRequests; ++r) {
        tickets[r] = sched.submit(prompt_for(r), sc, util::Rng(300 + r),
                                  overlays ? &users[r % kUsers] : nullptr);
      }
      sched.run();
      std::size_t tokens = 0;
      for (std::size_t r = 0; r < kRequests; ++r) {
        tokens += kPromptLen + sched.result(tickets[r]).size();
        if (outs) outs->push_back(sched.result(tickets[r]));
      }
      return tokens;
    };
    std::vector<std::vector<int>> wide, narrow;
    const std::size_t overlay_tokens = run_flush(kWidth, true, &wide);
    run_flush(1, true, &narrow);
    const bool exact = wide == narrow;
    if (!exact) {
      std::fprintf(stderr,
                   "bench_perf: overlay decode at batch=%zu is NOT "
                   "bit-identical to batch=1\n",
                   kWidth);
      ++failures;
    }
    const std::size_t base_tokens = run_flush(kWidth, false, nullptr);
    const double overlay_tok_s =
        double(overlay_tokens) /
        timed_seconds(reps, [&] { run_flush(kWidth, true, nullptr); });
    const double base_tok_s =
        double(base_tokens) /
        timed_seconds(reps, [&] { run_flush(kWidth, false, nullptr); });
    json.raw("overlay_decode",
             json_object({{"users", double(kUsers)},
                          {"batch", double(kWidth)},
                          {"overlay_tokens", double(overlay_tokens)},
                          {"overlay_tokens_per_sec", overlay_tok_s},
                          {"base_tokens", double(base_tokens)},
                          {"base_tokens_per_sec", base_tok_s},
                          {"overlay_vs_base", overlay_tok_s / base_tok_s},
                          {"batch1_exact", exact ? 1.0 : 0.0}}));
    std::printf("== overlay decode (paper geometry, %zu users, batch=%zu): "
                "%.0f tok/s, bare base %.0f tok/s (%.2fx)%s\n",
                kUsers, kWidth, overlay_tok_s, base_tok_s,
                overlay_tok_s / base_tok_s, exact ? "" : "  [MISMATCH]");
  }

  // ---- IDD: cached-norm fast path vs. direct Eq. 4-5. ----
  {
    const std::size_t entries = opt.quick ? 64 : 256;
    const std::size_t dim = 64;
    core::DataBuffer buffer(entries);
    for (std::size_t i = 0; i < entries; ++i) {
      core::BufferEntry e;
      e.embedding = random_tensor(1, dim, rng);
      e.dominant_domain = 0;
      e.inserted_at = i;
      buffer.add(std::move(e));
    }
    const tensor::Tensor cand = random_tensor(1, dim, rng);
    const double cand_norm = std::sqrt(tensor::sum_squares(cand));
    const int idd_calls = opt.quick ? 200 : 1000;
    double sink = 0.0;
    const double t_direct = timed_seconds(reps, [&] {
      const auto embs = buffer.embeddings_in_domain(0);
      for (int c = 0; c < idd_calls; ++c) {
        sink += core::in_domain_dissimilarity(cand, embs);
      }
    });
    const double t_cached = timed_seconds(reps, [&] {
      const auto embs = buffer.normed_embeddings_in_domain(0);
      for (int c = 0; c < idd_calls; ++c) {
        sink += core::in_domain_dissimilarity_cached(cand, cand_norm, embs);
      }
    });
    json.raw("idd",
             json_object({{"buffer_entries", double(entries)},
                          {"dim", double(dim)},
                          {"calls", double(idd_calls)},
                          {"direct_us_per_call", t_direct / idd_calls * 1e6},
                          {"cached_us_per_call", t_cached / idd_calls * 1e6},
                          {"speedup", t_direct / t_cached}}));
    std::printf("== idd (%zu entries): direct %.2f us, cached %.2f us "
                "(%.2fx)  [sink %.1f]\n",
                entries, t_direct / idd_calls * 1e6,
                t_cached / idd_calls * 1e6, t_direct / t_cached, sink);
  }

  // ---- int8 GEMM: quantized kernel vs. the fp32 tiled kernel. ----
  //
  // The decode-shaped rows (m=1, m=4) are the ones that matter on-device:
  // KV-cached generation is a stream of matvecs against every weight matrix,
  // so once the model spills L2 the kernel is memory-bound and int8's 4x
  // traffic reduction is the whole win. "gflops" counts the same 2*m*k*n
  // effective flops for both kernels so the columns are comparable.
  {
    std::printf("== qmatmul ==\n");
    const std::size_t qshapes[][3] = {
        {1, 512, 512}, {4, 512, 512}, {64, 512, 512}, {256, 256, 256}};
    std::string qrows = "[";
    for (std::size_t si = 0; si < sizeof(qshapes) / sizeof(qshapes[0]); ++si) {
      const auto& s = qshapes[si];
      const tensor::Tensor a = random_tensor(s[0], s[1], rng);
      const tensor::Tensor b = random_tensor(s[1], s[2], rng);
      const tensor::QuantizedTensor qb =
          tensor::QuantizedTensor::quantize(b, tensor::QuantAxis::kAlongRows);
      tensor::Tensor c(s[0], s[2]);
      const double flops = 2.0 * s[0] * s[1] * s[2];
      const double t_fp32 =
          timed_seconds(reps, [&] { tensor::matmul_into(a, b, c); });
      const double t_q =
          timed_seconds(reps, [&] { tensor::qmatmul_into(a, qb, c); });
      const double t_qref =
          timed_seconds(reps, [&] { tensor::qmatmul_reference(a, qb); });
      const auto row = json_object({{"m", double(s[0])},
                                    {"k", double(s[1])},
                                    {"n", double(s[2])},
                                    {"fp32_ms", t_fp32 * 1e3},
                                    {"fp32_gflops", flops / t_fp32 * 1e-9},
                                    {"int8_ms", t_q * 1e3},
                                    {"int8_gflops", flops / t_q * 1e-9},
                                    {"int8_reference_ms", t_qref * 1e3},
                                    {"speedup_vs_fp32", t_fp32 / t_q}});
      std::printf("  %zux%zux%zu: fp32 %.3f ms, int8 %.3f ms (%.2fx)\n",
                  s[0], s[1], s[2], t_fp32 * 1e3, t_q * 1e3, t_fp32 / t_q);
      if (si) qrows += ", ";
      qrows += row;
    }
    qrows += "]";
    json.raw("qmatmul", qrows);
  }

  // ---- int8 end-to-end: decode throughput, memory ledger, quality. ----
  //
  // Model sized so the fp32 weights (~70 MB) dwarf L2: the regime where an
  // on-device decode is weight-streaming-bound and quantization pays.
  {
    llm::ModelConfig mc;
    mc.vocab_size = 4096;
    mc.dim = 512;
    mc.heads = 8;
    mc.layers = 6;
    mc.ff_hidden = 1024;
    mc.max_seq_len = 64;
    llm::MiniLlm model(mc, 21);
    const std::size_t decode_tokens = mc.max_seq_len;
    const int decode_reps = opt.quick ? 1 : 3;
    const auto fixed_token = [&](std::size_t i) {
      return static_cast<int>((i * 2654435761ull) % mc.vocab_size);
    };
    const auto run_session = [&] {
      llm::DecodeSession session(model);
      for (std::size_t i = 0; i < decode_tokens; ++i) {
        session.step(fixed_token(i));
      }
    };

    // Fixed seeded token stream for the quality row: independent of --seed
    // so the perplexity-delta figure is comparable across bench runs.
    const std::size_t ppl_seqs = opt.quick ? 2 : 8;
    std::vector<std::vector<int>> streams(ppl_seqs);
    util::Rng ppl_rng(0x9D5EEDull);
    for (auto& ids : streams) {
      ids.resize(mc.max_seq_len);
      for (auto& id : ids) {
        id = static_cast<int>(ppl_rng.uniform_index(mc.vocab_size));
      }
    }
    const auto mean_nll = [&] {
      double loss_sum = 0.0;
      std::size_t count = 0;
      for (const auto& ids : streams) {
        std::vector<int> targets(ids.begin() + 1, ids.end());
        targets.push_back(-1);  // last position unsupervised
        const tensor::Tensor logits = model.forward(ids, /*training=*/false);
        const auto ce = nn::cross_entropy(logits, targets);
        loss_sum += ce.loss * static_cast<double>(ce.count);
        count += ce.count;
      }
      return loss_sum / static_cast<double>(count);
    };

    const devicesim::MemoryLedger led_fp32 =
        devicesim::model_memory_ledger(model);
    const double t_fp32 = timed_seconds(decode_reps, run_session);
    const double ppl_fp32 = nn::perplexity(mean_nll());

    model.set_inference_precision(nn::InferencePrecision::kInt8);
    const devicesim::MemoryLedger led_int8 =
        devicesim::model_memory_ledger(model);
    const double t_int8 = timed_seconds(decode_reps, run_session);
    const double ppl_int8 = nn::perplexity(mean_nll());
    model.set_inference_precision(nn::InferencePrecision::kFp32);

    const double tok_fp32 = double(decode_tokens) / t_fp32;
    const double tok_int8 = double(decode_tokens) / t_int8;
    const double ppl_delta_pct = (ppl_int8 - ppl_fp32) / ppl_fp32 * 100.0;
    json.raw("int8_decode",
             json_object({{"model_params", double(model.num_parameters())},
                          {"decode_tokens", double(decode_tokens)},
                          {"fp32_tokens_per_sec", tok_fp32},
                          {"int8_tokens_per_sec", tok_int8},
                          {"speedup", tok_int8 / tok_fp32}}));
    json.raw("memory_ledger",
             json_object(
                 {{"fp32_model_bytes", double(led_fp32.model_bytes())},
                  {"int8_model_bytes", double(led_int8.model_bytes())},
                  {"int8_vs_fp32_ratio", led_int8.model_ratio_vs_fp32()},
                  {"int8_scale_bytes", double(led_int8.scale_bytes)},
                  {"norm_bytes", double(led_int8.norm_bytes)},
                  {"kv_cache_bytes", double(led_int8.kv_cache_bytes)}}));
    json.raw("int8_quality",
             json_object({{"ppl_fp32", ppl_fp32},
                          {"ppl_int8", ppl_int8},
                          {"ppl_delta_pct", ppl_delta_pct}}));
    std::printf("== int8 decode (%.1fM params): fp32 %.2f tok/s, int8 %.2f "
                "tok/s (%.2fx)\n",
                double(model.num_parameters()) * 1e-6, tok_fp32, tok_int8,
                tok_int8 / tok_fp32);
    std::printf("== memory: fp32 %.1f MB -> int8 %.1f MB (%.3fx); "
                "ppl %.2f -> %.2f (%+.3f%%)\n",
                double(led_fp32.model_bytes()) / (1024.0 * 1024.0),
                double(led_int8.model_bytes()) / (1024.0 * 1024.0),
                led_int8.model_ratio_vs_fp32(), ppl_fp32, ppl_int8,
                ppl_delta_pct);

    // ---- Continuous-batched decode: tok/s at batch ∈ {1,2,4,8}, fp32 and
    // int8, on the same weight-streaming-bound model. Every width's output
    // is checked token-for-token against a serial DecodeSession loop (an
    // implementation independent of the scheduler) with the same
    // per-session seeds; a mismatch or a batch=4 int8 slowdown vs batch=1
    // fails the bench (DESIGN.md §12). The model is frozen first, as the
    // fleet's decode base is, so its fp32 products read pre-packed weight
    // panels (DESIGN.md §8). ----
    {
      model.freeze();
      llm::SamplerConfig sc;
      sc.temperature = 0.5f;
      sc.max_new_tokens = 48;
      const std::size_t prompt_len = 8;
      const auto prompt_for = [&](std::size_t b) {
        std::vector<int> p(prompt_len);
        for (std::size_t i = 0; i < prompt_len; ++i) {
          p[i] = fixed_token(b * prompt_len + i);
        }
        return p;
      };
      // One session decoded alone: prime, then sample until <eos>, the
      // token budget, or a full session.
      const auto serial_decode = [&](const std::vector<int>& prompt,
                                     std::uint64_t seed) {
        util::Rng rng(seed);
        llm::DecodeSession session(model);
        std::vector<int> ids;
        const tensor::Tensor* logits = &session.prime(prompt);
        while (ids.size() < sc.max_new_tokens && !session.full()) {
          const int next = llm::sample_from_logits(logits->row(0),
                                                   logits->cols(), sc, rng);
          if (next == text::Vocab::kEos) break;
          ids.push_back(next);
          if (ids.size() >= sc.max_new_tokens || session.full()) break;
          logits = &session.step(next);
        }
        return ids;
      };
      // One full continuous-batched generation of `width` sessions; returns
      // the total tokens pushed through the model (prompt + generated).
      const auto run_batch = [&](std::size_t width,
                                 std::vector<std::vector<int>>* outs) {
        llm::BatchedDecodeScheduler sched(model, width);
        std::vector<std::size_t> tickets(width);
        for (std::size_t b = 0; b < width; ++b) {
          tickets[b] = sched.submit(prompt_for(b), sc, util::Rng(100 + b));
        }
        sched.run();
        std::size_t tokens = 0;
        for (std::size_t b = 0; b < width; ++b) {
          const std::vector<int>& ids = sched.result(tickets[b]);
          tokens += prompt_len + ids.size();
          if (outs) (*outs)[b] = ids;
        }
        return tokens;
      };

      const std::size_t widths[] = {1, 2, 4, 8};
      std::string rows = "[";
      bool first_row = true;
      double tok_b1_int8 = 0.0;
      double tok_b4_int8 = 0.0;
      std::printf("== batched decode (prompt %zu, up to %zu new tokens)\n",
                  prompt_len, sc.max_new_tokens);
      for (int pass = 0; pass < 2; ++pass) {
        const bool int8_pass = pass == 1;
        model.set_inference_precision(int8_pass
                                          ? nn::InferencePrecision::kInt8
                                          : nn::InferencePrecision::kFp32);
        double tok_b1 = 0.0;
        for (std::size_t width : widths) {
          std::vector<std::vector<int>> outs(width);
          const std::size_t tokens = run_batch(width, &outs);
          bool exact = true;
          for (std::size_t b = 0; b < width; ++b) {
            if (serial_decode(prompt_for(b), 100 + b) != outs[b]) {
              exact = false;
            }
          }
          if (!exact) {
            std::fprintf(stderr,
                         "bench_perf: batched decode (%s, batch=%zu) is NOT "
                         "bit-identical to serial decode\n",
                         int8_pass ? "int8" : "fp32", width);
            ++failures;
          }
          const double t =
              timed_seconds(decode_reps, [&] { run_batch(width, nullptr); });
          const double tok_s = double(tokens) / t;
          if (width == 1) tok_b1 = tok_s;
          if (int8_pass && width == 1) tok_b1_int8 = tok_s;
          if (int8_pass && width == 4) tok_b4_int8 = tok_s;
          char row[224];
          std::snprintf(row, sizeof row,
                        "{\"precision\":\"%s\",\"batch\":%zu,\"tokens\":%zu,"
                        "\"tokens_per_sec\":%.2f,\"speedup_vs_batch1\":%.3f,"
                        "\"serial_exact\":%s}",
                        int8_pass ? "int8" : "fp32", width, tokens, tok_s,
                        tok_b1 > 0.0 ? tok_s / tok_b1 : 1.0,
                        exact ? "true" : "false");
          if (!first_row) rows += ", ";
          first_row = false;
          rows += row;
          std::printf("  %s batch=%zu: %8.2f tok/s (%.2fx vs batch=1)%s\n",
                      int8_pass ? "int8" : "fp32", width, tok_s,
                      tok_b1 > 0.0 ? tok_s / tok_b1 : 1.0,
                      exact ? "" : "  [MISMATCH]");
        }
      }
      model.set_inference_precision(nn::InferencePrecision::kFp32);
      rows += "]";
      json.raw("batched_decode", rows);
      if (tok_b4_int8 < tok_b1_int8) {
        std::fprintf(stderr,
                     "bench_perf: int8 batch=4 decode (%.2f tok/s) is slower "
                     "than batch=1 (%.2f tok/s)\n",
                     tok_b4_int8, tok_b1_int8);
        ++failures;
      }
    }
  }

  // ---- End-to-end engine: score / fine-tune / evaluate. ----
  {
    text::Tokenizer tokenizer = exp::make_device_tokenizer();
    llm::ModelConfig mc;
    mc.vocab_size = tokenizer.vocab().size();
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ff_hidden = 64;
    mc.max_seq_len = 64;
    llm::MiniLlm model(mc, 7);
    llm::LlmEmbeddingExtractor extractor(model, tokenizer);
    data::UserOracle oracle(opt.seed, lexicon::builtin_dictionary());
    core::EngineConfig ec;
    ec.buffer_bins = 16;
    ec.finetune_interval = 0;
    ec.train.epochs = 1;
    core::PersonalizationEngine engine(
        model, tokenizer, extractor, oracle, lexicon::builtin_dictionary(),
        exp::make_policy("Ours"),
        std::make_unique<core::ParaphraseSynthesizer>(
            lexicon::builtin_dictionary(), util::Rng(9)),
        ec, util::Rng(11));
    data::Generator gen(data::meddialog_profile(), oracle, rng.split());
    const std::size_t stream_n = opt.quick ? 24 : 60;
    const std::size_t test_n = opt.quick ? 6 : 12;
    const auto ds = gen.generate(stream_n, test_n);

    // Per-stage attribution comes from the metrics registry; zero it so the
    // engine histograms cover exactly this round (registrations and cached
    // references survive a reset).
    obs::registry().reset();

    util::Stopwatch sw;
    for (const auto& s : ds.stream) engine.process(s);
    const double stream_seconds = sw.elapsed_seconds();
    const double score_rate = double(stream_n) / stream_seconds;

    sw.reset();
    engine.finetune_now();
    const double ft_seconds = sw.elapsed_seconds();

    std::vector<const data::DialogueSet*> test;
    for (const auto& s : ds.test) test.push_back(&s);
    sw.reset();
    engine.evaluate_per_set(test);
    const double t_eval = sw.elapsed_seconds();
    const double sec_per_epoch =
        obs::registry().gauge("train.seconds_per_epoch.last").value();
    json.raw("engine",
             json_object(
                 {{"stream_sets", double(stream_n)},
                  {"score_sets_per_sec", score_rate},
                  {"finetune_seconds_per_epoch", sec_per_epoch},
                  {"finetune_total_seconds", ft_seconds},
                  {"eval_sets_per_sec", double(test_n) / t_eval}}));
    std::printf("== engine: score %.1f sets/s, finetune %.2f s/epoch, "
                "eval %.2f sets/s\n",
                score_rate, sec_per_epoch, double(test_n) / t_eval);

    // ---- Per-stage time breakdown, read back from the registry. ----
    //
    // The round wall clock is the sum of the three measured segments above
    // (stream processing, fine-tune, evaluation). The engine-level
    // stage histograms should re-account nearly all of it; `other` is
    // bookkeeping outside the instrumented stages (annotation, buffer
    // insert, quarantine checks).
    {
      const obs::MetricsSnapshot snap = obs::registry().snapshot();
      const double round_wall = stream_seconds + ft_seconds + t_eval;
      const struct {
        const char* label;
        const char* metric;
      } stages[] = {
          {"score", "engine.score.us"},
          {"offer", "engine.offer.us"},
          {"finetune", "engine.finetune.us"},
          {"evaluate", "engine.evaluate.us"},
      };
      std::printf("== stage breakdown (from metrics registry)\n");
      std::printf("  %-10s %8s %12s %12s %12s\n", "stage", "calls",
                  "total_ms", "mean_us", "p95_us");
      double stage_sum = 0.0;
      std::vector<std::pair<std::string, double>> kv;
      for (const auto& st : stages) {
        const obs::MetricSample* s = snap.find(st.metric);
        const double total_s = s ? s->hist.sum / 1e6 : 0.0;
        stage_sum += total_s;
        std::printf("  %-10s %8llu %12.2f %12.1f %12.1f\n", st.label,
                    static_cast<unsigned long long>(s ? s->hist.count : 0),
                    total_s * 1e3, s ? s->hist.mean : 0.0,
                    s ? s->hist.p95 : 0.0);
        kv.emplace_back(std::string(st.label) + "_seconds", total_s);
      }
      const double other = round_wall - stage_sum;
      const double coverage_pct =
          round_wall > 0.0 ? stage_sum / round_wall * 100.0 : 0.0;
      std::printf("  %-10s %8s %12.2f\n", "other", "-", other * 1e3);
      std::printf("  stage sum %.2f ms of %.2f ms wall (%.1f%% coverage)\n",
                  stage_sum * 1e3, round_wall * 1e3, coverage_pct);
      kv.emplace_back("round_wall_seconds", round_wall);
      kv.emplace_back("stage_sum_seconds", stage_sum);
      kv.emplace_back("other_seconds", other);
      kv.emplace_back("coverage_pct", coverage_pct);
      json.raw("stage_breakdown", json_object(kv));
      // Gate: the stage histograms must re-account >= 99% of the round wall
      // clock — less means a hot path lost its instrumentation.
      if (round_wall > 0.0 && coverage_pct < 99.0) {
        ++failures;
        std::fprintf(stderr,
                     "FAIL: stage coverage %.1f%% of round wall < 99%%\n",
                     coverage_pct);
      }
    }
  }

  // ---- Disabled-tracing overhead on the decode loop. ----
  //
  // DESIGN.md §10 budgets a disabled ODLP_TRACE_SCOPE at ≤1% of a decode
  // step. Measure the marginal cost of the scope object (one relaxed atomic
  // load + branch, twice) against a real decode step on a small model.
  if (!obs::tracing_enabled()) {
    constexpr int kSpanIters = 1 << 18;
    volatile unsigned sink = 0;
    const double t_base = timed_seconds(reps, [&] {
      for (int i = 0; i < kSpanIters; ++i) sink = sink + 1;
    });
    const double t_span = timed_seconds(reps, [&] {
      for (int i = 0; i < kSpanIters; ++i) {
        ODLP_TRACE_SCOPE("bench.noop");
        sink = sink + 1;
      }
    });
    const double span_ns =
        std::max(0.0, (t_span - t_base) / double(kSpanIters) * 1e9);

    llm::ModelConfig mc;
    mc.vocab_size = 64;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ff_hidden = 64;
    mc.max_seq_len = 32;
    llm::MiniLlm model(mc, 5);
    llm::DecodeSession session(model);
    const int steps = int(mc.max_seq_len) / 2;
    const double t_decode = timed_seconds(reps, [&] {
      session.reset();
      for (int i = 0; i < steps; ++i) session.step(1 + (i % 32));
    });
    const double step_us = t_decode / double(steps) * 1e6;
    // One decode.step span per step.
    const double overhead_pct = span_ns / (step_us * 1e3) * 100.0;
    json.raw("trace_off_overhead",
             json_object({{"span_ns", span_ns},
                          {"decode_step_us", step_us},
                          {"overhead_pct", overhead_pct}}));
    std::printf("== tracing off: %.1f ns/span, decode step %.1f us "
                "(%.4f%% overhead)\n",
                span_ns, step_us, overhead_pct);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_perf: cannot open %s\n", out_path.c_str());
    return 1;
  }
  const std::string body = json.finish();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  if (!metrics_out.empty()) {
    obs::write_metrics_json(metrics_out);
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  if (failures != 0) {
    std::fprintf(stderr, "bench_perf: %d hard gate(s) failed\n", failures);
    return 1;
  }
  return 0;
}
