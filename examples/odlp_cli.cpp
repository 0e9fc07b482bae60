// odlp_cli: run any single personalization experiment from the command line —
// the knob-turning driver for exploring datasets, methods, buffer sizes, and
// the design-ablation options without writing code.
//
//   ./example_odlp_cli --dataset MedDialog --method Ours --bins 32 \
//       --stream 240 --epochs 16 --seed 7 --curve
//
// Flags (all optional):
//   --dataset NAME     ALPACA|DOLLY|OPENORCA|MedDialog|Prosocial|Empathetic
//   --method NAME      Ours|Random|FIFO|K-Center|EOE|DSS|IDD|WeightedSum
//   --bins N           buffer capacity in bins
//   --stream N         streamed dialogue sets
//   --interval N       fine-tune every N sets
//   --epochs N         fine-tune epochs per round
//   --lr X             LoRA learning rate
//   --synth N          synthesized sets per buffered original (0 disables)
//   --embedding SRC    llm|bow
//   --rmsnorm          use the Llama-style RMSNorm model variant
//   --budget N         annotation budget (0 = unlimited)
//   --temperature X    evaluation sampling temperature (paper: 0.5)
//   --repeats N        sampler seeds averaged per evaluation
//   --seed N           experiment seed
//   --curve            record + print the learning curve
//   --metrics-out PATH dump the obs metrics registry as JSON after the run
//   --trace-out PATH   record trace spans and flush Chrome-trace JSON
//                      (load in Perfetto / chrome://tracing). Equivalent to
//                      ODLP_TRACE=PATH in the environment.
#include <cstdio>

#include "exp/experiment.h"
#include "util/args.h"
#include "util/table.h"

using namespace odlp;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::vector<std::string> allowed = {
      "dataset", "method", "bins", "stream", "interval", "epochs",
      "lr",      "synth",  "embedding", "rmsnorm", "budget",
      "temperature", "repeats", "seed", "curve", "metrics-out",
      "trace-out", "help"};
  const auto unknown = args.unknown(allowed);
  if (!unknown.empty() || args.has("help")) {
    for (const auto& u : unknown) {
      std::fprintf(stderr, "unknown flag: --%s\n", u.c_str());
    }
    std::fprintf(stderr, "see the header of examples/odlp_cli.cpp for flags\n");
    return args.has("help") ? 0 : 2;
  }

  exp::ExperimentConfig config;
  config.dataset = args.get("dataset", "MedDialog");
  config.method = args.get("method", "Ours");
  config.buffer_bins = static_cast<std::size_t>(args.get_int("bins", 32));
  config.stream_size = static_cast<std::size_t>(args.get_int("stream", 240));
  config.finetune_interval =
      static_cast<std::size_t>(args.get_int("interval", 80));
  config.epochs = static_cast<std::size_t>(args.get_int("epochs", 16));
  config.learning_rate = static_cast<float>(args.get_double("lr", 1e-2));
  config.synth_per_set = static_cast<std::size_t>(args.get_int("synth", 3));
  config.embedding_source = args.get("embedding", "llm");
  config.use_rmsnorm = args.has("rmsnorm");
  config.annotation_budget =
      static_cast<std::size_t>(args.get_int("budget", 0));
  config.eval_temperature =
      static_cast<float>(args.get_double("temperature", 0.5));
  config.eval_repeats = static_cast<std::size_t>(args.get_int("repeats", 1));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.record_curve = args.has("curve");
  config.metrics_out = args.get("metrics-out", "");
  config.trace_out = args.get("trace-out", "");

  std::printf("odlp run: %s / %s, %zu bins, %zu sets, seed %llu\n\n",
              config.dataset.c_str(), config.method.c_str(), config.buffer_bins,
              config.stream_size,
              static_cast<unsigned long long>(config.seed));

  const exp::ExperimentResult r = exp::run_experiment(config);

  if (config.record_curve) {
    std::printf("%s\n", r.curve.to_series().to_string().c_str());
  }
  util::Table out({"metric", "value"});
  out.row().cell("final ROUGE-1").cell(r.final_rouge, 4);
  out.row().cell("annotations").cell(static_cast<long long>(r.annotation_requests));
  out.row().cell("fine-tune rounds").cell(static_cast<long long>(r.engine_stats.finetune_rounds));
  out.row().cell("synthetic sets used").cell(static_cast<long long>(r.engine_stats.synthesized_used));
  out.row().cell("buffer noise").cell(static_cast<long long>(r.buffer.noise));
  out.row().cell("buffer subtopics").cell(static_cast<long long>(r.buffer.distinct_subtopics));
  out.row().cell("wall seconds").cell(r.wall_seconds, 1);
  std::printf("%s", out.to_string().c_str());
  return 0;
}
