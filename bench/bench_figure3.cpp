// Reproduces Figure 3: ROUGE-1 and training time per epoch on MedDialog as a
// function of the number of synthesized dialogue sets generated per original
// buffered set (0..8).
//
// Paper's shape: ROUGE-1 gains saturate around six synthesized sets while
// training time per epoch keeps increasing (linearly in the training-set
// size). Both the measured wall-clock seconds per epoch and the analytic
// device-model seconds are reported.
#include "bench_common.h"
#include "devicesim/cost_model.h"

using namespace odlp;

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Figure 3",
      "ROUGE-1 / training time per epoch vs synthesized sets per original",
      opt);

  std::vector<std::size_t> counts = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  if (opt.quick) counts = {0, 2, 4, 6};

  util::Series rouge_series("rouge1_vs_synth", "synth_per_set", "rouge1");
  util::Series time_series("epoch_time_vs_synth", "synth_per_set", "sec_per_epoch");
  util::Table table({"synth_per_set", "rouge1", "wall_sec_per_epoch",
                     "modeled_sec_per_epoch(A10)", "train_examples"});

  for (std::size_t k : counts) {
    exp::ExperimentConfig config = bench::standard_config(opt);
    config.dataset = "MedDialog";
    config.method = "Ours";
    config.synth_per_set = k;
    config.record_curve = false;
    const exp::ExperimentResult r = exp::run_experiment(config);

    // Analytic device model: one fine-tune round trains buffer*(1+k)
    // sequences of ~32 tokens for `epochs` epochs on the A10-class device.
    text::Tokenizer tok = exp::make_device_tokenizer();
    const llm::ModelConfig mc = exp::make_model_config(config, tok);
    const std::size_t per_round = config.buffer_bins * (1 + k);
    const auto modeled = devicesim::finetune_cost(mc, per_round, 32.0, 1);

    rouge_series.add(static_cast<double>(k), r.final_rouge);
    time_series.add(static_cast<double>(k), r.last_seconds_per_epoch);
    table.row()
        .cell(static_cast<long long>(k))
        .cell(r.final_rouge, 4)
        .cell(r.last_seconds_per_epoch, 3)
        .cell(modeled.modeled_seconds, 6)
        .cell(static_cast<long long>(per_round));
    std::fprintf(stderr, "  [figure3] k=%zu: rouge %.4f, %.3fs/epoch (%.0fs)\n",
                 k, r.final_rouge, r.last_seconds_per_epoch, r.wall_seconds);
  }

  std::printf("%s\n%s\n%s\n", rouge_series.to_string().c_str(),
              time_series.to_string(3).c_str(), table.to_string().c_str());
  return 0;
}
