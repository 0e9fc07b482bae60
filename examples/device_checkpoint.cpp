// Device checkpoint lifecycle: run half a personalization session, persist
// all on-device state (model weights, selection buffer, vocabulary, engine
// stats) through the crash-safe CheckpointManager, simulate a power loss in
// the middle of a later save, then restore into a fresh process-equivalent
// — proving the device rolls back to the newest complete generation and
// continues, never crashes or trains on torn state.
//
//   ./example_device_checkpoint [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "data/generator.h"
#include "exp/experiment.h"
#include "text/vocab_io.h"
#include "util/fault.h"
#include "util/table.h"

using namespace odlp;

namespace {

core::EngineConfig engine_config() {
  core::EngineConfig ec;
  ec.buffer_bins = 16;
  ec.finetune_interval = 60;
  ec.train.epochs = 12;
  ec.train.learning_rate = 1e-2f;
  ec.sampler.max_new_tokens = 16;
  return ec;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5;
  const auto& dict = lexicon::builtin_dictionary();
  const std::string ckpt_dir = "/tmp/odlp_ckpt_demo";
  std::filesystem::remove_all(ckpt_dir);

  exp::ExperimentConfig cfg;
  cfg.seed = seed;
  data::UserOracle oracle(seed, dict);
  data::Generator generator(data::meddialog_profile(), oracle, util::Rng(seed));
  const auto dataset = generator.generate(240, 60);
  std::vector<const data::DialogueSet*> test;
  for (std::size_t i = 0; i < 24; ++i) test.push_back(&dataset.test[i]);

  double rouge_mid = 0.0;
  std::uint64_t last_good_gen = 0;

  // --- session 1: first half of the stream, periodic checkpoints, then a
  // power cut in the middle of the final save ---
  {
    text::Tokenizer tokenizer = exp::make_device_tokenizer();
    auto model = exp::make_base_model(cfg, tokenizer);
    llm::LlmEmbeddingExtractor extractor(*model, tokenizer);
    util::Rng rng(seed ^ 1);
    core::PersonalizationEngine engine(
        *model, tokenizer, extractor, oracle, dict,
        std::make_unique<core::QualityReplacementPolicy>(),
        std::make_unique<core::ParaphraseSynthesizer>(dict, rng.split()),
        engine_config(), rng.split());
    core::CheckpointManager ckpt(ckpt_dir, /*keep_last=*/3);

    for (std::size_t i = 0; i < 60; ++i) engine.process(dataset.stream[i]);
    const std::uint64_t gen1 = ckpt.save(*model, engine.buffer(),
                                         tokenizer.vocab(), engine.stats());
    std::printf("session 1: 60 sets processed, generation %llu saved\n",
                static_cast<unsigned long long>(gen1));

    for (std::size_t i = 60; i < 120; ++i) engine.process(dataset.stream[i]);
    engine.finetune_now();
    rouge_mid = engine.evaluate(test);
    last_good_gen = ckpt.save(*model, engine.buffer(), tokenizer.vocab(),
                              engine.stats());
    std::printf("session 1: 120 sets processed, ROUGE-1 %.4f, generation %llu "
                "saved\n",
                rouge_mid, static_cast<unsigned long long>(last_good_gen));

    // Power loss mid-save: the 4th write of the next generation's model file
    // dies. CheckpointManager writes the manifest last, so the torn
    // generation never becomes a restore target.
    util::fault::FaultSchedule power_loss;
    power_loss.events.push_back({util::fault::FaultKind::kWriteFail,
                                 "model.bin", /*at=*/3, /*param=*/0,
                                 /*once=*/true});
    try {
      util::fault::ScopedSchedule fault(power_loss);
      ckpt.save(*model, engine.buffer(), tokenizer.vocab(), engine.stats());
      std::printf("session 1: UNEXPECTED — save survived the injected fault\n");
    } catch (const util::fault::InjectedFault& e) {
      std::printf("session 1: simulated power loss mid-save (%s)\n", e.what());
    }
  }

  // --- session 2: reboot — walk back to the newest complete generation and
  // continue with the second half ---
  {
    core::CheckpointManager ckpt(ckpt_dir, /*keep_last=*/3);
    const auto contents = ckpt.newest_valid();
    if (!contents) {
      std::printf("session 2: no restorable checkpoint found\n");
      return 1;
    }
    std::printf("session 2: newest valid generation is %llu (torn generation "
                "%llu skipped)\n",
                static_cast<unsigned long long>(contents->generation),
                static_cast<unsigned long long>(contents->generation + 1));

    // Vocabulary first (it fixes the model geometry), then the model with
    // LoRA attached exactly as the saving engine had it, then everything
    // else via the verified restore path.
    text::Tokenizer tokenizer(text::load_vocab(contents->vocab_path));
    llm::ModelConfig mc = exp::make_model_config(cfg, tokenizer);
    llm::MiniLlm model(mc, /*seed=*/999);  // arbitrary init, overwritten
    core::EngineConfig ec = engine_config();
    model.attach_lora(ec.lora);
    const auto restored = ckpt.restore(model);
    if (!restored || restored->generation != last_good_gen) {
      std::printf("session 2: rollback failed\n");
      return 1;
    }

    llm::LlmEmbeddingExtractor extractor(model, tokenizer);
    util::Rng rng(seed ^ 2);
    core::PersonalizationEngine engine(
        model, tokenizer, extractor, oracle, dict,
        std::make_unique<core::QualityReplacementPolicy>(),
        std::make_unique<core::ParaphraseSynthesizer>(dict, rng.split()),
        ec, rng.split());
    engine.restore_buffer(core::DataBuffer(restored->buffer));
    const double rouge_after_reboot = engine.evaluate(test);
    std::printf("session 2: restored generation %llu (%zu buffered sets, %zu "
                "sets seen pre-crash), ROUGE-1 after reboot %.4f (persisted "
                "%.4f)\n",
                static_cast<unsigned long long>(restored->generation),
                restored->buffer.size(), restored->stats.seen,
                rouge_after_reboot, rouge_mid);

    for (std::size_t i = 120; i < 240; ++i) engine.process(dataset.stream[i]);
    engine.finetune_now();
    const double rouge_final = engine.evaluate(test);
    std::printf("session 2: processed remaining 120 sets, final ROUGE-1 %.4f\n",
                rouge_final);

    util::Table summary({"stage", "ROUGE-1"});
    summary.row().cell("after session 1 (pre-crash)").cell(rouge_mid, 4);
    summary.row().cell("restored (post-reboot)").cell(rouge_after_reboot, 4);
    summary.row().cell("after session 2").cell(rouge_final, 4);
    std::printf("\n%s", summary.to_string().c_str());
  }

  std::filesystem::remove_all(ckpt_dir);
  return 0;
}
