// Data synthesis (paper §3.3): generate semantically similar dialogue sets
// from each buffered original, filtered by the ROUGE-1 sanity check, right
// before each fine-tuning round.
//
// Two implementations (DESIGN.md §2):
//   * LlmSynthesizer       — sends the paper's fixed paraphrase prompt to the
//                            on-device LLM and parses the bracketed output.
//                            Faithful code path; output quality tracks the
//                            tiny model's ability, so it is exercised in
//                            tests/examples rather than the experiment
//                            harness.
//   * ParaphraseSynthesizer — lexicon-driven paraphraser (synonym swap within
//                            the same sub-lexicon, filler jitter, clause
//                            shuffle) emulating an instruction-following
//                            LLM's paraphrase at a controllable fidelity;
//                            used by the benchmark harness.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/sanity_check.h"
#include "data/dialogue.h"
#include "lexicon/lexicon.h"
#include "llm/minillm.h"
#include "llm/sampler.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace odlp::core {

struct SynthesisStats {
  std::size_t generated = 0;  // candidates produced
  std::size_t accepted = 0;   // candidates that passed the sanity check
};

class Synthesizer {
 public:
  virtual ~Synthesizer() = default;

  virtual std::string name() const = 0;

  // Produce up to `count` accepted synthetic variants of `original`.
  // Implementations generate candidates and filter through the sanity check;
  // `stats`, when non-null, accumulates generated/accepted counts.
  virtual std::vector<data::DialogueSet> synthesize(
      const data::DialogueSet& original, std::size_t count,
      SynthesisStats* stats) = 0;
};

// The paper's fixed synthesis prompt (§3.3).
std::string synthesis_prompt(const data::DialogueSet& original);

class ParaphraseSynthesizer final : public Synthesizer {
 public:
  struct Config {
    // Probability of swapping a content word for another from the same
    // sub-lexicon (preserves domain semantics, changes surface form).
    double synonym_swap_rate = 0.3;
    // Probability of dropping / inserting a filler word.
    double filler_jitter_rate = 0.25;
    SanityCheckConfig sanity;
  };

  ParaphraseSynthesizer(const lexicon::LexiconDictionary& dict, util::Rng rng);
  ParaphraseSynthesizer(const lexicon::LexiconDictionary& dict, util::Rng rng,
                        const Config& config);

  std::string name() const override { return "paraphrase"; }
  std::vector<data::DialogueSet> synthesize(const data::DialogueSet& original,
                                            std::size_t count,
                                            SynthesisStats* stats) override;

 private:
  std::string paraphrase_text(const std::string& text);

  const lexicon::LexiconDictionary& dict_;
  util::Rng rng_;
  Config config_;
  RougeSanityCheck sanity_;
};

class LlmSynthesizer final : public Synthesizer {
 public:
  // `decode_batch` is the continuous-batching width: candidate generations
  // are decoded in waves of up to this many concurrent KV-cached sessions.
  // Accepted outputs are bit-identical at every width (each attempt samples
  // from its own rng_.split() stream, consumed in attempt order).
  LlmSynthesizer(llm::MiniLlm& model, const text::Tokenizer& tokenizer,
                 const llm::SamplerConfig& sampler_config, util::Rng rng,
                 const SanityCheckConfig& sanity = SanityCheckConfig{},
                 std::size_t decode_batch = 4);

  std::string name() const override { return "llm"; }
  std::vector<data::DialogueSet> synthesize(const data::DialogueSet& original,
                                            std::size_t count,
                                            SynthesisStats* stats) override;

  // Extracts the []-delimited payload from raw LLM output; falls back to the
  // whole output when brackets are missing (small models often drop them).
  static std::string extract_bracketed(const std::string& raw);

 private:
  llm::MiniLlm& model_;
  const text::Tokenizer& tokenizer_;
  llm::SamplerConfig sampler_config_;
  util::Rng rng_;
  RougeSanityCheck sanity_;
  std::size_t decode_batch_;
};

}  // namespace odlp::core
