#include "core/synthesizer.h"

#include <algorithm>

#include "llm/batch_decode.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/normalize.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace odlp::core {

namespace {

// Shared instrumentation for both synthesizer implementations: generation
// candidates and ROUGE-gate verdicts, mirrored into the registry so the
// acceptance rate is visible without threading SynthesisStats around.
struct SynthMetrics {
  obs::Counter& generated = obs::registry().counter("synth.generated.sets");
  obs::Counter& accepted = obs::registry().counter("synth.accepted.sets");
  obs::Counter& rejected = obs::registry().counter("synth.rejected.sets");
  obs::Histogram& generate_us = obs::registry().histogram("synth.generate.us");
  obs::Histogram& gate_us = obs::registry().histogram("synth.gate.us");

  static SynthMetrics& get() {
    static SynthMetrics m;
    return m;
  }
};

bool gated_accepts(RougeSanityCheck& sanity, const data::DialogueSet& original,
                   const data::DialogueSet& candidate) {
  ODLP_TRACE_SCOPE("synth.gate");
  SynthMetrics& m = SynthMetrics::get();
  util::Stopwatch sw;
  const bool ok = sanity.accepts(original, candidate);
  m.gate_us.record(sw.elapsed_seconds() * 1e6);
  m.generated.inc();
  (ok ? m.accepted : m.rejected).inc();
  return ok;
}

}  // namespace

std::string synthesis_prompt(const data::DialogueSet& original) {
  // Verbatim from paper §3.3.
  return "Please refine and generate a text semantically similar to the "
         "following text block, no need to answer it, no need to explain, "
         "use [] to hold your generated response: " +
         original.text_block();
}

ParaphraseSynthesizer::ParaphraseSynthesizer(const lexicon::LexiconDictionary& dict,
                                             util::Rng rng)
    : ParaphraseSynthesizer(dict, rng, Config{}) {}

ParaphraseSynthesizer::ParaphraseSynthesizer(const lexicon::LexiconDictionary& dict,
                                             util::Rng rng, const Config& config)
    : dict_(dict), rng_(rng), config_(config), sanity_(config.sanity) {}

std::string ParaphraseSynthesizer::paraphrase_text(const std::string& text) {
  const auto tokens = text::normalize_and_split(text);
  const auto& filler = lexicon::filler_words();
  std::vector<std::string> out;
  out.reserve(tokens.size() + 2);

  for (const auto& token : tokens) {
    // Synonym swap: replace a lexicon word with another word from the same
    // sub-lexicon (the paraphrase stays on-topic but changes surface form).
    bool swapped = false;
    if (rng_.bernoulli(config_.synonym_swap_rate)) {
      for (const auto& domain : dict_.domains()) {
        if (!domain.contains(token)) continue;
        for (const auto& sub : domain.sublexicons()) {
          if (std::find(sub.words.begin(), sub.words.end(), token) !=
              sub.words.end()) {
            out.push_back(sub.words[rng_.uniform_index(sub.words.size())]);
            swapped = true;
            break;
          }
        }
        if (swapped) break;
      }
    }
    if (swapped) continue;

    // Filler jitter: occasionally drop a filler word or insert a new one.
    const bool is_filler =
        std::find(filler.begin(), filler.end(), token) != filler.end();
    if (is_filler && rng_.bernoulli(config_.filler_jitter_rate)) {
      continue;  // drop
    }
    out.push_back(token);
    if (rng_.bernoulli(config_.filler_jitter_rate * 0.5)) {
      out.push_back(filler[rng_.uniform_index(filler.size())]);
    }
  }
  if (out.empty()) out.push_back(tokens.empty() ? "okay" : tokens.front());
  return util::join(out, " ");
}

std::vector<data::DialogueSet> ParaphraseSynthesizer::synthesize(
    const data::DialogueSet& original, std::size_t count, SynthesisStats* stats) {
  ODLP_TRACE_SCOPE("synth.generate");
  util::Stopwatch sw;
  std::vector<data::DialogueSet> accepted;
  // Allow a few retries per requested set so the sanity check can reject
  // degenerate paraphrases without starving the output.
  const std::size_t max_attempts = count * 3;
  std::size_t attempts = 0;
  while (accepted.size() < count && attempts < max_attempts) {
    ++attempts;
    data::DialogueSet candidate = original;
    candidate.question = paraphrase_text(original.question);
    candidate.answer = paraphrase_text(original.answer);
    // The reference (user annotation) is carried over unchanged: the
    // synthetic pair keeps the expected response of its original (§3.3).
    if (stats) ++stats->generated;
    if (gated_accepts(sanity_, original, candidate)) {
      if (stats) ++stats->accepted;
      accepted.push_back(std::move(candidate));
    }
  }
  SynthMetrics::get().generate_us.record(sw.elapsed_seconds() * 1e6);
  return accepted;
}

LlmSynthesizer::LlmSynthesizer(llm::MiniLlm& model, const text::Tokenizer& tokenizer,
                               const llm::SamplerConfig& sampler_config,
                               util::Rng rng, const SanityCheckConfig& sanity,
                               std::size_t decode_batch)
    : model_(model),
      tokenizer_(tokenizer),
      sampler_config_(sampler_config),
      rng_(rng),
      sanity_(sanity),
      decode_batch_(decode_batch == 0 ? 1 : decode_batch) {}

std::string LlmSynthesizer::extract_bracketed(const std::string& raw) {
  const auto open = raw.find('[');
  const auto close = raw.rfind(']');
  if (open != std::string::npos && close != std::string::npos && close > open) {
    return raw.substr(open + 1, close - open - 1);
  }
  return raw;
}

std::vector<data::DialogueSet> LlmSynthesizer::synthesize(
    const data::DialogueSet& original, std::size_t count, SynthesisStats* stats) {
  ODLP_TRACE_SCOPE("synth.generate");
  util::Stopwatch sw;
  std::vector<data::DialogueSet> accepted;
  const std::size_t max_attempts = count * 3;
  std::size_t attempts = 0;
  const std::vector<int> prompt = tokenizer_.encode_prompt(
      synthesis_prompt(original), model_.config().max_seq_len / 2);
  llm::BatchedDecodeScheduler scheduler(model_, decode_batch_);
  std::vector<std::size_t> tickets;
  // Attempts decode in waves of up to decode_batch_ concurrent sessions.
  // A wave never overshoots: it holds at most (count - accepted) attempts
  // and each attempt yields at most one accept, so the serial loop could
  // not have stopped mid-wave — gating the results in submission order
  // reproduces its accept set, stats, and rng stream exactly.
  while (accepted.size() < count && attempts < max_attempts) {
    const std::size_t wave =
        std::min(count - accepted.size(), max_attempts - attempts);
    tickets.clear();
    for (std::size_t w = 0; w < wave; ++w) {
      tickets.push_back(scheduler.submit(prompt, sampler_config_, rng_.split()));
    }
    scheduler.run();
    for (std::size_t w = 0; w < wave; ++w) {
      ++attempts;
      const std::string raw = tokenizer_.decode(scheduler.result(tickets[w]));
      const std::string payload = extract_bracketed(raw);
      if (text::normalize_and_split(payload).empty()) {
        if (stats) ++stats->generated;
        // Empty generations never reach the ROUGE gate; count them as
        // generated-and-rejected so registry totals match SynthesisStats.
        SynthMetrics::get().generated.inc();
        SynthMetrics::get().rejected.inc();
        continue;
      }
      data::DialogueSet candidate = original;
      candidate.question = payload;
      if (stats) ++stats->generated;
      if (gated_accepts(sanity_, original, candidate)) {
        if (stats) ++stats->accepted;
        accepted.push_back(std::move(candidate));
      }
    }
  }
  SynthMetrics::get().generate_us.record(sw.elapsed_seconds() * 1e6);
  return accepted;
}

}  // namespace odlp::core
