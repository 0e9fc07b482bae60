// PersonalizationEngine orchestration tests (fast configuration: bag-of-words
// embeddings where possible, tiny model, short streams).
#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/generator.h"
#include "data/phrase_pools.h"
#include "exp/experiment.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/log.h"

namespace odlp::core {
namespace {

struct EngineFixture {
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  llm::ModelConfig mc;
  std::unique_ptr<llm::MiniLlm> model;
  llm::BagOfWordsExtractor extractor{16};
  data::UserOracle oracle{123, lexicon::builtin_dictionary()};
  std::unique_ptr<PersonalizationEngine> engine;

  explicit EngineFixture(EngineConfig config,
                         const std::string& policy_name = "Ours") {
    mc.vocab_size = tokenizer.vocab().size();
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 1;
    mc.ff_hidden = 32;
    mc.max_seq_len = 48;
    model = std::make_unique<llm::MiniLlm>(mc, 7);
    engine = std::make_unique<PersonalizationEngine>(
        *model, tokenizer, extractor, oracle, lexicon::builtin_dictionary(),
        exp::make_policy(policy_name),
        std::make_unique<ParaphraseSynthesizer>(lexicon::builtin_dictionary(),
                                                util::Rng(9)),
        config, util::Rng(11));
  }
};

EngineConfig fast_config() {
  EngineConfig ec;
  ec.buffer_bins = 4;
  ec.finetune_interval = 0;  // no automatic fine-tuning
  ec.synth_per_set = 2;
  ec.max_seq_len = 48;
  ec.train.epochs = 1;
  ec.train.batch_size = 4;
  return ec;
}

data::DialogueSet informative_set(data::UserOracle& oracle, std::size_t domain,
                                  std::size_t subtopic, util::Rng& rng) {
  data::Generator gen(data::meddialog_profile(), oracle, rng.split());
  return gen.make_informative(domain, subtopic);
}

TEST(Engine, AttachesLoraOnConstruction) {
  EngineFixture fx(fast_config());
  EXPECT_TRUE(fx.model->has_lora());
}

TEST(Engine, ScoreProducesAllThreeMetrics) {
  EngineFixture fx(fast_config());
  util::Rng rng(1);
  const auto set = informative_set(fx.oracle, 0, 0, rng);
  const Candidate cand = fx.engine->score(set);
  EXPECT_GT(cand.scores.eoe, 0.0);
  EXPECT_GT(cand.scores.dss, 0.0);
  EXPECT_DOUBLE_EQ(cand.scores.idd, 1.0);  // empty buffer: maximal novelty
  ASSERT_TRUE(cand.dominant_domain.has_value());
  EXPECT_EQ(*cand.dominant_domain,
            lexicon::builtin_dictionary().index_of("medical").value());
  EXPECT_EQ(cand.embedding.cols(), 16u);
}

TEST(Engine, NoiseScoresBelowInformative) {
  EngineFixture fx(fast_config());
  util::Rng rng(2);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  const Candidate good = fx.engine->score(gen.make_informative(0, 0));
  const Candidate noise = fx.engine->score(gen.make_noise());
  EXPECT_GT(good.scores.dss, noise.scores.dss);
}

TEST(Engine, ProcessAdmitsIntoFreeBuffer) {
  EngineFixture fx(fast_config());
  util::Rng rng(3);
  EXPECT_TRUE(fx.engine->process(informative_set(fx.oracle, 0, 0, rng)));
  EXPECT_EQ(fx.engine->buffer().size(), 1u);
  EXPECT_EQ(fx.engine->stats().admitted_free, 1u);
}

TEST(Engine, AdmissionTriggersAnnotation) {
  EngineFixture fx(fast_config());
  util::Rng rng(4);
  const auto set = informative_set(fx.oracle, 1, 0, rng);
  fx.engine->process(set);
  EXPECT_EQ(fx.oracle.annotation_requests(), 1u);
  // The buffered answer must be the user's preferred response, not the
  // assistant's original reply.
  const auto& entry = fx.engine->buffer().entry(0);
  EXPECT_EQ(entry.set.answer, fx.oracle.preferred_response(1, 0));
  EXPECT_NE(entry.set.answer, set.answer);
  EXPECT_TRUE(entry.annotated);
}

TEST(Engine, RejectionSkipsAnnotation) {
  EngineConfig ec = fast_config();
  ec.buffer_bins = 1;
  EngineFixture fx(ec);
  util::Rng rng(5);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  fx.engine->process(gen.make_informative(0, 0));
  const std::size_t after_first = fx.oracle.annotation_requests();
  // A pure-noise set cannot Pareto-dominate the informative one.
  fx.engine->process(gen.make_noise());
  EXPECT_EQ(fx.engine->stats().rejected, 1u);
  EXPECT_EQ(fx.oracle.annotation_requests(), after_first);
}

TEST(Engine, FinetuneIntervalTriggersRounds) {
  EngineConfig ec = fast_config();
  ec.finetune_interval = 3;
  EngineFixture fx(ec);
  util::Rng rng(6);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  for (int i = 0; i < 7; ++i) fx.engine->process(gen.make_informative(0, 0));
  EXPECT_EQ(fx.engine->stats().finetune_rounds, 2u);  // at 3 and 6
}

TEST(Engine, FinetuneRoundsFollowSeenCount) {
  EngineConfig ec = fast_config();
  ec.finetune_interval = 2;
  EngineFixture fx(ec);
  std::vector<std::size_t> rounds_after;
  util::Rng rng(7);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  for (int i = 0; i < 5; ++i) {
    fx.engine->process(gen.make_informative(0, i % 2));
    rounds_after.push_back(fx.engine->stats().finetune_rounds);
  }
  EXPECT_EQ(rounds_after, (std::vector<std::size_t>{0, 1, 1, 2, 2}));
}

TEST(Engine, SynthesisAugmentsFinetuning) {
  EngineConfig ec = fast_config();
  ec.synth_per_set = 3;
  EngineFixture fx(ec);
  util::Rng rng(8);
  fx.engine->process(informative_set(fx.oracle, 0, 0, rng));
  fx.engine->finetune_now();
  EXPECT_EQ(fx.engine->stats().synthesized_used, 3u);
  EXPECT_GT(fx.engine->stats().synthesis.generated, 0u);
}

TEST(Engine, SynthesisDisabledWhenCountZero) {
  EngineConfig ec = fast_config();
  ec.synth_per_set = 0;
  EngineFixture fx(ec);
  util::Rng rng(9);
  fx.engine->process(informative_set(fx.oracle, 0, 0, rng));
  fx.engine->finetune_now();
  EXPECT_EQ(fx.engine->stats().synthesized_used, 0u);
}

TEST(Engine, FinetuneOnEmptyBufferIsNoop) {
  EngineFixture fx(fast_config());
  fx.engine->finetune_now();
  EXPECT_EQ(fx.engine->stats().finetune_rounds, 0u);
}

TEST(Engine, EvaluateReturnsScoreInUnitInterval) {
  EngineFixture fx(fast_config());
  util::Rng rng(10);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  const auto ds = gen.generate(0, 6);
  std::vector<const data::DialogueSet*> test;
  for (const auto& s : ds.test) test.push_back(&s);
  const double score = fx.engine->evaluate(test);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(Engine, EvaluateEmptyIsZero) {
  EngineFixture fx(fast_config());
  EXPECT_DOUBLE_EQ(fx.engine->evaluate({}), 0.0);
}

TEST(Engine, RunStreamProcessesEverySet) {
  EngineConfig ec = fast_config();
  ec.finetune_interval = 0;
  EngineFixture fx(ec);
  util::Rng rng(11);
  data::Generator gen(data::alpaca_profile(), fx.oracle, rng.split());
  const auto ds = gen.generate(20, 0);
  fx.engine->run_stream(ds.stream);
  EXPECT_EQ(fx.engine->stats().seen, 20u);
  EXPECT_EQ(fx.engine->stats().admitted_free + fx.engine->stats().admitted_replacing +
                fx.engine->stats().rejected,
            20u);
}

TEST(Engine, BufferNeverExceedsCapacity) {
  EngineConfig ec = fast_config();
  ec.buffer_bins = 3;
  EngineFixture fx(ec);
  util::Rng rng(12);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  const auto ds = gen.generate(30, 0);
  for (const auto& set : ds.stream) {
    fx.engine->process(set);
    EXPECT_LE(fx.engine->buffer().size(), 3u);
  }
}

TEST(Engine, QualityPolicyFiltersNoiseOverTime) {
  EngineConfig ec = fast_config();
  ec.buffer_bins = 6;
  EngineFixture fx(ec);
  util::Rng rng(13);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  // Alternate noise and informative sets; the quality policy should end up
  // holding mostly informative content.
  for (int i = 0; i < 40; ++i) {
    fx.engine->process(i % 2 == 0 ? gen.make_noise()
                                  : gen.make_informative(0, i % 4));
  }
  const auto comp = exp::buffer_composition(fx.engine->buffer());
  EXPECT_LT(comp.noise, comp.size / 2);
}

TEST(Engine, QuarantinesEmptyDialogueSets) {
  EngineFixture fx(fast_config());
  util::set_log_level(util::LogLevel::kError);
  data::DialogueSet empty_question;
  empty_question.answer = "an answer without a question";
  data::DialogueSet empty_answer;
  empty_answer.question = "a question without an answer";
  EXPECT_FALSE(fx.engine->process(empty_question));
  EXPECT_FALSE(fx.engine->process(empty_answer));
  EXPECT_EQ(fx.engine->stats().quarantined, 2u);
  EXPECT_EQ(fx.engine->stats().seen, 2u);
  EXPECT_TRUE(fx.engine->buffer().empty());
  util::set_log_level(util::LogLevel::kInfo);
}

TEST(Engine, QuarantinesOversizedDialogueSets) {
  EngineFixture fx(fast_config());
  util::set_log_level(util::LogLevel::kError);
  data::DialogueSet huge;
  huge.question = "q";
  huge.answer = std::string(1 << 17, 'a');  // 128 KiB of garbage
  EXPECT_FALSE(fx.engine->process(huge));
  EXPECT_EQ(fx.engine->stats().quarantined, 1u);
  EXPECT_TRUE(fx.engine->buffer().empty());
  util::set_log_level(util::LogLevel::kInfo);
}

TEST(Engine, OfferCountersMatchEngineStats) {
  // The registry mirrors the selection outcomes EngineStats records; the
  // process-global counters may carry counts from other tests, so compare
  // deltas over this engine's lifetime.
  obs::Counter& seen = obs::registry().counter("engine.seen.sets");
  obs::Counter& accept = obs::registry().counter("engine.offer.accept");
  obs::Counter& reject = obs::registry().counter("engine.offer.reject");
  obs::Counter& quarantine = obs::registry().counter("engine.offer.quarantine");
  const std::uint64_t s0 = seen.value();
  const std::uint64_t a0 = accept.value();
  const std::uint64_t r0 = reject.value();
  const std::uint64_t q0 = quarantine.value();

  EngineConfig ec = fast_config();
  ec.buffer_bins = 2;
  EngineFixture fx(ec);
  util::set_log_level(util::LogLevel::kError);
  util::Rng rng(21);
  data::Generator gen(data::meddialog_profile(), fx.oracle, rng.split());
  for (int i = 0; i < 12; ++i) {
    fx.engine->process(i % 3 == 0 ? gen.make_noise()
                                  : gen.make_informative(0, i % 2));
  }
  data::DialogueSet empty;  // quarantined before scoring
  fx.engine->process(empty);
  util::set_log_level(util::LogLevel::kInfo);

  const EngineStats& st = fx.engine->stats();
  EXPECT_EQ(seen.value() - s0, st.seen);
  EXPECT_EQ(accept.value() - a0, st.admitted_free + st.admitted_replacing);
  EXPECT_EQ(reject.value() - r0, st.rejected);
  EXPECT_EQ(quarantine.value() - q0, st.quarantined);
  EXPECT_GT(st.rejected, 0u);  // the 2-bin buffer must have rejected some
  EXPECT_EQ(st.quarantined, 1u);
}

TEST(Engine, QuarantinedSetsAreNeverAnnotated) {
  EngineFixture fx(fast_config());
  util::set_log_level(util::LogLevel::kError);
  data::DialogueSet empty;
  fx.engine->process(empty);
  EXPECT_EQ(fx.engine->stats().annotations_made, 0u);
  util::set_log_level(util::LogLevel::kInfo);
}

// A transient "buffer" allocation fault aborts ingest before the set is
// counted or offered, so retrying the aborted call leaves the same stats and
// the same buffer as a run that never faulted.
TEST(Engine, RetriedBufferFaultMatchesFaultFreeRun) {
  util::Rng rng(23);
  data::UserOracle gen_oracle{123, lexicon::builtin_dictionary()};
  data::Generator gen(data::meddialog_profile(), gen_oracle, rng.split());
  std::vector<data::DialogueSet> sets;
  for (int i = 0; i < 10; ++i) {
    sets.push_back(i % 3 == 0 ? gen.make_noise() : gen.make_informative(0, i % 2));
  }
  EngineConfig ec = fast_config();
  ec.buffer_bins = 2;  // forces replacements and rejections

  EngineFixture clean(ec);
  for (const auto& set : sets) clean.engine->ingest(set);

  EngineFixture faulted(ec);
  std::size_t retries = 0;
  {
    util::fault::FaultSchedule schedule;
    schedule.events.push_back(
        {util::fault::FaultKind::kAllocFail, "buffer", /*at=*/1, 0, /*once=*/true});
    util::fault::ScopedSchedule armed(schedule);
    for (const auto& set : sets) {
      try {
        faulted.engine->ingest(set);
      } catch (const util::fault::InjectedOom&) {
        ++retries;
        faulted.engine->ingest(set);
      }
    }
  }
  EXPECT_EQ(retries, 1u);

  const EngineStats& a = clean.engine->stats();
  const EngineStats& b = faulted.engine->stats();
  EXPECT_EQ(b.seen, a.seen);
  EXPECT_EQ(b.seen, sets.size());
  EXPECT_EQ(b.admitted_free, a.admitted_free);
  EXPECT_EQ(b.admitted_replacing, a.admitted_replacing);
  EXPECT_EQ(b.rejected, a.rejected);
  EXPECT_EQ(b.annotations_made, a.annotations_made);
  ASSERT_EQ(faulted.engine->buffer().size(), clean.engine->buffer().size());
  for (std::size_t i = 0; i < clean.engine->buffer().size(); ++i) {
    const BufferEntry& x = clean.engine->buffer().entry(i);
    const BufferEntry& y = faulted.engine->buffer().entry(i);
    EXPECT_EQ(y.set.question, x.set.question);
    EXPECT_EQ(y.set.answer, x.set.answer);
    EXPECT_EQ(y.inserted_at, x.inserted_at);
    EXPECT_EQ(y.scores.eoe, x.scores.eoe);
    EXPECT_EQ(y.scores.dss, x.scores.dss);
    EXPECT_EQ(y.scores.idd, x.scores.idd);
  }
}

}  // namespace
}  // namespace odlp::core
