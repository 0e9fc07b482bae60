// Unit tests for the resilience layer (DESIGN.md §11): RetryPolicy
// (transient/terminal classification, deterministic backoff, exhaustion),
// ResourceGovernor (degradation ladder, recovery hysteresis, relapse
// damping, engine application), Supervisor (failure domains, MTTR,
// quarantine, deadlines), and the seeded FaultSchedule hooks — including a
// concurrent-hook test that must run TSan-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "core/engine.h"
#include "core/synthesizer.h"
#include "data/user_oracle.h"
#include "exp/experiment.h"
#include "llm/embedding_extractor.h"
#include "llm/minillm.h"
#include "resil/governor.h"
#include "resil/retry.h"
#include "resil/supervisor.h"
#include "util/atomic_file.h"
#include "util/fault.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace odlp {
namespace {

namespace fault = util::fault;

// --- RetryPolicy ---------------------------------------------------------

resil::RetryConfig fast_retry(std::size_t attempts = 3) {
  resil::RetryConfig c;
  c.max_attempts = attempts;
  c.sleep = false;  // account backoff, skip the nap
  return c;
}

TEST(RetryPolicy, FirstTrySuccessDoesNotRetry) {
  resil::RetryPolicy policy(fast_retry());
  int calls = 0;
  const int result = policy.run("op", [&] {
    ++calls;
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(policy.stats().calls, 1u);
  EXPECT_EQ(policy.stats().attempts, 1u);
  EXPECT_EQ(policy.stats().healed, 0u);
}

TEST(RetryPolicy, TransientFaultHeals) {
  resil::RetryPolicy policy(fast_retry(3));
  int calls = 0;
  policy.run("op", [&] {
    if (++calls < 3) throw std::runtime_error("flaky");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(policy.stats().healed, 1u);
  EXPECT_EQ(policy.stats().retries, 2u);
  EXPECT_GT(policy.stats().backoff_us_total, 0.0);
}

TEST(RetryPolicy, InjectedFaultsAreTransient) {
  resil::RetryPolicy policy(fast_retry(2));
  int calls = 0;
  policy.run("op", [&] {
    if (++calls == 1) throw fault::InjectedOom("oom");
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(policy.stats().healed, 1u);
}

TEST(RetryPolicy, CorruptionIsTerminal) {
  resil::RetryPolicy policy(fast_retry(5));
  int calls = 0;
  EXPECT_THROW(policy.run("op",
                          [&] {
                            ++calls;
                            throw util::CorruptionError("bad bytes");
                          }),
               util::CorruptionError);
  EXPECT_EQ(calls, 1);  // no retry: bad bytes do not heal
  EXPECT_EQ(policy.stats().terminal, 1u);
  EXPECT_EQ(policy.stats().exhausted, 0u);
}

TEST(RetryPolicy, LogicErrorIsTerminal) {
  resil::RetryPolicy policy(fast_retry(5));
  int calls = 0;
  EXPECT_THROW(policy.run("op",
                          [&] {
                            ++calls;
                            throw std::logic_error("bug");
                          }),
               std::logic_error);
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicy, PersistentFaultExhausts) {
  resil::RetryPolicy policy(fast_retry(3));
  int calls = 0;
  try {
    policy.run("op", [&]() -> void {
      ++calls;
      throw std::runtime_error("always");
    });
    FAIL() << "expected RetryExhausted";
  } catch (const resil::RetryExhausted& e) {
    EXPECT_EQ(e.attempts(), 3u);
    EXPECT_NE(std::string(e.what()).find("always"), std::string::npos);
  }
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(policy.stats().exhausted, 1u);
}

TEST(RetryPolicy, ExhaustionDoesNotNestMultiplyAttempts) {
  // An outer policy treats RetryExhausted as terminal: attempts do not
  // multiply across nested policies.
  resil::RetryPolicy outer(fast_retry(4));
  int inner_calls = 0;
  EXPECT_THROW(outer.run("outer",
                         [&] {
                           resil::RetryPolicy inner(fast_retry(2));
                           inner.run("inner", [&]() -> void {
                             ++inner_calls;
                             throw std::runtime_error("always");
                           });
                         }),
               resil::RetryExhausted);
  EXPECT_EQ(inner_calls, 2);  // 2, not 2 * 4
  EXPECT_EQ(outer.stats().terminal, 1u);
}

TEST(RetryPolicy, BackoffIsDeterministicPerSeed) {
  resil::RetryConfig config = fast_retry(5);
  config.seed = 777;
  resil::RetryPolicy a(config), b(config);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_DOUBLE_EQ(a.next_backoff_us(k), b.next_backoff_us(k)) << k;
  }
  config.seed = 778;
  resil::RetryPolicy c(config);
  bool any_different = false;
  resil::RetryPolicy a2(fast_retry(5));
  for (std::size_t k = 0; k < 6; ++k) {
    if (a2.next_backoff_us(k) != c.next_backoff_us(k)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RetryPolicy, BackoffRespectsBoundsAndGrowth) {
  resil::RetryConfig config = fast_retry(10);
  config.base_backoff_us = 100.0;
  config.multiplier = 2.0;
  config.max_backoff_us = 1000.0;
  config.jitter = 0.25;
  resil::RetryPolicy policy(config);
  for (std::size_t k = 0; k < 12; ++k) {
    const double nominal = std::min(1000.0, 100.0 * std::pow(2.0, double(k)));
    const double d = policy.next_backoff_us(k);
    EXPECT_GE(d, nominal * 0.75 - 1e-9) << k;
    EXPECT_LE(d, nominal * 1.25 + 1e-9) << k;
  }
}

TEST(RetryPolicy, CustomClassifierOverridesDefault) {
  resil::RetryConfig config = fast_retry(3);
  config.is_transient = [](const std::exception&) { return false; };
  resil::RetryPolicy policy(config);
  int calls = 0;
  EXPECT_THROW(policy.run("op",
                          [&] {
                            ++calls;
                            throw std::runtime_error("would-be transient");
                          }),
               std::runtime_error);
  EXPECT_EQ(calls, 1);
}

// --- ResourceGovernor ----------------------------------------------------

resil::GovernorConfig mem_governor(std::size_t budget) {
  resil::GovernorConfig g;
  g.memory_budget_bytes = budget;
  g.recover_patience = 2;
  return g;
}

TEST(ResourceGovernor, WalksOneRungPerObservation) {
  resil::ResourceGovernor gov(mem_governor(1000));
  EXPECT_EQ(gov.rung(), resil::Rung::kNominal);
  const resil::Rung ladder[] = {
      resil::Rung::kInt8Inference, resil::Rung::kKvTrim,
      resil::Rung::kSynthShrink, resil::Rung::kBinShed,
      resil::Rung::kSkipFinetune};
  for (const resil::Rung expected : ladder) {
    gov.observe({2000, 0.0});  // pressure 2.0
    EXPECT_EQ(gov.rung(), expected);
  }
  // Ladder floor: stays at the last rung.
  gov.observe({2000, 0.0});
  EXPECT_EQ(gov.rung(), resil::Rung::kSkipFinetune);
  EXPECT_EQ(gov.stats().escalations, 5u);
}

TEST(ResourceGovernor, DecisionsAreCumulative) {
  resil::ResourceGovernor gov(mem_governor(1000));
  for (int i = 0; i < 4; ++i) gov.observe({2000, 0.0});  // -> kBinShed
  const resil::GovernorDecision& d = gov.decision();
  EXPECT_EQ(d.rung, resil::Rung::kBinShed);
  EXPECT_EQ(d.precision, nn::InferencePrecision::kInt8);
  EXPECT_DOUBLE_EQ(d.kv_fraction, 0.5);
  EXPECT_DOUBLE_EQ(d.synth_fraction, 0.0);
  EXPECT_DOUBLE_EQ(d.buffer_fraction, 0.5);
  EXPECT_FALSE(d.skip_finetune);
  gov.observe({2000, 0.0});
  EXPECT_TRUE(gov.decision().skip_finetune);
}

TEST(ResourceGovernor, RecoveryNeedsConsecutiveClearObservations) {
  resil::ResourceGovernor gov(mem_governor(1000));
  gov.observe({2000, 0.0});  // -> int8
  EXPECT_EQ(gov.rung(), resil::Rung::kInt8Inference);
  gov.observe({100, 0.0});  // clear 1/2
  EXPECT_EQ(gov.rung(), resil::Rung::kInt8Inference);
  // Mid pressure (above threshold, below 1.0) resets the streak.
  gov.observe({800, 0.0});
  gov.observe({100, 0.0});  // clear 1/2 again
  EXPECT_EQ(gov.rung(), resil::Rung::kInt8Inference);
  gov.observe({100, 0.0});  // clear 2/2 -> recover
  EXPECT_EQ(gov.rung(), resil::Rung::kNominal);
  EXPECT_EQ(gov.stats().recoveries, 1u);
}

TEST(ResourceGovernor, RelapseDoublesPatience) {
  resil::GovernorConfig g = mem_governor(1000);
  g.recover_patience = 1;
  g.relapse_window = 3;
  resil::ResourceGovernor gov(g);
  EXPECT_EQ(gov.effective_patience(), 1u);
  gov.observe({2000, 0.0});  // escalate
  gov.observe({100, 0.0});   // recover (patience 1)
  EXPECT_EQ(gov.rung(), resil::Rung::kNominal);
  gov.observe({2000, 0.0});  // relapse inside the window
  EXPECT_EQ(gov.stats().relapses, 1u);
  EXPECT_EQ(gov.effective_patience(), 2u);
  // Now a single clear observation is no longer enough.
  gov.observe({100, 0.0});
  EXPECT_EQ(gov.rung(), resil::Rung::kInt8Inference);
  gov.observe({100, 0.0});
  EXPECT_EQ(gov.rung(), resil::Rung::kNominal);
}

TEST(ResourceGovernor, PatienceIsCapped) {
  resil::GovernorConfig g = mem_governor(1000);
  g.recover_patience = 1;
  g.max_patience = 4;
  g.relapse_window = 10;
  resil::ResourceGovernor gov(g);
  for (int cycle = 0; cycle < 6; ++cycle) {
    gov.observe({2000, 0.0});  // escalate (relapse after the first cycle)
    for (std::size_t i = 0; i < gov.effective_patience(); ++i) {
      gov.observe({100, 0.0});
    }
    EXPECT_EQ(gov.rung(), resil::Rung::kNominal);
  }
  EXPECT_LE(gov.effective_patience(), 4u);
}

TEST(ResourceGovernor, ZeroBudgetsDisablePressure) {
  resil::ResourceGovernor gov{resil::GovernorConfig{}};  // both axes off
  gov.observe({std::size_t(1) << 40, 1e9});
  EXPECT_EQ(gov.rung(), resil::Rung::kNominal);
  EXPECT_DOUBLE_EQ(gov.last_pressure(), 0.0);
}

TEST(ResourceGovernor, DeadlineAxis) {
  resil::GovernorConfig g;
  g.round_deadline_ms = 100.0;
  resil::ResourceGovernor gov(g);
  gov.observe({0, 250.0});
  EXPECT_EQ(gov.rung(), resil::Rung::kInt8Inference);
  EXPECT_DOUBLE_EQ(gov.last_pressure(), 2.5);
}

TEST(ResourceGovernor, ResetRestoresNominal) {
  resil::GovernorConfig g = mem_governor(1000);
  g.recover_patience = 1;
  resil::ResourceGovernor gov(g);
  gov.observe({2000, 0.0});
  gov.observe({100, 0.0});
  gov.observe({2000, 0.0});  // relapse -> patience 2
  gov.reset();
  EXPECT_EQ(gov.rung(), resil::Rung::kNominal);
  EXPECT_EQ(gov.effective_patience(), 1u);
  EXPECT_DOUBLE_EQ(gov.decision().kv_fraction, 1.0);
  // Transition history survives reset.
  EXPECT_GE(gov.stats().escalations, 2u);
}

// A tiny live engine to verify apply_decision end-to-end: `ec` is the
// nominal config, and engine_for() builds an engine from a governed one.
struct TinyEngine {
  text::Tokenizer tokenizer = exp::make_device_tokenizer();
  llm::MiniLlm model;
  llm::BagOfWordsExtractor extractor{16};
  data::UserOracle oracle;
  core::EngineConfig ec;

  TinyEngine()
      : model(
            [&] {
              llm::ModelConfig mc;
              mc.vocab_size = tokenizer.vocab().size();
              mc.dim = 16;
              mc.heads = 2;
              mc.layers = 1;
              mc.ff_hidden = 32;
              mc.max_seq_len = 32;
              return mc;
            }(),
            7),
        oracle(11, lexicon::builtin_dictionary()) {
    ec.buffer_bins = 4;
    ec.finetune_interval = 0;
    ec.synth_per_set = 2;
    ec.max_seq_len = 32;
    ec.sampler.max_new_tokens = 8;
  }

  std::unique_ptr<core::PersonalizationEngine> engine_for(
      const core::EngineConfig& config) {
    return std::make_unique<core::PersonalizationEngine>(
        model, tokenizer, extractor, oracle, lexicon::builtin_dictionary(),
        exp::make_policy("Ours"),
        std::make_unique<core::ParaphraseSynthesizer>(
            lexicon::builtin_dictionary(), util::Rng(3)),
        config, util::Rng(5));
  }
};

TEST(ResourceGovernor, ApplyDecisionDrivesEngineKnobs) {
  TinyEngine t;
  resil::ResourceGovernor gov(mem_governor(1000));
  for (int i = 0; i < 5; ++i) gov.observe({2000, 0.0});  // -> kSkipFinetune
  core::EngineConfig ec = t.ec;
  core::DataBuffer buffer(t.ec.buffer_bins);
  resil::apply_decision(gov.decision(), t.ec, ec, buffer);
  EXPECT_EQ(ec.inference_precision, nn::InferencePrecision::kInt8);
  EXPECT_EQ(ec.sampler.max_new_tokens, 4u);  // 8 * 0.5
  EXPECT_EQ(ec.synth_per_set, 0u);
  EXPECT_EQ(buffer.effective_capacity(), 2u);  // 4 * 0.5
  EXPECT_FALSE(ec.finetune_enabled);
  // An engine built from the governed config skips its fine-tune rounds.
  const auto engine = t.engine_for(ec);
  engine->finetune_now();
  EXPECT_EQ(engine->stats().finetune_skipped, 1u);
  EXPECT_EQ(engine->stats().finetune_rounds, 0u);

  // Recovery all the way down restores the nominal knobs.
  resil::apply_decision(resil::GovernorDecision{}, t.ec, ec, buffer);
  EXPECT_EQ(ec.inference_precision, nn::InferencePrecision::kFp32);
  EXPECT_EQ(ec.sampler.max_new_tokens, 8u);
  EXPECT_EQ(ec.synth_per_set, 2u);
  EXPECT_EQ(buffer.effective_capacity(), 4u);
  EXPECT_TRUE(ec.finetune_enabled);
}

// --- Supervisor ----------------------------------------------------------

TEST(Supervisor, CleanRoundsAreFullyAvailable) {
  resil::Supervisor sup;
  for (int i = 0; i < 5; ++i) {
    const auto report = sup.run_round("dev", [] {});
    EXPECT_EQ(report.status, resil::RoundStatus::kOk);
  }
  const auto& h = sup.health("dev");
  EXPECT_EQ(h.rounds, 5u);
  EXPECT_EQ(h.ok, 5u);
  EXPECT_DOUBLE_EQ(h.availability(), 1.0);
  EXPECT_DOUBLE_EQ(h.mttr_rounds(), 0.0);
}

TEST(Supervisor, FailureIsIsolatedAndRecovered) {
  resil::Supervisor sup;
  bool recovered = false;
  const auto report = sup.run_round(
      "dev", [] { throw std::runtime_error("boom"); },
      [&] {
        recovered = true;
        return true;
      });
  EXPECT_EQ(report.status, resil::RoundStatus::kFailedRecovered);
  EXPECT_NE(report.error.find("boom"), std::string::npos);
  EXPECT_TRUE(recovered);
  const auto& h = sup.health("dev");
  EXPECT_EQ(h.failures, 1u);
  EXPECT_EQ(h.recoveries, 1u);
}

TEST(Supervisor, MttrCountsRoundsUntilNextOk) {
  resil::Supervisor sup;
  const auto fail = [] { throw std::runtime_error("x"); };
  const auto recover = [] { return true; };
  sup.run_round("dev", [] {});       // round 1 ok
  sup.run_round("dev", fail, recover);  // round 2 down
  sup.run_round("dev", fail, recover);  // round 3 still down
  sup.run_round("dev", [] {});       // round 4 repaired
  const auto& h = sup.health("dev");
  EXPECT_EQ(h.repairs, 1u);
  EXPECT_DOUBLE_EQ(h.mttr_rounds(), 2.0);  // rounds 2..4
  EXPECT_DOUBLE_EQ(h.availability(), 0.5);
}

TEST(Supervisor, RecoveryFailureIsRecorded) {
  resil::Supervisor sup;
  const auto r1 = sup.run_round(
      "dev", [] { throw std::runtime_error("x"); }, [] { return false; });
  EXPECT_EQ(r1.status, resil::RoundStatus::kFailedUnrecovered);
  const auto r2 = sup.run_round(
      "dev", [] { throw std::runtime_error("x"); },
      []() -> bool { throw std::runtime_error("recovery died"); });
  EXPECT_EQ(r2.status, resil::RoundStatus::kFailedUnrecovered);
  EXPECT_EQ(sup.health("dev").failed_recoveries, 2u);
}

TEST(Supervisor, NoRecoveryCallbackMeansUnrecovered) {
  resil::Supervisor sup;
  const auto report =
      sup.run_round("dev", [] { throw std::runtime_error("x"); });
  EXPECT_EQ(report.status, resil::RoundStatus::kFailedUnrecovered);
}

TEST(Supervisor, QuarantineAfterConsecutiveFailures) {
  resil::SupervisorConfig config;
  config.max_consecutive_failures = 2;
  resil::Supervisor sup(config);
  const auto fail = [] { throw std::runtime_error("x"); };
  sup.run_round("dev", fail);
  EXPECT_FALSE(sup.health("dev").quarantined);
  sup.run_round("dev", fail);
  EXPECT_TRUE(sup.health("dev").quarantined);
  const auto report = sup.run_round("dev", [] {});
  EXPECT_EQ(report.status, resil::RoundStatus::kSkippedQuarantined);
  EXPECT_EQ(sup.health("dev").skipped, 1u);
  sup.reinstate("dev");
  EXPECT_EQ(sup.run_round("dev", [] {}).status, resil::RoundStatus::kOk);
}

TEST(Supervisor, OkRoundResetsTheFailureStreak) {
  resil::SupervisorConfig config;
  config.max_consecutive_failures = 2;
  resil::Supervisor sup(config);
  const auto fail = [] { throw std::runtime_error("x"); };
  const auto recover = [] { return true; };
  sup.run_round("dev", fail, recover);
  sup.run_round("dev", [] {});
  sup.run_round("dev", fail, recover);
  EXPECT_FALSE(sup.health("dev").quarantined);
}

TEST(Supervisor, DeadlineMissCountsAgainstAvailability) {
  resil::SupervisorConfig config;
  config.round_deadline_ms = 1e-6;  // everything misses
  resil::Supervisor sup(config);
  const auto report = sup.run_round("dev", [] {
    volatile int sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  });
  EXPECT_EQ(report.status, resil::RoundStatus::kDeadlineMiss);
  const auto& h = sup.health("dev");
  EXPECT_EQ(h.deadline_misses, 1u);
  EXPECT_EQ(h.ok, 0u);
  EXPECT_DOUBLE_EQ(h.availability(), 0.0);
}

TEST(Supervisor, TotalsAggregateAcrossDevices) {
  resil::Supervisor sup;
  const auto fail = [] { throw std::runtime_error("x"); };
  const auto recover = [] { return true; };
  sup.run_round("a", [] {});
  sup.run_round("a", [] {});
  sup.run_round("b", fail, recover);
  sup.run_round("b", [] {});
  const auto totals = sup.totals();
  EXPECT_EQ(totals.rounds, 4u);
  EXPECT_EQ(totals.ok, 3u);
  EXPECT_EQ(totals.failures, 1u);
  EXPECT_EQ(totals.recoveries, 1u);
  EXPECT_EQ(totals.repairs, 1u);
  EXPECT_DOUBLE_EQ(totals.availability, 0.75);
  EXPECT_DOUBLE_EQ(totals.mttr_rounds, 1.0);
  EXPECT_EQ(sup.devices().size(), 2u);
  EXPECT_THROW(sup.health("missing"), std::out_of_range);
}

// --- FaultSchedule -------------------------------------------------------

TEST(FaultSchedule, RandomIsDeterministicPerSeed) {
  const auto a = fault::FaultSchedule::random(99, 12);
  const auto b = fault::FaultSchedule::random(99, 12);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.events.size(), 12u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].match, b.events[i].match) << i;
    EXPECT_EQ(a.events[i].at, b.events[i].at) << i;
    EXPECT_EQ(a.events[i].param, b.events[i].param) << i;
    EXPECT_EQ(a.events[i].once, b.events[i].once) << i;
  }
  const auto c = fault::FaultSchedule::random(100, 12);
  bool any_different = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].kind != c.events[i].kind ||
        a.events[i].at != c.events[i].at) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(FaultSchedule, CorruptionEventsAreAlwaysOnce) {
  // Disk corruption persists by itself; re-corrupting every commit would
  // model a different (and unrecoverable) failure.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto s = fault::FaultSchedule::random(seed, 10);
    for (const auto& e : s.events) {
      if (e.kind == fault::FaultKind::kTruncate ||
          e.kind == fault::FaultKind::kBitFlip) {
        EXPECT_TRUE(e.once) << "seed " << seed;
      }
    }
  }
}

TEST(FaultSchedule, TaskEventFiresOnNthMatchingObservation) {
  fault::FaultSchedule schedule;
  schedule.events.push_back(
      {fault::FaultKind::kTaskFail, "engine.process", /*at=*/2, 0, true});
  fault::ScopedSchedule armed(schedule);
  fault::on_task("engine.process");               // 0
  fault::on_task("ckpt.save");                    // non-matching
  fault::on_task("engine.process");               // 1
  EXPECT_THROW(fault::on_task("engine.process"),  // 2 -> fires
               fault::InjectedTaskFault);
  fault::on_task("engine.process");  // once: disarmed now
  const auto stats = fault::schedule_stats();
  EXPECT_EQ(stats.tasks_seen, 5u);
  EXPECT_EQ(stats.task_fails, 1u);
}

TEST(FaultSchedule, PersistentEventKeepsFiring) {
  fault::FaultSchedule schedule;
  schedule.events.push_back(
      {fault::FaultKind::kAllocFail, "buffer", /*at=*/1, 0, /*once=*/false});
  fault::ScopedSchedule armed(schedule);
  fault::on_alloc("buffer", 100);  // 0: ok
  EXPECT_THROW(fault::on_alloc("buffer", 100), fault::InjectedOom);
  EXPECT_THROW(fault::on_alloc("buffer", 100), fault::InjectedOom);
  EXPECT_EQ(fault::schedule_stats().oom, 2u);
}

TEST(FaultSchedule, WriteFailAndStall) {
  fault::FaultSchedule schedule;
  schedule.events.push_back(
      {fault::FaultKind::kSlowIo, "", /*at=*/0, /*param=*/50, true});
  schedule.events.push_back(
      {fault::FaultKind::kWriteFail, "model", /*at=*/0, 0, true});
  fault::ScopedSchedule armed(schedule);
  // First write: stall fires (and is counted); path does not match the
  // write-fail event.
  fault::on_write("/tmp/other.bin");
  EXPECT_THROW(fault::on_write("/tmp/model.bin"), fault::InjectedFault);
  const auto stats = fault::schedule_stats();
  EXPECT_EQ(stats.stalls, 1u);
  EXPECT_EQ(stats.write_fails, 1u);
  EXPECT_EQ(stats.writes_seen, 2u);
}

TEST(FaultSchedule, StallScaleSkipsTheNapButKeepsTheCount) {
  fault::FaultSchedule schedule;
  // Persistent 50 ms stall on every write: with the nap served this loop
  // would take >= 1 s, so finishing fast proves the scale suppressed it.
  schedule.events.push_back(
      {fault::FaultKind::kSlowIo, "", /*at=*/0, /*param=*/50000, false});
  schedule.stall_scale = 0.0;
  fault::ScopedSchedule armed(schedule);
  util::Stopwatch watch;
  for (int i = 0; i < 20; ++i) fault::on_write("/tmp/x.bin");
  EXPECT_LT(watch.elapsed_seconds(), 0.5);
  EXPECT_EQ(fault::schedule_stats().stalls, 20u);
}

TEST(FaultSchedule, NothingArmedIsFreeOfEffects) {
  fault::on_write("/tmp/x");
  fault::on_commit("/tmp/x");
  fault::on_alloc("anything", 1);
  fault::on_task("anything");
  EXPECT_FALSE(fault::schedule_armed());
}

// Concurrent hook traffic with an armed schedule: relaxed-atomic fast path
// plus the mutex-guarded schedule state must be TSan-clean, fire each
// `once` event exactly once, and keep coherent counts.
TEST(FaultSchedule, ConcurrentHooksAreThreadSafeAndCoherent) {
  fault::FaultSchedule schedule;
  schedule.events.push_back(
      {fault::FaultKind::kTaskFail, "task", /*at=*/57, 0, /*once=*/true});
  schedule.events.push_back(
      {fault::FaultKind::kAllocFail, "alloc", /*at=*/31, 0, /*once=*/true});
  fault::ScopedSchedule armed(schedule);

  constexpr std::size_t kCalls = 400;
  std::atomic<std::uint64_t> task_throws{0};
  std::atomic<std::uint64_t> oom_throws{0};
  util::ThreadPool::global().parallel_for_slotted(
      0, kCalls, /*grain=*/1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          try {
            fault::on_task("task");
          } catch (const fault::InjectedTaskFault&) {
            task_throws.fetch_add(1, std::memory_order_relaxed);
          }
          try {
            fault::on_alloc("alloc", i);
          } catch (const fault::InjectedOom&) {
            oom_throws.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
  EXPECT_EQ(task_throws.load(), 1u);
  EXPECT_EQ(oom_throws.load(), 1u);
  const auto stats = fault::schedule_stats();
  EXPECT_EQ(stats.tasks_seen, kCalls);
  EXPECT_EQ(stats.allocs_seen, kCalls);
  EXPECT_EQ(stats.task_fails, 1u);
  EXPECT_EQ(stats.oom, 1u);
}

}  // namespace
}  // namespace odlp
