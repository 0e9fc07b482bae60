// Chaos harness (DESIGN.md §11): full multi-round personalization fleets
// run under dozens of seeded fault schedules — injected power loss, bit
// rot, slow I/O, OOM, and poisoned tasks — and every run must uphold the
// resilience invariants:
//
//   1. No crash: run_chaos_fleet returns; every exception is contained
//      inside its device's failure domain.
//   2. Checkpoint intact: each device ends with a restorable generation
//      (keep_last exceeds the round count, so the pre-chaos generation-1
//      checkpoint is never pruned and corruption can never strand a
//      device).
//   3. Accounting coherent: supervisor round counts add up, and the
//      engine's seen/admitted/rejected/quarantined ledger differs only by
//      rounds aborted mid-flight — bounded by the injected fault count.
//   4. Deterministic: the same (config, schedule) pair reproduces the
//      fleet state hash bit-for-bit.
//
// Each schedule is a separate TEST_P instance, so ctest runs (and times
// out) them individually; the suite lives in its own binary with the
// "chaos" label.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "exp/fleet.h"
#include "util/fault.h"

namespace fs = std::filesystem;

namespace odlp {
namespace {

constexpr std::uint64_t kNumSchedules = 32;  // acceptance floor is 30
constexpr std::size_t kEventsPerSchedule = 10;
constexpr std::size_t kRounds = 5;

exp::ChaosFleetConfig chaos_config(std::uint64_t seed,
                                   const std::string& work_dir) {
  exp::ChaosFleetConfig config;
  config.fleet.num_devices = 2;
  exp::ExperimentConfig& device = config.fleet.device_template;
  device.finetune_interval = 3;  // sets per round
  device.stream_size = kRounds * device.finetune_interval;
  device.buffer_bins = 4;
  device.synth_per_set = 1;
  device.epochs = 1;
  config.fleet.seed_base = 1000 + seed * 101;
  config.work_dir = work_dir;
  // Invariant 2 depends on this: with keep_last > rounds, pruning never
  // runs, so the generation-1 checkpoint written before the schedule arms
  // survives any amount of later corruption.
  config.keep_last = kRounds + 3;
  config.retry.sleep = false;  // account backoff, skip the nap
  // Memory-only pressure (deadlines off): wall-clock never feeds the
  // governor, which is what makes invariant 4 (bit-identical repeats)
  // possible on a timeshared test host.
  config.governor.round_deadline_ms = 0.0;
  config.supervisor.round_deadline_ms = 0.0;
  config.supervisor.max_consecutive_failures = 0;
  config.schedule = util::fault::FaultSchedule::random(
      seed, kEventsPerSchedule,
      /*horizon=*/kRounds * config.fleet.num_devices * 4);
  return config;
}

class ChaosScheduleTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::string work_dir_;

  void SetUp() override {
    work_dir_ = "/tmp/odlp_chaos_" + std::to_string(::getpid()) + "_" +
                std::to_string(GetParam());
    fs::remove_all(work_dir_);
    fs::create_directories(work_dir_);
  }
  void TearDown() override { fs::remove_all(work_dir_); }
};

TEST_P(ChaosScheduleTest, InvariantsHoldUnderSchedule) {
  const std::uint64_t seed = GetParam();
  const exp::ChaosFleetConfig config = chaos_config(seed, work_dir_);
  // Invariant 1: this returns instead of crashing or propagating.
  const exp::ChaosFleetResult result = exp::run_chaos_fleet(config);

  // Supervisor accounting adds up.
  ASSERT_EQ(result.devices.size(), config.fleet.num_devices);
  EXPECT_EQ(result.totals.rounds, config.fleet.num_devices * kRounds);
  std::uint64_t gap_total = 0;
  for (const auto& d : result.devices) {
    EXPECT_EQ(d.health.rounds, kRounds) << d.name;
    EXPECT_EQ(d.health.ok + d.health.failures + d.health.skipped,
              d.health.rounds)
        << d.name;
    EXPECT_LE(d.health.recoveries + d.health.failed_recoveries,
              d.health.failures)
        << d.name;
    EXPECT_GE(d.health.availability(), 0.0);
    EXPECT_LE(d.health.availability(), 1.0);

    // Invariant 2: a restorable checkpoint generation exists.
    EXPECT_NE(d.state_hash, 0u) << d.name << " has no valid generation";
    EXPECT_GE(d.final_generation, 1u) << d.name;

    // Invariant 3: selection accounting. `seen` can exceed the sum of
    // outcomes only by calls aborted mid-process (after the seen counter,
    // before an outcome) — each such abort consumed one injected fault.
    const auto& s = d.engine_stats;
    const std::size_t outcomes =
        s.admitted_free + s.admitted_replacing + s.rejected + s.quarantined;
    EXPECT_GE(s.seen, outcomes) << d.name;
    gap_total += s.seen - outcomes;

    // Governor bookkeeping: rung transitions must match the counters.
    std::uint64_t entered_total = 0;
    for (const std::uint64_t n : d.governor.entered) entered_total += n;
    EXPECT_EQ(entered_total, d.governor.escalations + d.governor.recoveries)
        << d.name;
  }
  EXPECT_LE(gap_total, result.faults.oom + result.faults.task_fails);

  // Retry accounting: attempts >= calls, and every healed call implies at
  // least one retry.
  for (const auto& d : result.devices) {
    for (const auto* retry : {&d.ckpt_retry, &d.ingest_retry}) {
      EXPECT_GE(retry->attempts, retry->calls);
      EXPECT_GE(retry->retries, retry->healed);
    }
  }
}

// Invariant 4 on a subsample of schedules (a repeat doubles the cost, so
// every 4th seed is plenty: 8 independent determinism witnesses).
TEST_P(ChaosScheduleTest, RepeatedScheduleIsBitIdentical) {
  const std::uint64_t seed = GetParam();
  if (seed % 4 != 0) GTEST_SKIP() << "determinism checked on every 4th seed";

  const std::string dir_a = work_dir_ + "/a";
  const std::string dir_b = work_dir_ + "/b";
  fs::create_directories(dir_a);
  fs::create_directories(dir_b);
  const exp::ChaosFleetResult a =
      exp::run_chaos_fleet(chaos_config(seed, dir_a));
  const exp::ChaosFleetResult b =
      exp::run_chaos_fleet(chaos_config(seed, dir_b));

  EXPECT_EQ(a.fleet_state_hash, b.fleet_state_hash);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].state_hash, b.devices[i].state_hash) << i;
    EXPECT_EQ(a.devices[i].final_generation, b.devices[i].final_generation)
        << i;
    EXPECT_EQ(a.devices[i].health.failures, b.devices[i].health.failures)
        << i;
    EXPECT_EQ(a.devices[i].engine_stats.seen, b.devices[i].engine_stats.seen)
        << i;
    EXPECT_EQ(a.devices[i].governor.escalations,
              b.devices[i].governor.escalations)
        << i;
  }
  EXPECT_EQ(a.totals.failures, b.totals.failures);
  EXPECT_EQ(a.faults.total_injected(), b.faults.total_injected());
}

INSTANTIATE_TEST_SUITE_P(Schedules, ChaosScheduleTest,
                         ::testing::Range<std::uint64_t>(1, kNumSchedules + 1));

// A fault-free schedule is the control group: full availability, zero
// injections, zero retries needed.
TEST(ChaosFleet, NoFaultsMeansFullAvailability) {
  const std::string dir =
      "/tmp/odlp_chaos_ctl_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  exp::ChaosFleetConfig config = chaos_config(0, dir);
  config.schedule = util::fault::FaultSchedule{};  // no events
  const exp::ChaosFleetResult result = exp::run_chaos_fleet(config);
  EXPECT_DOUBLE_EQ(result.totals.availability, 1.0);
  EXPECT_EQ(result.totals.failures, 0u);
  EXPECT_EQ(result.faults.total_injected(), 0u);
  for (const auto& d : result.devices) {
    EXPECT_EQ(d.ckpt_retry.retries, 0u);
    EXPECT_EQ(d.ingest_retry.retries, 0u);
    EXPECT_NE(d.state_hash, 0u);
  }
  fs::remove_all(dir);
}

// The governor must actually engage under the auto-derived memory budget:
// the fp32 ledger exceeds it, so the ladder leaves nominal at least once.
TEST(ChaosFleet, GovernorEngagesUnderMemoryPressure) {
  const std::string dir =
      "/tmp/odlp_chaos_gov_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  exp::ChaosFleetConfig config = chaos_config(0, dir);
  config.schedule = util::fault::FaultSchedule{};  // isolate the governor
  const exp::ChaosFleetResult result = exp::run_chaos_fleet(config);
  for (const auto& d : result.devices) {
    EXPECT_GE(d.governor.escalations, 1u) << d.name;
    EXPECT_GE(d.governor.entered[static_cast<std::size_t>(
                  resil::Rung::kInt8Inference)],
              1u)
        << d.name;
  }
  fs::remove_all(dir);
}

// A persistent fine-tune fault must fail every round at the supervisor.
// The ingest retry wraps only the stream steps: retrying a call that had
// already counted its set would offer it twice and heal the round.
TEST(ChaosFleet, PersistentFinetuneFaultFailsEveryRound) {
  const std::string dir =
      "/tmp/odlp_chaos_ft_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  exp::ChaosFleetConfig config = chaos_config(0, dir);
  config.schedule = util::fault::FaultSchedule{};
  config.schedule.events.push_back({util::fault::FaultKind::kTaskFail,
                                    "engine.finetune", /*at=*/0, /*param=*/0,
                                    /*once=*/false});
  const exp::ChaosFleetResult result = exp::run_chaos_fleet(config);

  const std::size_t stream = config.fleet.device_template.stream_size;
  EXPECT_EQ(result.totals.failures, config.fleet.num_devices * kRounds);
  EXPECT_EQ(result.faults.task_fails, config.fleet.num_devices * kRounds);
  for (const auto& d : result.devices) {
    EXPECT_EQ(d.health.ok, 0u) << d.name;
    EXPECT_EQ(d.health.recoveries, kRounds) << d.name;
    EXPECT_EQ(d.ingest_retry.retries, 0u) << d.name;
    const auto& s = d.engine_stats;
    EXPECT_EQ(s.seen, stream) << d.name;
    EXPECT_EQ(s.admitted_free + s.admitted_replacing + s.rejected +
                  s.quarantined,
              stream)
        << d.name;
    EXPECT_EQ(s.finetune_rounds, 0u) << d.name;
  }
  fs::remove_all(dir);
}

TEST(ChaosFleet, RequiresWorkDir) {
  exp::ChaosFleetConfig config;
  config.work_dir = "";
  EXPECT_THROW(exp::run_chaos_fleet(config), std::invalid_argument);
}

}  // namespace
}  // namespace odlp
