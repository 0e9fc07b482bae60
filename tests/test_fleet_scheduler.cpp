// Concurrent fleet scheduler suite (DESIGN.md §13), own binary under the
// "fleet" ctest label.
//
// The load-bearing property is the determinism contract: the concurrent
// scheduler's per-user results are BIT-identical to the sequential
// exp::run_fleet at every thread/shard combination — adapter hot-swap,
// cross-user batched decode, and wave interleaving must all be invisible
// in the numbers. The remaining tests cover the cache round-trip through
// eviction/spill, the fairness/starvation accounting with a rigged slow
// user, and fault injection during concurrent chunks (also the TSan
// target: build-tsan runs this suite with real thread interleavings).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/engine.h"
#include "exp/fleet.h"
#include "fleet/adapter_cache.h"
#include "fleet/adapter_state.h"
#include "fleet/scheduler.h"
#include "fleet/user_session.h"
#include "lexicon/lexicon.h"
#include "llm/embedding_extractor.h"
#include "util/fault.h"

namespace odlp::fleet {
namespace {

namespace fs = std::filesystem;

exp::FleetConfig micro_fleet(std::size_t users) {
  exp::FleetConfig fleet;
  fleet.num_devices = users;
  fleet.device_template.dataset = "ALPACA";
  fleet.device_template.buffer_bins = 4;
  fleet.device_template.stream_size = 10;
  fleet.device_template.test_size = 10;
  fleet.device_template.eval_subset = 4;
  fleet.device_template.eval_repeats = 1;
  fleet.device_template.finetune_interval = 5;
  fleet.device_template.epochs = 1;
  fleet.device_template.synth_per_set = 1;
  fleet.device_template.pretrain_examples = 8;
  fleet.device_template.pretrain_epochs = 1;
  fleet.device_template.cache_dir = "";
  fleet.device_template.record_curve = true;
  fleet.device_template.eval_temperature = 0.0f;
  fleet.seed_base = 77;
  // The concurrent scheduler shares one base checkpoint across the fleet;
  // the sequential reference must personalize from the same one.
  fleet.shared_base_seed = 77 * 7919 + 17;
  return fleet;
}

class FleetSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    work_dir_ = "/tmp/odlp_fleet_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(work_dir_);
    fs::create_directories(work_dir_);
  }
  void TearDown() override { fs::remove_all(work_dir_); }

  ConcurrentFleetConfig concurrent(std::size_t users) {
    ConcurrentFleetConfig config;
    config.fleet = micro_fleet(users);
    // Base-model cache shared across the parameterized runs in one process:
    // pretraining happens once, every run after loads the same bytes.
    config.fleet.device_template.cache_dir = work_dir_ + "/base";
    fs::create_directories(config.fleet.device_template.cache_dir);
    config.spill_dir = work_dir_ + "/spill";
    return config;
  }

  std::string work_dir_;
};

void expect_user_identical(const exp::ExperimentResult& seq,
                           const exp::ExperimentResult& conc,
                           const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_DOUBLE_EQ(seq.final_rouge, conc.final_rouge);
  ASSERT_EQ(seq.final_per_set.size(), conc.final_per_set.size());
  for (std::size_t i = 0; i < seq.final_per_set.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq.final_per_set[i], conc.final_per_set[i]);
  }
  ASSERT_EQ(seq.curve.num_points(), conc.curve.num_points());
  for (std::size_t p = 0; p < seq.curve.num_points(); ++p) {
    EXPECT_EQ(seq.curve.seen()[p], conc.curve.seen()[p]);
    EXPECT_DOUBLE_EQ(seq.curve.rouge()[p], conc.curve.rouge()[p]);
  }
  EXPECT_EQ(seq.engine_stats.seen, conc.engine_stats.seen);
  EXPECT_EQ(seq.engine_stats.admitted_free, conc.engine_stats.admitted_free);
  EXPECT_EQ(seq.engine_stats.admitted_replacing,
            conc.engine_stats.admitted_replacing);
  EXPECT_EQ(seq.engine_stats.rejected, conc.engine_stats.rejected);
  EXPECT_EQ(seq.annotation_requests, conc.annotation_requests);
  EXPECT_EQ(seq.buffer.size, conc.buffer.size);
  EXPECT_EQ(seq.buffer.noise, conc.buffer.noise);
}

TEST_F(FleetSchedulerTest, BitIdenticalToSequentialAcrossThreadsAndShards) {
  auto base = concurrent(3);
  const exp::FleetResult reference = exp::run_fleet(base.fleet, "Ours");
  ASSERT_EQ(reference.devices.size(), 3u);

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (std::size_t shards : {1u, 4u}) {
      ConcurrentFleetConfig config = base;
      config.threads = threads;
      config.shards = shards;
      config.decode_batch = 8;
      const ConcurrentFleetResult result = run_concurrent_fleet(config);
      ASSERT_EQ(result.users.size(), reference.devices.size());
      ASSERT_EQ(result.stats.faults, 0u);
      for (std::size_t u = 0; u < result.users.size(); ++u) {
        expect_user_identical(
            reference.devices[u], result.users[u],
            "threads=" + std::to_string(threads) +
                " shards=" + std::to_string(shards) +
                " user=" + std::to_string(u));
      }
    }
  }
}

TEST_F(FleetSchedulerTest, EvictionReloadRoundTripMatchesAllResident) {
  auto all_resident = concurrent(3);
  all_resident.threads = 2;
  const ConcurrentFleetResult full = run_concurrent_fleet(all_resident);
  EXPECT_EQ(full.stats.cache.evictions, 0u);
  EXPECT_EQ(full.stats.cache.misses, 0u);

  auto evicting = concurrent(3);
  evicting.threads = 2;
  evicting.adapter_cache_capacity = 1;  // every swap spills someone
  const ConcurrentFleetResult tight = run_concurrent_fleet(evicting);
  EXPECT_GT(tight.stats.cache.evictions, 0u);
  EXPECT_GT(tight.stats.cache.misses, 0u);

  // Spill -> CRC-checked reload is exact: fp32 adapter values AND optimizer
  // moments survive, so results equal the never-evicted run bit for bit.
  ASSERT_EQ(full.users.size(), tight.users.size());
  for (std::size_t u = 0; u < full.users.size(); ++u) {
    expect_user_identical(full.users[u], tight.users[u],
                          "user=" + std::to_string(u));
  }
}

TEST_F(FleetSchedulerTest, MemoryBudgetDerivesCacheCapacity) {
  auto config = concurrent(3);
  config.threads = 1;
  // A budget barely above the shared base forces heavy spilling (capacity
  // clamps to 1) without changing any user's numbers.
  config.memory_budget_bytes = 1;
  const ConcurrentFleetResult result = run_concurrent_fleet(config);
  EXPECT_GT(result.stats.cache.evictions, 0u);
  EXPECT_GT(result.stats.ledger.adapter_bytes_each, 0u);
  EXPECT_GT(result.stats.ledger.base.total_bytes(), 0u);
  for (const auto& user : result.users) {
    EXPECT_EQ(user.engine_stats.seen, 10u);
  }
}

TEST_F(FleetSchedulerTest, StarvationCounterFiresForRiggedSlowUser) {
  auto config = concurrent(3);
  config.threads = 2;
  config.oversubscribe = true;  // two true OS lanes even on a 1-core host
  config.starvation_gap = 2;
  config.fleet.device_template.stream_size = 12;
  config.fleet.device_template.finetune_interval = 2;  // 6 rounds per user
  config.fleet.device_template.record_curve = false;
  // User 0 runs 24 epochs per fine-tune against the others' 1: while its
  // chunk occupies one lane, the other lane keeps advancing the fast users,
  // so the rounds gap at the wave boundary must reach the threshold. The
  // epochs must dwarf each chunk's fixed cost (scoring, synthesis), or the
  // gap depends on how fast a training step is.
  exp::ExperimentConfig slow = config.fleet.device_template;
  slow.epochs = 24;
  config.user_overrides[0] = slow;

  const ConcurrentFleetResult result = run_concurrent_fleet(config);
  EXPECT_GE(result.stats.starvation_events, 1u);
  EXPECT_GE(result.stats.max_rounds_behind, config.starvation_gap);
  // Starved, not stalled: every user still finishes all rounds.
  for (const auto& user : result.users) {
    EXPECT_EQ(user.engine_stats.seen, 12u);
  }
}

TEST_F(FleetSchedulerTest, SurvivesInjectedFaultsDuringConcurrentChunks) {
  auto config = concurrent(4);
  config.threads = 4;
  config.adapter_cache_capacity = 2;  // exercise spill I/O under faults too
  config.fleet.device_template.record_curve = false;

  util::fault::ScopedSchedule armed(
      util::fault::FaultSchedule::random(/*seed=*/0xF1EE7, /*num_events=*/24));
  const ConcurrentFleetResult result = run_concurrent_fleet(config);

  // Whatever the schedule hit, the run terminates and accounts coherently:
  // every user either finished their stream or was retired as faulted.
  ASSERT_EQ(result.users.size(), 4u);
  std::size_t completed = 0;
  for (const auto& user : result.users) {
    if (user.engine_stats.seen == 10u) ++completed;
  }
  EXPECT_EQ(completed + result.stats.faults, 4u);
  EXPECT_GE(result.stats.rounds, completed * 2);
}

// A user the scheduler retires after a fault keeps the progress it made
// before the fault: run_user_chunk swaps the session out whole, and with no
// evaluation pending the scheduler finalizes its result on the spot.
TEST_F(FleetSchedulerTest, RetiredUserReportsProgressAtFault) {
  auto config = concurrent(1);
  config.threads = 1;
  config.fleet.device_template.record_curve = false;

  util::fault::FaultSchedule schedule;
  // The 8th stream step (index 7, inside the second chunk of 5) fails
  // before it counts the set.
  schedule.events.push_back({util::fault::FaultKind::kTaskFail,
                             "engine.process", /*at=*/7, /*param=*/0,
                             /*once=*/true});
  util::fault::ScopedSchedule armed(schedule);
  const ConcurrentFleetResult result = run_concurrent_fleet(config);

  EXPECT_EQ(result.stats.faults, 1u);
  ASSERT_EQ(result.users.size(), 1u);
  EXPECT_EQ(result.users[0].engine_stats.seen, 7u);
}

// A fault mid-chunk costs the rest of the chunk, not the session: the
// policy, synthesizer, buffer and progress survive the throw, and the next
// chunk finishes the stream.
TEST(RunUserChunk, FaultMidChunkLeavesSessionWhole) {
  exp::ExperimentConfig config = exp::chaos_fleet_defaults().device_template;
  config.stream_size = 8;
  config.finetune_interval = 8;
  const text::Tokenizer tokenizer = exp::make_device_tokenizer();
  const std::unique_ptr<llm::MiniLlm> base =
      exp::make_base_model(config, tokenizer);
  WorkerContext worker = make_worker(exp::make_model_config(config, tokenizer),
                                     exp::experiment_base_seed(config), *base,
                                     exp::make_engine_config(config).lora);
  AdapterState adapter = initial_adapter_state(*worker.model);
  const EvalSink discard = [](EvalJob) {};
  const std::unique_ptr<UserSession> session =
      make_user_session(0, config, worker, discard);

  {
    util::fault::FaultSchedule schedule;
    schedule.events.push_back({util::fault::FaultKind::kTaskFail,
                               "engine.process", /*at=*/3, /*param=*/0,
                               /*once=*/true});
    util::fault::ScopedSchedule armed(schedule);
    EXPECT_THROW(run_user_chunk(*session, worker, tokenizer, adapter, discard),
                 util::fault::InjectedTaskFault);
  }
  EXPECT_NE(session->policy, nullptr);
  EXPECT_NE(session->synthesizer, nullptr);
  EXPECT_EQ(session->cursor, 3u);
  EXPECT_EQ(session->stats.seen, 3u);
  EXPECT_EQ(session->buffer.capacity(), config.buffer_bins);
  EXPECT_FALSE(session->work_done);

  run_user_chunk(*session, worker, tokenizer, adapter, discard);
  EXPECT_TRUE(session->work_done);
  EXPECT_EQ(session->stats.seen, 8u);
  EXPECT_EQ(session->stats.finetune_rounds, 1u);
}

// Test-local copy of the session's string hash: the oracle below derives
// every seed itself instead of reading them from the code under test.
std::uint64_t oracle_fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Independent oracle for the one personalization loop: a dedicated engine
// on a LoRA-attached base, driven by hand (process per set, finetune_now at
// the interval, evaluate_per_set on the attached model). run_experiment
// runs the same user as a session swapped onto a worker clone and scores
// its evaluations as overlays on the adapter-free base, with the sampling
// repeats forked from one primed prompt (eval_repeats >= 2). Both must
// agree exactly.
TEST(RunExperimentOracle, MatchesHandDrivenDedicatedEngine) {
  exp::ExperimentConfig config;
  config.dataset = "MedDialog";
  config.method = "Ours";
  config.buffer_bins = 4;
  config.stream_size = 10;
  config.finetune_interval = 4;  // 4 + 4 + a tail of 2
  config.test_size = 12;
  config.eval_subset = 4;
  config.eval_repeats = 3;
  config.eval_temperature = 0.5f;  // sampled: every repeat draws its own stream
  config.epochs = 1;
  config.synth_per_set = 1;
  config.pretrain_examples = 8;
  config.pretrain_epochs = 1;
  config.cache_dir = "";
  config.seed = 11;

  const exp::ExperimentResult result = exp::run_experiment(config);

  const auto& dict = lexicon::builtin_dictionary();
  const text::Tokenizer tokenizer = exp::make_device_tokenizer();
  const std::uint64_t data_seed = config.seed ^ oracle_fnv1a(config.dataset);
  data::UserOracle oracle(data_seed * 2654435761ull + 1, dict);
  const data::GeneratedDataset dataset =
      exp::make_experiment_dataset(config, oracle);
  std::vector<const data::DialogueSet*> eval_sets;
  const std::size_t n_eval = std::min(config.eval_subset, dataset.test.size());
  for (std::size_t i = 0; i < n_eval; ++i) {
    eval_sets.push_back(&dataset.test[i * dataset.test.size() / n_eval]);
  }

  std::unique_ptr<llm::MiniLlm> model =
      exp::make_base_model(config, tokenizer);
  llm::LlmEmbeddingExtractor extractor(*model, tokenizer);
  core::EngineConfig ec = exp::make_engine_config(config);
  ec.finetune_interval = 0;  // fine-tunes are driven by hand below
  util::Rng outer(data_seed ^ oracle_fnv1a(config.method) ^ 0xabcdef12345ull);
  core::ParaphraseSynthesizer::Config synth_config;
  synth_config.sanity.mode = config.sanity_mode;
  synth_config.sanity.threshold = config.sanity_threshold;
  util::Rng synth_rng = outer.split();
  util::Rng engine_rng = outer.split();
  core::PersonalizationEngine engine(
      *model, tokenizer, extractor, oracle, dict, exp::make_policy(config.method),
      std::make_unique<core::ParaphraseSynthesizer>(dict, synth_rng,
                                                    synth_config),
      ec, engine_rng);

  eval::LearningCurve curve(config.method);
  curve.record(0, engine.evaluate(eval_sets, config.eval_repeats));
  for (std::size_t i = 0; i < config.stream_size; ++i) {
    engine.process(dataset.stream[i]);
    if ((i + 1) % config.finetune_interval == 0 ||
        i + 1 == config.stream_size) {
      engine.finetune_now();
      curve.record(i + 1, engine.evaluate(eval_sets, config.eval_repeats));
    }
  }
  const std::vector<double> final_per_set =
      engine.evaluate_per_set(eval_sets, config.eval_repeats);

  ASSERT_EQ(result.curve.num_points(), curve.num_points());
  for (std::size_t p = 0; p < curve.num_points(); ++p) {
    EXPECT_EQ(result.curve.seen()[p], curve.seen()[p]);
    EXPECT_EQ(result.curve.rouge()[p], curve.rouge()[p]) << "point " << p;
  }
  EXPECT_EQ(result.final_per_set, final_per_set);
  EXPECT_EQ(result.final_rouge, curve.final_rouge());

  const core::EngineStats& a = result.engine_stats;
  const core::EngineStats& b = engine.stats();
  EXPECT_EQ(a.seen, b.seen);
  EXPECT_EQ(a.admitted_free, b.admitted_free);
  EXPECT_EQ(a.admitted_replacing, b.admitted_replacing);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.annotations_made, b.annotations_made);
  EXPECT_EQ(a.finetune_rounds, b.finetune_rounds);
  EXPECT_EQ(a.synthesis.generated, b.synthesis.generated);
  EXPECT_EQ(a.synthesis.accepted, b.synthesis.accepted);
  EXPECT_EQ(a.synthesized_used, b.synthesized_used);
  EXPECT_EQ(a.last_train_loss, b.last_train_loss);
  EXPECT_EQ(b.finetune_rounds, 3u);

  const exp::BufferComposition comp = exp::buffer_composition(engine.buffer());
  EXPECT_EQ(result.buffer.size, comp.size);
  EXPECT_EQ(result.buffer.noise, comp.noise);
  EXPECT_EQ(result.buffer.distinct_subtopics, comp.distinct_subtopics);
  EXPECT_EQ(result.buffer.distinct_domains, comp.distinct_domains);
  EXPECT_EQ(result.annotation_requests, oracle.annotation_requests());
}

TEST(FleetAdapterState, SpillRoundTripIsExact) {
  AdapterState state;
  state.opt_step_count = 42;
  AdapterState::Site site;
  site.a = tensor::Tensor(3, 2);
  site.b = tensor::Tensor(2, 4);
  site.m_a = tensor::Tensor(3, 2);
  site.v_a = tensor::Tensor(3, 2);
  for (std::size_t i = 0; i < site.a.size(); ++i) {
    site.a.data()[i] = 0.25f * static_cast<float>(i) - 1.0f;
  }
  for (std::size_t i = 0; i < site.b.size(); ++i) {
    site.b.data()[i] = -0.5f * static_cast<float>(i);
  }
  state.sites.push_back(site);

  const std::string path =
      "/tmp/odlp_fleet_state_" + std::to_string(::getpid()) + ".adapter";
  save_adapter_state(state, path);
  const AdapterState loaded = load_adapter_state(path);
  fs::remove(path);

  ASSERT_EQ(loaded.sites.size(), 1u);
  EXPECT_EQ(loaded.opt_step_count, 42);
  ASSERT_EQ(loaded.sites[0].a.size(), site.a.size());
  for (std::size_t i = 0; i < site.a.size(); ++i) {
    EXPECT_EQ(loaded.sites[0].a.data()[i], site.a.data()[i]);
  }
  ASSERT_EQ(loaded.sites[0].b.size(), site.b.size());
  for (std::size_t i = 0; i < site.b.size(); ++i) {
    EXPECT_EQ(loaded.sites[0].b.data()[i], site.b.data()[i]);
  }
  // Absent moments stay absent (fresh lazy-init on the next step).
  EXPECT_EQ(loaded.sites[0].m_b.size(), 0u);
  EXPECT_EQ(loaded.sites[0].v_b.size(), 0u);
}

TEST(FleetAdapterCache, LruEvictsLeastRecentlyReleased) {
  const std::string dir =
      "/tmp/odlp_fleet_cache_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto make_state = [](float fill) {
    AdapterState s;
    AdapterState::Site site;
    site.a = tensor::Tensor(2, 2);
    for (std::size_t i = 0; i < site.a.size(); ++i) site.a.data()[i] = fill;
    site.b = tensor::Tensor(2, 2);
    s.sites.push_back(site);
    return s;
  };

  AdapterCache cache(/*capacity=*/2, dir);
  cache.insert(0, make_state(0.0f));
  cache.insert(1, make_state(1.0f));
  cache.insert(2, make_state(2.0f));  // evicts user 0 (least recent)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().resident, 2u);

  // User 0 reloads from spill with its exact bytes.
  AdapterState reloaded = cache.acquire(0);
  EXPECT_EQ(cache.stats().misses, 1u);
  ASSERT_EQ(reloaded.sites.size(), 1u);
  EXPECT_EQ(reloaded.sites[0].a.data()[0], 0.0f);
  cache.release(0, std::move(reloaded));

  // Users 1 and 2 were resident all along.
  AdapterState hit = cache.acquire(2);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.release(2, std::move(hit));
  EXPECT_LE(cache.stats().resident, 2u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace odlp::fleet
