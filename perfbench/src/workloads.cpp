#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "core/buffer_io.h"
#include "core/engine.h"
#include "data/stream_transforms.h"
#include "devicesim/memory_model.h"
#include "exp/experiment.h"
#include "fleet/scheduler.h"
#include "io/stream_capture.h"
#include "lexicon/lexicon.h"
#include "obs/profiler.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace odlp;

// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 3;
// Sampling rate of the profiler in traced runs (a prime, like the
// profiler's default, so ticks do not phase-lock with periodic work).
constexpr double kProfileHz = 499.0;

// ---------------------------------------------------------------------------
// Inputs
//
// Every workload personalizes one fixed deployed base model (pretrained in
// each set-up from kBaseSeed) for a fixed panel of users, each a hidden
// persona that a user oracle annotates with. --seed draws the traffic:
// which dialogue sets each user sends, in which order, and which held-out
// sets evaluate them. Fixing base and personas keeps rouge1 a property of
// the code rather than of the draw: a user's style alone moves its final
// ROUGE-1 by about ±25%, and the base model's initialisation by ±10%.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kBaseSeed = 0xd1a10905ull;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {  // splitmix64 finalizer
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct UserWorkload {
  exp::ExperimentConfig shape;  // everything but the seeds
  std::uint64_t first_persona = 0;
  std::size_t panel = 0;  // users per pass; rouge1 is their mean
  bool checkpoint_each_round = false;
  bool warmup = false;  // one untimed user before measuring
  // Selection-only replays of each user's stream after its episode: the
  // same process() calls again, for enough per-set samples.
  std::size_t selection_passes = 0;
};

// paper_round: the paper's round with the ExperimentConfig defaults (32
// bins, interval 80, 3 synthesized sets per set, 20 epochs, a learning-curve
// point each round) for MedDialog users, one round per user.
UserWorkload paper_round() {
  UserWorkload w;
  w.shape.dataset = "MedDialog";
  w.shape.stream_size = 80;
  w.shape.eval_subset = 96;
  w.shape.eval_repeats = 2;
  w.first_persona = 101;
  w.panel = 4;
  w.selection_passes = 3;
  return w;
}

// select_stream: ALPACA users (diverse, nearly iid: the buffer keeps
// churning), a 128-bin buffer, a long stream, rare 1-epoch fine-tunes on the
// buffer alone (no synthesis) and a buffer checkpoint each round; no
// learning curve, one final evaluation.
UserWorkload select_stream() {
  UserWorkload w;
  w.shape.dataset = "ALPACA";
  w.shape.buffer_bins = 128;
  w.shape.stream_size = 1500;
  w.shape.finetune_interval = 750;
  w.shape.epochs = 1;
  w.shape.synth_per_set = 0;
  w.shape.test_size = 200;
  w.shape.eval_subset = 96;
  w.shape.eval_repeats = 2;
  w.shape.record_curve = false;
  w.first_persona = 201;
  w.panel = 4;
  w.checkpoint_each_round = true;
  w.warmup = true;
  return w;
}

// fleet_eval: 8 MedDialog users, 4 rounds each, decode-heavy (a curve point
// each round with 8 sampling repeats), through the concurrent scheduler with
// 4 lanes, cross-user batched decode and an adapter cache holding half the
// fleet.
constexpr std::size_t kFleetUsers = 8;
constexpr std::uint64_t kFleetFirstPersona = 301;

exp::FleetConfig fleet_eval(const std::string& cache_dir,
                            const std::string& traffic_dir) {
  exp::FleetConfig f;
  f.num_devices = kFleetUsers;
  exp::ExperimentConfig& c = f.device_template;
  c.dataset = "MedDialog";
  c.buffer_bins = 8;
  c.stream_size = 24;
  c.finetune_interval = 6;
  c.test_size = 48;
  c.eval_subset = 24;
  c.eval_repeats = 8;
  c.epochs = 1;
  c.synth_per_set = 1;
  c.cache_dir = cache_dir;
  f.seed_base = kFleetFirstPersona;
  f.shared_base_seed = kBaseSeed;
  f.traffic_dir = traffic_dir;
  return f;
}

fleet::ConcurrentFleetConfig fleet_scheduler(const exp::FleetConfig& fleet,
                                             const std::string& spill_dir) {
  fleet::ConcurrentFleetConfig cc;
  cc.fleet = fleet;
  cc.method = "Ours";
  cc.threads = 4;
  cc.shards = 4;
  cc.decode_batch = 12;
  cc.adapter_cache_capacity = kFleetUsers / 2;
  cc.spill_dir = spill_dir;
  return cc;
}

// The ExperimentConfig the scheduler runs user `u` of `fleet` with.
exp::ExperimentConfig fleet_user(const exp::FleetConfig& fleet, std::size_t u) {
  exp::ExperimentConfig c = fleet.device_template;
  c.method = "Ours";
  c.seed = fleet.seed_base + u;
  c.base_seed = fleet.shared_base_seed;
  c.traffic_replay_path =
      fleet.traffic_dir + "/user-" + std::to_string(u) + ".obsf";
  return c;
}

// ---------------------------------------------------------------------------
// Accumulated measurements (CPU time unless named otherwise)
// ---------------------------------------------------------------------------

struct Tally {
  Samples select_us;   // process() per set
  Samples score_us;    // process() start -> policy offer() start
  Samples quality_us;  // scoring minus the embedding forward
  Samples offer_us;    // policy offer() (steady clock)
  Samples round_s;
  Samples ckpt_ms;
  Samples unit_s;        // one measured unit: a user or a fleet
  double work_s = 0.0;   // the units' episodes or fleet calls alone
  double process_s = 0.0;
  double checkpoint_s = 0.0;
  double embed_s = 0.0;
  double synth_s = 0.0;
  double train_s = 0.0;
  double eval_s = 0.0;
  double round_eval_s = 0.0;     // evaluation inside rounds
  double round_covered_s = 0.0;  // benchmark spans inside rounds
  std::size_t sets = 0;
  std::size_t rounds = 0;
  std::size_t users = 0;

  // Registry deltas over the counted units.
  double train_tokens = 0.0;
  double decode_tokens = 0.0;
  double forward_us = 0.0;
  double backward_us = 0.0;
  double optimizer_us = 0.0;
  double finetune_us = 0.0;    // engine.finetune.us (synthesis included)
  double synthesize_us = 0.0;  // engine.synthesize.us
  double lane_busy_us = 0.0;
  double lane_capacity_us = 0.0;  // lanes x wall
  BucketCounts fleet_round_us;

  std::map<std::string, std::uint64_t> folded;  // profiler stacks
  std::uint64_t profile_samples = 0;

  std::vector<fleet::FleetRunStats> fleets;
  // (input key, CPU seconds) of every unit: a user or a fleet.
  std::vector<std::pair<std::size_t, double>> keyed_units;

  std::size_t units() const { return unit_s.count(); }

  void merge(const Tally& o) {
    select_us.append(o.select_us);
    score_us.append(o.score_us);
    quality_us.append(o.quality_us);
    offer_us.append(o.offer_us);
    round_s.append(o.round_s);
    ckpt_ms.append(o.ckpt_ms);
    unit_s.append(o.unit_s);
    work_s += o.work_s;
    process_s += o.process_s;
    checkpoint_s += o.checkpoint_s;
    embed_s += o.embed_s;
    synth_s += o.synth_s;
    train_s += o.train_s;
    eval_s += o.eval_s;
    round_eval_s += o.round_eval_s;
    round_covered_s += o.round_covered_s;
    sets += o.sets;
    rounds += o.rounds;
    users += o.users;
    train_tokens += o.train_tokens;
    decode_tokens += o.decode_tokens;
    forward_us += o.forward_us;
    backward_us += o.backward_us;
    optimizer_us += o.optimizer_us;
    finetune_us += o.finetune_us;
    synthesize_us += o.synthesize_us;
    lane_busy_us += o.lane_busy_us;
    lane_capacity_us += o.lane_capacity_us;
    fleet_round_us.add(o.fleet_round_us);
    for (const auto& [stack, n] : o.folded) folded[stack] += n;
    profile_samples += o.profile_samples;
    fleets.insert(fleets.end(), o.fleets.begin(), o.fleets.end());
    keyed_units.insert(keyed_units.end(), o.keyed_units.begin(),
                       o.keyed_units.end());
  }
};

// Moves the per-set selection timings of a selection-only pass into `t`.
void take_selection(Tally& t, const Tally& pass) {
  t.select_us.append(pass.select_us);
  t.score_us.append(pass.score_us);
  t.quality_us.append(pass.quality_us);
  t.offer_us.append(pass.offer_us);
  t.embed_s += pass.embed_s;
  t.ckpt_ms.append(pass.ckpt_ms);
}

// Tracing overhead: for every input that ran both untraced and traced, the
// ratio of the traced CPU time to the untraced one; the median ratio - 1.
double trace_overhead(const Tally& plain, const Tally& traced) {
  Samples ratios;
  for (const auto& [key, cpu] : traced.keyed_units) {
    Samples same;
    for (const auto& [k, c] : plain.keyed_units) {
      if (k == key) same.add(c);
    }
    if (same.count() > 0 && same.median() > 0.0) ratios.add(cpu / same.median());
  }
  return ratios.count() > 0 ? ratios.median() - 1.0 : 0.0;
}

// Registry counters and histograms over one unit of work.
class RegistryWindow {
 public:
  RegistryWindow() : before_(obs::registry().snapshot()) {}
  void close(Tally& t, double wall_s) {
    const RegistryDelta d(std::move(before_), obs::registry().snapshot());
    t.train_tokens += d.counter("train.tokens.total");
    t.decode_tokens += d.counter("decode.batch.tokens.total");
    t.forward_us += d.hist_sum("train.step.forward_us");
    t.backward_us += d.hist_sum("train.step.backward_us");
    t.optimizer_us += d.hist_sum("train.step.optimizer_us");
    t.finetune_us += d.hist_sum("engine.finetune.us");
    t.synthesize_us += d.hist_sum("engine.synthesize.us");
    t.lane_busy_us += d.counter_family("pool.lane", ".busy_us");
    t.lane_capacity_us +=
        static_cast<double>(util::ThreadPool::global().lanes()) * wall_s * 1e6;
    t.fleet_round_us.add(d.buckets("fleet.round.us"));
  }

 private:
  obs::MetricsSnapshot before_;
};

// Sampling profiler around one traced unit; a no-op when not traced.
class ProfileWindow {
 public:
  explicit ProfileWindow(bool on) : profiler_(kProfileHz) {
    if (on) profiler_.start();
  }
  void close(Tally& t) {
    if (!profiler_.running()) return;
    const obs::ProfileReport r = profiler_.stop();
    for (const auto& [stack, n] : r.folded) t.folded[stack] += n;
    t.profile_samples += r.samples;
  }

 private:
  obs::Profiler profiler_;
};

// Runs `unit(i, tally)` for i = 0, 1, ... until `seconds` of wall time have
// passed and at least `min_units` units ran; `unit` returns a key naming
// its input. `after(i, tally)` follows each unit outside its profiler and
// registry windows (selection-only passes that time themselves). With
// `warmup`, unit 0 first runs once untimed (thread pool, allocator, lazily
// sized workspaces; its outputs still take part in the correctness checks).
// In a traced run units alternate untraced/traced in ABBA order
// (U T T U U T ...), so drift over the run cancels out of the overhead
// comparison; untraced units land in `plain`, traced ones in `traced`.
template <typename Unit, typename After>
void measure(const Options& o, bool warmup, std::size_t min_units,
             Tally& plain, Tally& traced, Unit unit, After after) {
  if (warmup) {
    Tally discard;
    unit(0, discard);
  }
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = o.trace && (i % 4 == 1 || i % 4 == 2);
    Tally t;
    {
      ProfileWindow profile(trace_this);
      RegistryWindow registry;
      const Stamp u0;
      const std::size_t key = unit(i, t);
      t.unit_s.add(u0.cpu_since());
      t.keyed_units.emplace_back(key, t.unit_s.values().back());
      registry.close(t, u0.wall_since());
      profile.close(t);
    }
    after(i, t);
    (trace_this ? traced : plain).merge(t);
    const bool both = !o.trace || (traced.units() > 0 && plain.units() > 0);
    if (both && i + 1 >= min_units && seconds_since(start) >= o.seconds) break;
  }
}

// ---------------------------------------------------------------------------
// One user's episode, driven through the engine's public surface
// ---------------------------------------------------------------------------

struct User {
  exp::ExperimentConfig config;  // traffic seed, base seed, private cache
  std::uint64_t persona = 0;     // user-oracle seed
  data::GeneratedDataset dataset;
};

bool same_buffer(const core::DataBuffer& a, const core::DataBuffer& b) {
  if (a.capacity() != b.capacity() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::BufferEntry& x = a.entry(i);
    const core::BufferEntry& y = b.entry(i);
    if (x.set.question != y.set.question || x.set.answer != y.set.answer ||
        x.set.reference != y.set.reference ||
        x.set.true_domain != y.set.true_domain ||
        x.set.true_subtopic != y.set.true_subtopic ||
        x.set.is_noise != y.set.is_noise ||
        x.set.stream_position != y.set.stream_position ||
        x.dominant_domain != y.dominant_domain ||
        x.scores.eoe != y.scores.eoe || x.scores.dss != y.scores.dss ||
        x.scores.idd != y.scores.idd || x.inserted_at != y.inserted_at ||
        x.annotated != y.annotated ||
        x.embedding.rows() != y.embedding.rows() ||
        x.embedding.cols() != y.embedding.cols() ||
        !std::equal(x.embedding.data(), x.embedding.data() + x.embedding.size(),
                    y.embedding.data())) {
      return false;
    }
  }
  return true;
}

struct EpisodeOutput {
  std::vector<double> final_per_set;
  std::vector<double> curve;
  double final_rouge = 0.0;
  core::EngineStats stats;
  std::size_t checkpoint_bytes = 0;
  std::size_t ledger_bytes = 0;
  double decode_steps = 0.0;
  double occupancy_sum = 0.0;
  double occupancy_count = 0.0;

  bool operator==(const EpisodeOutput& o) const {
    return final_per_set == o.final_per_set && curve == o.curve &&
           stats.seen == o.stats.seen &&
           stats.admitted_free == o.stats.admitted_free &&
           stats.admitted_replacing == o.stats.admitted_replacing &&
           stats.synthesis.accepted == o.stats.synthesis.accepted &&
           checkpoint_bytes == o.checkpoint_bytes &&
           decode_steps == o.decode_steps;
  }
};

struct EpisodePlan {
  bool rounds = true;  // false: selection only (process() every set)
  bool checkpoint_each_round = false;
  std::string checkpoint_path;
};

// One user through the paper's loop the way exp::run_experiment drives it,
// with the fine-tune rounds triggered from here (the engine's interval is
// set to 0 and finetune_now() is called after the same sets) so that each
// process(), finetune_now() and evaluate() call is timed on its own.
EpisodeOutput run_episode(const User& user, const text::Tokenizer& tok,
                          const EpisodePlan& plan, Tally& t, Result& r) {
  const exp::ExperimentConfig& c = user.config;
  const auto& dict = lexicon::builtin_dictionary();
  data::UserOracle oracle(user.persona, dict);
  const data::GeneratedDataset& ds = user.dataset;
  std::vector<const data::DialogueSet*> eval_sets;
  const std::size_t n_eval = std::min(c.eval_subset, ds.test.size());
  for (std::size_t i = 0; i < n_eval; ++i) {
    eval_sets.push_back(&ds.test[i * ds.test.size() / n_eval]);
  }

  // Loads the base pretrained during set-up from the private cache.
  std::unique_ptr<llm::MiniLlm> model = exp::make_base_model(c, tok);
  llm::LlmEmbeddingExtractor llm_extractor(*model, tok);
  TimedExtractor extractor(llm_extractor);
  core::EngineConfig ec = exp::make_engine_config(c);
  const std::size_t interval = plan.rounds ? ec.finetune_interval : 0;
  ec.finetune_interval = 0;

  util::Rng engine_rng(mix(user.persona, 0xe9));
  core::ParaphraseSynthesizer::Config synth_config;
  synth_config.sanity.mode = c.sanity_mode;
  synth_config.sanity.threshold = c.sanity_threshold;
  util::Rng synth_rng = engine_rng.split();
  util::Rng engine_ctor_rng = engine_rng.split();
  auto policy =
      std::make_unique<TimedPolicy>(exp::make_policy(c.method), t.offer_us);
  const TimedPolicy& timed_policy = *policy;
  auto synth = std::make_unique<TimedSynthesizer>(
      std::make_unique<core::ParaphraseSynthesizer>(dict, synth_rng,
                                                    synth_config));
  TimedSynthesizer& timed_synth = *synth;
  core::PersonalizationEngine engine(*model, tok, extractor, oracle, dict,
                                     std::move(policy), std::move(synth), ec,
                                     engine_ctor_rng);

  EpisodeOutput out;
  const obs::MetricsSnapshot registry_before = obs::registry().snapshot();
  const auto evaluate_point = [&] {
    Span span("bench.evaluate");
    out.curve.push_back(engine.evaluate(eval_sets, c.eval_repeats));
    const double s = span.done();
    t.eval_s += s;
    return s;
  };
  const auto checkpoint = [&] {
    Span span("bench.checkpoint");
    core::save_buffer(engine.buffer(), plan.checkpoint_path);
    const double s = span.done();
    t.ckpt_ms.add(s * 1e3);
    t.checkpoint_s += s;
    return s;
  };
  const Stamp episode_start;
  if (plan.rounds && c.record_curve) evaluate_point();

  Stamp round_start;
  double round_covered = 0.0;
  const auto end_round = [&] {
    double finetune_s = 0.0;
    {
      Span span("bench.finetune");
      engine.finetune_now();
      finetune_s = span.done();
    }
    const double synth_s = timed_synth.take();
    t.synth_s += synth_s;
    t.train_s += finetune_s - synth_s;
    round_covered += finetune_s;
    if (c.record_curve) {
      const double e = evaluate_point();
      t.round_eval_s += e;
      round_covered += e;
    }
    if (plan.checkpoint_each_round) round_covered += checkpoint();
    t.round_s.add(round_start.cpu_since());
    t.round_covered_s += round_covered;
    ++t.rounds;
    r.count_ops(1);
    round_start = Stamp();
    round_covered = 0.0;
  };

  std::size_t seen = 0;
  std::size_t bad_sets = 0;
  for (const data::DialogueSet& set : ds.stream) {
    double process_s = 0.0;
    double after_offer_s = 0.0;
    {
      Span span("bench.process");
      engine.process(set);
      process_s = span.done();
      after_offer_s = cpu_now() - timed_policy.last_offer_cpu();
    }
    round_covered += process_s;
    t.process_s += process_s;
    t.select_us.add(process_s * 1e6);
    // Scoring runs from the start of process() to the policy's offer().
    const double score_s = process_s - after_offer_s;
    const double embed_s = extractor.take();
    t.score_us.add(score_s * 1e6);
    t.quality_us.add((score_s - embed_s) * 1e6);
    t.embed_s += embed_s;
    if (engine.buffer().size() > c.buffer_bins) ++bad_sets;
    ++seen;
    ++t.sets;
    if (interval > 0 && seen % interval == 0) end_round();
  }
  if (plan.rounds) {
    if (interval == 0 || seen % interval != 0) end_round();
    Span span("bench.evaluate");
    out.final_per_set = engine.evaluate_per_set(eval_sets, c.eval_repeats);
    t.eval_s += span.done();
  }
  if (!plan.checkpoint_each_round) checkpoint();
  t.work_s += episode_start.cpu_since();
  ++t.users;
  const RegistryDelta d(registry_before, obs::registry().snapshot());
  out.decode_steps = d.counter("decode.batch.steps.total");
  out.occupancy_sum = d.hist_sum("decode.batch.occupancy.hist");
  out.occupancy_count = d.hist_count("decode.batch.occupancy.hist");

  // Outputs and checks (untimed).
  double mean = 0.0;
  for (double v : out.final_per_set) mean += v;
  if (!out.final_per_set.empty()) {
    mean /= static_cast<double>(out.final_per_set.size());
  }
  out.final_rouge = c.record_curve && !out.curve.empty() ? out.curve.back() : mean;
  out.stats = engine.stats();
  out.checkpoint_bytes =
      static_cast<std::size_t>(std::filesystem::file_size(plan.checkpoint_path));
  out.ledger_bytes = devicesim::model_memory_ledger(*model, c.buffer_bins,
                                                    engine.decode_kv_sessions())
                         .total_bytes();

  const core::EngineStats& s = out.stats;
  r.count_ops(seen, bad_sets);
  r.check(bad_sets == 0, "buffer held more sets than its bin count");
  r.check(s.seen == seen, "engine saw a different number of sets");
  r.check(s.seen == s.admitted_free + s.admitted_replacing + s.rejected +
                        s.quarantined,
          "seen != admitted_free + admitted_replacing + rejected + quarantined");
  if (plan.rounds) {
    r.check(std::isfinite(out.final_rouge) && out.final_rouge >= 0.0 &&
                out.final_rouge <= 1.0,
            "rouge1 outside [0, 1]");
  }
  r.check(same_buffer(core::load_buffer(plan.checkpoint_path), engine.buffer()),
          "buffer checkpoint did not reload equal to the live buffer");
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: tokenizer, traffic, base model into a private empty cache
// ---------------------------------------------------------------------------

struct SetupTimes {
  Samples tokenizer_s;
  Samples generate_s;
  Samples base_model_s;
  Samples total_s;
};

struct Prepared {
  std::unique_ptr<text::Tokenizer> tokenizer;
  std::vector<User> users;
  std::string cache_dir;  // holds the pretrained base
};

// Runs the set-up kSetups times, each into a fresh empty cache directory so
// every repetition pretrains the base model; keeps the last one. `users`
// personas from `first_persona` on get traffic drawn from the run seed.
Prepared prepare(const Options& o, const exp::ExperimentConfig& shape,
                 std::uint64_t first_persona, std::size_t users,
                 SetupTimes& times) {
  Prepared kept;
  for (std::size_t i = 0; i < kSetups; ++i) {
    Prepared p;
    p.cache_dir = o.work_dir + "/setup-" + std::to_string(i);
    make_empty_dir(p.cache_dir);
    const Stamp start;
    Stamp t0;
    p.tokenizer =
        std::make_unique<text::Tokenizer>(exp::make_device_tokenizer());
    times.tokenizer_s.add(t0.cpu_since());
    t0 = Stamp();
    for (std::size_t u = 0; u < users; ++u) {
      User user;
      user.config = shape;
      user.config.seed = mix(o.seed, u);
      user.config.base_seed = kBaseSeed;
      user.config.cache_dir = p.cache_dir;
      user.persona = first_persona + u;
      data::UserOracle oracle(user.persona, lexicon::builtin_dictionary());
      user.dataset = exp::make_experiment_dataset(user.config, oracle);
      p.users.push_back(std::move(user));
    }
    if (users > 0) times.generate_s.add(t0.cpu_since());
    t0 = Stamp();
    exp::ExperimentConfig base = shape;
    base.base_seed = kBaseSeed;
    base.cache_dir = p.cache_dir;
    exp::make_base_model(base, *p.tokenizer);
    times.base_model_s.add(t0.cpu_since());
    times.total_s.add(start.cpu_since());
    if (i > 0) std::filesystem::remove_all(kept.cache_dir);
    kept = std::move(p);
  }
  return kept;
}

// ---------------------------------------------------------------------------
// Metric assembly
// ---------------------------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Profiler share of samples whose leaf frame is `frame`.
double leaf_share(const Tally& t, const std::string& frame) {
  std::uint64_t total = 0, hit = 0;
  for (const auto& [stack, n] : t.folded) {
    total += n;
    const auto semi = stack.rfind(';');
    if (stack.compare(semi == std::string::npos ? 0 : semi + 1,
                      std::string::npos, frame) == 0) {
      hit += n;
    }
  }
  return ratio(static_cast<double>(hit), static_cast<double>(total));
}

// Profiler share of samples whose whole stack is `stack`.
double stack_share(const Tally& t, const std::string& stack) {
  std::uint64_t total = 0, hit = 0;
  for (const auto& [s, n] : t.folded) {
    total += n;
    if (s == stack) hit += n;
  }
  return ratio(static_cast<double>(hit), static_cast<double>(total));
}

// Profiler share of samples whose stack contains `frame`.
double frame_share(const Tally& t, const std::string& frame) {
  std::uint64_t total = 0, hit = 0;
  for (const auto& [stack, n] : t.folded) {
    total += n;
    if (stack.find(frame) != std::string::npos) hit += n;
  }
  return ratio(static_cast<double>(hit), static_cast<double>(total));
}

// Dense-transformer FLOPs of one trained token: forward 2P, backward 4P,
// with P the matmul parameters (per layer q/k/v/o 4·d² and the MLP 2·d·ff,
// plus the LM head d·V); attention-score products are left out.
double train_flops_per_token(const exp::ExperimentConfig& c,
                             std::size_t vocab) {
  const double d = static_cast<double>(c.model_dim);
  const double ff = static_cast<double>(c.model_ff);
  const double p =
      static_cast<double>(c.model_layers) * (4.0 * d * d + 2.0 * d * ff) +
      d * static_cast<double>(vocab);
  return 6.0 * p;
}

void add_setup_layers(Result& r, const SetupTimes& st) {
  r.layer("exp.tokenizer_s", "s", st.tokenizer_s.median(), false,
          "median over set-ups", st.tokenizer_s.count());
  r.layer("exp.base_model_s", "s", st.base_model_s.median(), false,
          "pretraining into an empty private cache, median over set-ups",
          st.base_model_s.count());
  r.layer("data.generate_s", "s", st.generate_s.median(), false,
          "traffic generation, median over set-ups (fleet_eval: drawing "
          "the stream order from the recorded traffic, once)",
          st.generate_s.count());
}

// Selection, synthesis, training and checkpoint metrics from the timed
// units `t`; counts from the users' engine statistics `stats` (each user
// once, so they repeat exactly for a seed). `training` names where the
// synthesis and training seconds in `t` come from.
void add_user_layers(Result& r, const Tally& t,
                     const std::vector<core::EngineStats>& stats,
                     double checkpoint_bytes, const exp::ExperimentConfig& c,
                     std::size_t vocab, const std::string& training) {
  double seen = 0, admitted = 0, generated = 0, accepted = 0;
  for (const core::EngineStats& s : stats) {
    seen += static_cast<double>(s.seen);
    admitted += static_cast<double>(s.admitted_free + s.admitted_replacing);
    generated += static_cast<double>(s.synthesis.generated);
    accepted += static_cast<double>(s.synthesis.accepted);
  }
  r.layer("core.score_us_p50", "us", t.score_us.median(), false,
          "process() start to policy offer() start, per set",
          t.score_us.count());
  r.layer("core.score.embed_frac", "fraction",
          ratio(t.embed_s, t.score_us.sum() * 1e-6), false,
          "embedding-extractor time / scoring time");
  r.layer("core.offer_us_p50", "us", t.offer_us.median(), false,
          "policy offer() per set, steady clock", t.offer_us.count());
  r.layer("core.score.quality_us_p50", "us", t.quality_us.median(), false,
          "scoring minus the embedding forward (EOE+DSS+IDD and text "
          "normalisation), per set",
          t.quality_us.count());
  r.layer("core.admit_frac", "fraction", ratio(admitted, seen), true,
          "admitted / seen = " + fmt(admitted) + " / " + fmt(seen) +
              " over the users");
  r.layer("core.synth_s_per_round", "s", ratio(t.synth_s, t.rounds), false,
          "synthesis per round; " + training, t.rounds);
  r.layer("core.synth.accept_frac", "fraction", ratio(accepted, generated),
          true,
          "accepted / generated at the ROUGE gate = " + fmt(accepted) + " / " +
              fmt(generated) + " over the users");
  r.layer("llm.train_s_per_round", "s", ratio(t.train_s, t.rounds), false,
          "fine-tune minus synthesis, per round; " + training, t.rounds);
  r.layer("llm.train_tok_per_s", "1/s", ratio(t.train_tokens, t.train_s),
          false, "train.tokens.total delta / training time");
  const double step_us = t.forward_us + t.backward_us + t.optimizer_us;
  r.layer("llm.train.forward_frac", "fraction", ratio(t.forward_us, step_us),
          false, "train.step.*_us registry histogram sums");
  r.layer("llm.train.backward_frac", "fraction", ratio(t.backward_us, step_us),
          false, "train.step.*_us registry histogram sums");
  r.layer("llm.train.optimizer_frac", "fraction",
          ratio(t.optimizer_us, step_us), false,
          "train.step.*_us registry histogram sums");
  r.layer("tensor.train_gflops", "GFLOP/s",
          ratio(t.train_tokens * train_flops_per_token(c, vocab) * 1e-9,
                t.train_s),
          false,
          "model-based estimate: FLOPs = 6 x matmul parameters (from the "
          "model geometry) x train tokens (train.tokens.total), over "
          "training time");
  r.layer("io.ckpt_save_ms_p50", "ms", t.ckpt_ms.median(), false,
          "core::save_buffer per call", t.ckpt_ms.count());
  r.layer("io.ckpt_bytes", "bytes", checkpoint_bytes, true,
          "mean final checkpoint file size over the users");
}

// Profiler, pool and tracing-overhead metrics shared by every workload.
void add_common_layers(Result& r, const Tally& traced, const Tally& plain) {
  r.layer("tensor.gemm_share", "fraction", leaf_share(traced, "tensor.gemm"),
          false, "sampling-profiler self time of tensor.gemm / all samples",
          traced.profile_samples);
  r.layer("pool.busy_frac", "fraction",
          ratio(traced.lane_busy_us, traced.lane_capacity_us), false,
          "sum of pool.lane*.busy_us / (lanes x wall)");
  r.layer("obs.trace_overhead_frac", "fraction", trace_overhead(plain, traced),
          false,
          "median over inputs run both ways of traced / untraced CPU time, "
          "minus 1",
          traced.units() + plain.units());
}

void add_common_e2e(Result& r, const SetupTimes& setup) {
  r.e2e("setup_s", "s", setup.total_s.median(), setup.total_s.count(),
        "median over set-ups into empty private caches");
  r.e2e("peak_rss_mb", "MB", peak_rss_mb(), 0, "VmHWM of the process");
}

// ---------------------------------------------------------------------------
// Single-user workloads
// ---------------------------------------------------------------------------

Result run_users(const Options& o, const UserWorkload& w) {
  Result r;
  SetupTimes setup;
  const Prepared prep = prepare(o, w.shape, w.first_persona, w.panel, setup);
  EpisodePlan plan;
  plan.checkpoint_each_round = w.checkpoint_each_round;
  plan.checkpoint_path = o.work_dir + "/buffer.obsf";

  // Units cycle through the panel: the first pass gives rouge1 and the
  // counts; later passes repeat it and must reproduce it exactly. A traced
  // run takes each user twice in a row, once traced, so the overhead
  // compares equal inputs.
  EpisodePlan replay = plan;
  replay.rounds = false;
  std::vector<EpisodeOutput> first(w.panel), first_replay(w.panel);
  std::vector<bool> done(w.panel, false);
  std::size_t mismatches = 0;
  Tally plain, traced;
  const std::size_t per_user = o.trace ? 2 : 1;
  const auto user_of = [&](std::size_t i) { return i / per_user % w.panel; };
  measure(
      o, w.warmup, per_user * w.panel, plain, traced,
      [&](std::size_t i, Tally& t) {
        const std::size_t u = user_of(i);
        EpisodeOutput e =
            run_episode(prep.users[u], *prep.tokenizer, plan, t, r);
        if (!done[u]) {
          first[u] = std::move(e);
          done[u] = true;
        } else if (!(e == first[u])) {
          ++mismatches;
        }
        return u;
      },
      [&](std::size_t i, Tally& t) {
        const std::size_t u = user_of(i);
        for (std::size_t p = 0; p < w.selection_passes; ++p) {
          Tally pass;
          EpisodeOutput e =
              run_episode(prep.users[u], *prep.tokenizer, replay, pass, r);
          take_selection(t, pass);
          if (first_replay[u].stats.seen == 0) {
            first_replay[u] = std::move(e);
          } else if (!(e == first_replay[u])) {
            ++mismatches;
          }
        }
      });
  r.check(mismatches == 0, "a repeated user episode differs from its first run");
  r.count_ops(0, mismatches);

  double rouge = 0.0, bytes = 0.0;
  for (const EpisodeOutput& e : first) {
    rouge += e.final_rouge;
    bytes += static_cast<double>(e.checkpoint_bytes);
  }
  const double users = static_cast<double>(w.panel);
  const Tally& m = plain;
  add_common_e2e(r, setup);
  r.e2e("sets_per_s", "1/s", ratio(m.sets, m.work_s), m.sets);
  r.e2e("users_per_s", "1/s", ratio(m.users, m.work_s), m.users);
  r.e2e("round_s_p50", "s", m.round_s.median(), m.round_s.count());
  const std::string select_basis =
      w.selection_passes == 0
          ? "process() per set"
          : "process() per set, in the episodes and " +
                std::to_string(w.selection_passes) +
                " selection-only replays of each stream";
  r.e2e("select_us_p50", "us", m.select_us.median(), m.select_us.count(),
        select_basis);
  r.e2e("select_us_p99", "us", m.select_us.quantile(0.99),
        m.select_us.count(), select_basis);
  r.e2e("eval_tok_per_s", "1/s", ratio(m.decode_tokens, m.eval_s),
        static_cast<std::size_t>(m.decode_tokens),
        "decode.batch.tokens.total delta / evaluate() time");
  r.e2e("rouge1", "fraction", rouge / users, w.panel,
        "mean final ROUGE-1 over the user panel");
  r.e2e("checkpoint_bytes", "bytes", bytes / users, w.panel,
        "mean core::save_buffer file size after a user's stream");

  if (o.trace) {
    add_setup_layers(r, setup);
    std::vector<core::EngineStats> stats;
    for (const EpisodeOutput& e : first) stats.push_back(e.stats);
    add_user_layers(r, traced, stats, bytes / users, w.shape,
                    prep.tokenizer->vocab().size(),
                    "CPU time of the synthesizer calls and of finetune_now()");
    double steps = 0, occ_sum = 0, occ_count = 0, ledger = 0;
    for (const EpisodeOutput& e : first) {
      steps += e.decode_steps;
      occ_sum += e.occupancy_sum;
      occ_count += e.occupancy_count;
      ledger += static_cast<double>(e.ledger_bytes);
    }
    r.layer("llm.decode_tok_per_s", "1/s",
            ratio(traced.decode_tokens, traced.eval_s), false,
            "decode.batch.tokens.total delta / evaluate() time");
    r.layer("llm.decode.steps", "count", steps / users, true,
            "batched decode steps per user over the panel");
    r.layer("llm.decode.occupancy_mean", "count", ratio(occ_sum, occ_count),
            true, "sessions per batched decode step over the panel");
    r.layer("devicesim.ledger_bytes", "bytes", ledger / users, true,
            "devicesim::model_memory_ledger total, mean over the panel");
    const std::string why = "no fleet in this workload";
    r.layer("fleet.round_s_p50", "s", 0.0, true, why);
    r.layer("fleet.adapter_hit_frac", "fraction", 0.0, true, why);
    r.layer("fleet.evictions", "count", 0.0, true, why);
    r.layer("fleet.max_rounds_behind", "count", 0.0, true, why);
    r.layer("fleet.waves", "count", 0.0, true, why);
    const double round = traced.round_s.sum();
    add_common_layers(r, traced, plain);
    r.layer("obs.layer_coverage_pct", "%",
            100.0 * ratio(traced.round_covered_s, round), false,
            "harness spans (process, finetune, evaluate, checkpoint) / CPU "
            "time of the rounds they tile");
    r.note("round_share.core_select", fmt(ratio(traced.process_s, round)));
    r.note("round_share.core_synth", fmt(ratio(traced.synth_s, round)));
    r.note("round_share.llm_train", fmt(ratio(traced.train_s, round)));
    r.note("round_share.llm_decode", fmt(ratio(traced.round_eval_s, round)));
    if (w.checkpoint_each_round) {
      r.note("round_share.io_checkpoint",
             fmt(ratio(traced.checkpoint_s, round)));
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// fleet_eval
// ---------------------------------------------------------------------------

// Writes each user's recorded traffic from `pool_dir` to `traffic_dir` with
// the stream shuffled by the run seed.
void draw_fleet_traffic(const Options& o, const std::string& pool_dir,
                        const std::string& traffic_dir) {
  make_empty_dir(traffic_dir);
  for (std::size_t u = 0; u < kFleetUsers; ++u) {
    const std::string name = "/user-" + std::to_string(u) + ".obsf";
    data::GeneratedDataset d = io::replay_dataset(pool_dir + name);
    util::Rng rng(mix(o.seed, 0xf1ee7 + u));
    d.stream = data::shuffled(d.stream, rng);
    io::record_dataset(d, traffic_dir + name);
  }
}

Result run_fleet(const Options& o) {
  Result r;
  SetupTimes setup;
  const exp::FleetConfig shape = fleet_eval("", "");
  const Prepared prep =
      prepare(o, shape.device_template, kFleetFirstPersona, 0, setup);

  // The scheduler records each user's traffic on a first, untimed fleet
  // (which also warms the process up); the timed fleets replay it in an
  // order drawn from the run seed.
  const std::string pool_dir = o.work_dir + "/pool";
  const std::string traffic_dir = o.work_dir + "/traffic";
  const std::string spill_dir = o.work_dir + "/spill";
  make_empty_dir(pool_dir);
  make_empty_dir(spill_dir);
  const fleet::ConcurrentFleetResult recording = fleet::run_concurrent_fleet(
      fleet_scheduler(fleet_eval(prep.cache_dir, pool_dir), spill_dir));
  r.check(recording.stats.faults == 0, "recording fleet reported faults");
  {
    const Stamp t0;
    draw_fleet_traffic(o, pool_dir, traffic_dir);
    setup.generate_s.add(t0.cpu_since());
  }
  const exp::FleetConfig fleet = fleet_eval(prep.cache_dir, traffic_dir);
  const fleet::ConcurrentFleetConfig cc = fleet_scheduler(fleet, spill_dir);
  const std::size_t rounds_per_user = fleet.device_template.stream_size /
                                      fleet.device_template.finetune_interval;

  // After each fleet, a selection-only pass: every user's traffic offered
  // to an engine of its own, each process() call timed (the scheduler's
  // calls are not visible from outside it) and each user's buffer
  // checkpointed. Later passes must reproduce the first.
  std::vector<User> fleet_users(kFleetUsers);
  for (std::size_t u = 0; u < kFleetUsers; ++u) {
    fleet_users[u].config = fleet_user(fleet, u);
    fleet_users[u].persona = kFleetFirstPersona + u;
    data::UserOracle oracle(fleet_users[u].persona,
                            lexicon::builtin_dictionary());
    fleet_users[u].dataset =
        exp::make_experiment_dataset(fleet_users[u].config, oracle);
  }
  EpisodePlan selection;
  selection.rounds = false;
  selection.checkpoint_path = o.work_dir + "/buffer.obsf";
  std::vector<EpisodeOutput> buffers;

  std::vector<fleet::ConcurrentFleetResult> results;
  Tally plain, traced;
  measure(o, false, 1, plain, traced, [&](std::size_t, Tally& t) {
    make_empty_dir(cc.spill_dir);
    fleet::ConcurrentFleetResult res;
    {
      Span span("bench.fleet");
      res = fleet::run_concurrent_fleet(cc);
      const double fleet_s = span.done();
      t.work_s += fleet_s;
      // The round period each user sees: the fleet over its rounds.
      t.round_s.add(fleet_s / static_cast<double>(rounds_per_user));
    }
    t.users += res.stats.users;
    t.sets += res.stats.users * fleet.device_template.stream_size;
    t.rounds += res.stats.rounds;
    t.fleets.push_back(res.stats);
    r.count_ops(res.stats.users + res.stats.rounds, res.stats.faults);
    results.push_back(std::move(res));
    return std::size_t{0};
  }, [&](std::size_t, Tally& t) {
    Tally pass;
    for (std::size_t u = 0; u < kFleetUsers; ++u) {
      EpisodeOutput e =
          run_episode(fleet_users[u], *prep.tokenizer, selection, pass, r);
      if (buffers.size() < kFleetUsers) {
        buffers.push_back(std::move(e));
      } else {
        r.check(e == buffers[u], "a repeated selection pass differs");
      }
    }
    take_selection(t, pass);
  });

  // Checks: no faults, every user finished its rounds, repeats agree.
  const fleet::ConcurrentFleetResult& first = results.front();
  for (const auto& res : results) {
    r.check(res.stats.faults == 0, "fleet reported faults");
    r.check(res.users.size() == kFleetUsers, "fleet lost users");
    bool same = res.users.size() == first.users.size();
    for (std::size_t u = 0; u < res.users.size(); ++u) {
      const exp::ExperimentResult& x = res.users[u];
      const core::EngineStats& s = x.engine_stats;
      r.check(s.finetune_rounds == rounds_per_user &&
                  s.seen == fleet.device_template.stream_size,
              "a fleet user did not finish its rounds");
      r.check(s.seen == s.admitted_free + s.admitted_replacing + s.rejected +
                            s.quarantined,
              "seen != admitted_free + admitted_replacing + rejected + "
              "quarantined");
      r.check(std::isfinite(x.final_rouge) && x.final_rouge >= 0.0 &&
                  x.final_rouge <= 1.0,
              "rouge1 outside [0, 1]");
      same = same && x.final_per_set == first.users[u].final_per_set;
    }
    r.check(same, "repeated fleets on the same inputs differ");
  }

  // Sequential ≡ concurrent (DESIGN.md §13): one sampled user through a
  // one-user run_experiment must reproduce its per-set ROUGE bit for bit.
  const std::size_t sampled = o.seed % kFleetUsers;
  const exp::ExperimentResult reference =
      exp::run_experiment(fleet_user(fleet, sampled));
  const bool identical =
      reference.final_per_set == first.users[sampled].final_per_set;
  r.check(identical, "fleet user differs from a one-user run_experiment");
  r.count_ops(1, identical ? 0 : 1);

  double rouge = 0.0, bytes = 0.0;
  for (const auto& u : first.users) rouge += u.final_rouge;
  for (const auto& b : buffers) bytes += static_cast<double>(b.checkpoint_bytes);
  const double users = static_cast<double>(kFleetUsers);
  const Tally& m = plain;
  add_common_e2e(r, setup);
  r.e2e("sets_per_s", "1/s", ratio(m.sets, m.work_s), m.sets,
        "stream sets of all users / fleet CPU time");
  r.e2e("users_per_s", "1/s", ratio(m.users, m.work_s), m.users,
        "users / fleet CPU time");
  r.e2e("round_s_p50", "s", m.round_s.median(), m.round_s.count(),
        "fleet CPU time / rounds per user, median over fleets");
  r.e2e("select_us_p50", "us", m.select_us.median(), m.select_us.count(),
        "process() per set, selection-only passes over the fleet's traffic");
  r.e2e("select_us_p99", "us", m.select_us.quantile(0.99),
        m.select_us.count(),
        "process() per set, selection-only passes over the fleet's traffic");
  r.e2e("eval_tok_per_s", "1/s", ratio(m.decode_tokens, m.work_s),
        static_cast<std::size_t>(m.decode_tokens),
        "decode.batch.tokens.total delta / fleet CPU time");
  r.e2e("rouge1", "fraction", rouge / users, kFleetUsers,
        "mean final ROUGE-1 over the fleet's users");
  r.e2e("checkpoint_bytes", "bytes", bytes / users, kFleetUsers,
        "mean core::save_buffer file size after a user's stream");

  if (o.trace) {
    add_setup_layers(r, setup);
    // The scheduler's fine-tunes are timed by the engine's own registry
    // histograms; selection timings come from the selection passes.
    Tally fleet_training = traced;
    fleet_training.synth_s = traced.synthesize_us * 1e-6;
    fleet_training.train_s = (traced.finetune_us - traced.synthesize_us) * 1e-6;
    std::vector<core::EngineStats> stats;
    for (const auto& u : first.users) stats.push_back(u.engine_stats);
    add_user_layers(r, fleet_training, stats, bytes / users,
                    fleet.device_template, prep.tokenizer->vocab().size(),
                    "wall time from the engine.finetune.us and "
                    "engine.synthesize.us registry sums");
    const double decode_share = frame_share(traced, "batch_decode.step");
    r.layer("llm.decode_tok_per_s", "1/s",
            ratio(traced.decode_tokens, decode_share * traced.work_s),
            false,
            "decode tokens / (profiler share of batch_decode.step x fleet "
            "CPU time)");
    // Per-fleet counts of the traced fleets, marked exact when they
    // repeated across them (which lane claims which user depends on
    // timing, so cache hits and evictions can differ run to run).
    const auto per_fleet = [&](auto field, double& sum) {
      sum = 0.0;
      bool same = true;
      for (const fleet::FleetRunStats& st : traced.fleets) {
        sum += static_cast<double>(field(st));
        same = same && field(st) == field(traced.fleets.front());
      }
      return same && traced.fleets.size() > 1;
    };
    using Stats = fleet::FleetRunStats;
    const double n = static_cast<double>(traced.fleets.size());
    double steps = 0, occupancy = 0, hits = 0, misses = 0, evictions = 0,
           behind = 0, waves = 0;
    const bool steps_exact =
        per_fleet([](const Stats& s) { return s.decode_steps; }, steps);
    per_fleet(
        [](const Stats& s) { return s.decode_mean_occupancy * s.decode_steps; },
        occupancy);
    const bool hits_exact =
        per_fleet([](const Stats& s) { return s.cache.hits; }, hits) &&
        per_fleet([](const Stats& s) { return s.cache.misses; }, misses);
    const bool evictions_exact =
        per_fleet([](const Stats& s) { return s.cache.evictions; }, evictions);
    const bool behind_exact =
        per_fleet([](const Stats& s) { return s.max_rounds_behind; }, behind);
    const bool waves_exact =
        per_fleet([](const Stats& s) { return s.waves; }, waves);
    r.layer("llm.decode.steps", "count", steps / n, steps_exact,
            "batched decode steps per fleet");
    r.layer("llm.decode.occupancy_mean", "count", ratio(occupancy, steps),
            steps_exact, "sessions per batched decode step");
    r.layer("fleet.round_s_p50", "s",
            bucket_quantile(traced.fleet_round_us, 0.5) * 1e-6, false,
            "fleet.round.us registry histogram over the traced fleets: "
            "bucket-interpolated wall time of one user's chunk",
            static_cast<std::size_t>(traced.fleet_round_us.count));
    r.layer("fleet.adapter_hit_frac", "fraction", ratio(hits, hits + misses),
            hits_exact,
            "hits / (hits + misses) = " + fmt(hits) + " / " +
                fmt(hits + misses) + " over " + fmt(n) + " fleets");
    r.layer("fleet.evictions", "count", evictions / n, evictions_exact,
            "per fleet");
    r.layer("fleet.max_rounds_behind", "count", behind / n, behind_exact,
            "per fleet");
    r.layer("fleet.waves", "count", waves / n, waves_exact, "per fleet");
    r.layer("devicesim.ledger_bytes", "bytes",
            static_cast<double>(first.stats.ledger.total_bytes()), false,
            "devicesim::FleetMemoryLedger total at the end of a fleet "
            "(resident adapters depend on the cache's timing)");
    add_common_layers(r, traced, plain);
    r.layer("obs.layer_coverage_pct", "%",
            100.0 * (1.0 - stack_share(traced, "bench.fleet")), false,
            "profiler samples inside run_concurrent_fleet that a program "
            "span below the fleet call names / all samples");
    r.note("fleet_share.decode", fmt(decode_share));
    r.note("fleet_share.user_rounds", fmt(frame_share(traced, "engine.")));
    // Scheduler work outside any program span: wave bookkeeping, adapter
    // cache swaps and spills, ROUGE scoring of the flushed evaluations.
    r.note("fleet_share.scheduler_self", fmt(stack_share(traced, "bench.fleet")));
  }
  return r;
}

}  // namespace

Result run_workload(const Options& o) {
  if (o.workload == "paper_round") return run_users(o, paper_round());
  if (o.workload == "select_stream") return run_users(o, select_stream());
  if (o.workload == "fleet_eval") return run_fleet(o);
  throw std::invalid_argument("unknown workload: " + o.workload);
}

}  // namespace perfbench
