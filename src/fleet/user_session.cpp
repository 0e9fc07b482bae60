#include "fleet/user_session.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "data/profiles.h"
#include "io/stream_capture.h"
#include "lexicon/lexicon.h"
#include "llm/embedding_extractor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace odlp {

namespace {

// Stable string hash so different datasets/methods get decorrelated rng
// streams while the same (seed, dataset, method) is fully reproducible.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Every per-user seed derives from here. The data seed depends on seed +
// dataset only, never on method, so every method personalizes toward the
// same user, stream and evaluation subset under one seed.
std::uint64_t data_seed(const exp::ExperimentConfig& config) {
  return config.seed ^ fnv1a(config.dataset);
}

}  // namespace

data::GeneratedDataset exp::make_experiment_dataset(
    const ExperimentConfig& config, data::UserOracle& oracle) {
  if (!config.traffic_replay_path.empty()) {
    if (!config.traffic_record_path.empty()) {
      throw std::invalid_argument(
          "experiment: traffic_record_path and traffic_replay_path are "
          "mutually exclusive");
    }
    // Safe to skip the generator entirely: UserOracle derives all preferred
    // responses from its seed at construction, so a replayed dataset leaves
    // the oracle in the same state a generated one would.
    return io::replay_dataset(config.traffic_replay_path);
  }
  data::Generator generator(data::profile_by_name(config.dataset), oracle,
                            util::Rng(data_seed(config)));
  data::GeneratedDataset dataset =
      generator.generate(config.stream_size, config.test_size);
  if (!config.traffic_record_path.empty()) {
    io::record_dataset(dataset, config.traffic_record_path);
  }
  return dataset;
}

namespace fleet {

FleetModels make_fleet_models(const exp::ExperimentConfig& config,
                              const text::Tokenizer& tokenizer,
                              std::size_t workers) {
  FleetModels models;
  models.base = exp::make_base_model(config, tokenizer);
  models.base->freeze();
  const llm::ModelConfig mc = exp::make_model_config(config, tokenizer);
  const nn::LoraConfig lora = exp::make_engine_config(config).lora;
  models.workers.resize(workers);
  for (WorkerContext& worker : models.workers) {
    // The ctor seed is the base seed, as make_base_model uses: attach_lora
    // draws its A-init from the model rng and seeds each LoRA site's
    // fallback dropout rng, so every worker starts from the same adapters
    // and streams.
    worker.model =
        std::make_unique<llm::MiniLlm>(mc, exp::experiment_base_seed(config));
    worker.model->copy_parameters_from(*models.base);
    worker.model->attach_lora(lora);
    worker.sites = worker.model->lora_linears();
  }
  return models;
}

AdapterState initial_adapter_state(llm::MiniLlm& model) {
  AdapterState state;
  for (nn::Linear* site : model.lora_linears()) {
    assert(site->has_lora());
    AdapterState::Site s;
    s.a = site->mutable_lora_a().value;
    s.b = site->mutable_lora_b().value;
    state.sites.push_back(std::move(s));
  }
  return state;
}

namespace {

nn::LoraOverlaySet snapshot_overlay(const WorkerContext& worker,
                                    const nn::LoraConfig& lora) {
  nn::LoraOverlaySet set;
  set.scaling = lora.alpha / static_cast<float>(lora.rank);
  set.sites.reserve(worker.sites.size());
  for (nn::Linear* site : worker.sites) {
    set.sites.push_back(
        {site->mutable_lora_a().value, site->mutable_lora_b().value});
  }
  return set;
}

void emit_eval(UserSession& session, const WorkerContext& worker,
               bool final_per_set, std::size_t seen, const EvalSink& sink) {
  EvalJob job;
  job.user = session.id;
  job.final_per_set = final_per_set;
  job.seen = seen;
  job.overlay = snapshot_overlay(worker, session.ec.lora);
  ++session.pending_evals;
  sink(std::move(job));
}

}  // namespace

std::unique_ptr<UserSession> make_user_session(
    std::size_t id, const exp::ExperimentConfig& config,
    const WorkerContext& fresh, const EvalSink& eval_sink) {
  if (config.embedding_source != "llm" && config.embedding_source != "bow") {
    throw std::invalid_argument("unknown embedding source: " +
                                config.embedding_source);
  }
  auto session = std::make_unique<UserSession>();
  session->id = id;
  session->config = config;
  session->ec = exp::make_engine_config(config);
  session->policy = exp::make_policy(config.method);

  const auto& dict = lexicon::builtin_dictionary();
  // The simulated device owner, then its traffic and the fixed evaluation
  // subset: a deterministic stride over the held-out pool.
  const std::uint64_t user_seed = data_seed(config);
  session->oracle =
      std::make_unique<data::UserOracle>(user_seed * 2654435761ull + 1, dict);
  session->dataset = exp::make_experiment_dataset(config, *session->oracle);
  const std::size_t n_eval =
      std::min(config.eval_subset, session->dataset.test.size());
  for (std::size_t i = 0; i < n_eval; ++i) {
    session->eval_sets.push_back(
        &session->dataset.test[i * session->dataset.test.size() / n_eval]);
  }

  // Method-dependent streams for policy tie-breaks, synthesis and training
  // shuffles: the synthesizer's stream first, then the engine's, which
  // splits once more for its trainer.
  util::Rng outer(user_seed ^ fnv1a(config.method) ^ 0xabcdef12345ull);
  core::ParaphraseSynthesizer::Config synth_config;
  synth_config.sanity.mode = config.sanity_mode;
  synth_config.sanity.threshold = config.sanity_threshold;
  session->synthesizer = std::make_unique<core::ParaphraseSynthesizer>(
      dict, outer.split(), synth_config);
  session->engine_rng = outer.split();
  session->trainer_rng = session->engine_rng.split();
  for (nn::Linear* site : fresh.sites) {
    session->dropout_rngs.push_back(site->dropout_rng());
  }
  session->buffer = core::DataBuffer(session->ec.buffer_bins);

  session->result.dataset = config.dataset;
  session->result.method = config.method;
  session->result.curve = eval::LearningCurve(config.method);

  if (config.record_curve) {
    emit_eval(*session, fresh, /*final_per_set=*/false, 0, eval_sink);
  }
  return session;
}

void run_user_chunk(UserSession& session, WorkerContext& worker,
                    const text::Tokenizer& tokenizer, AdapterState& adapter,
                    const EvalSink& eval_sink) {
  // Per-user offer attribution: the chunk's EngineStats delta, credited to
  // the session's scope (one relaxed add per counter per chunk).
  static obs::ScopedCounter& sc_accept =
      obs::scoped_registry().counter("fleet.user.offer.accept");
  static obs::ScopedCounter& sc_reject =
      obs::scoped_registry().counter("fleet.user.offer.reject");
  const std::size_t accepted_before =
      session.stats.admitted_free + session.stats.admitted_replacing;
  const std::size_t rejected_before = session.stats.rejected;

  util::Stopwatch chunk_sw;
  const auto& dict = lexicon::builtin_dictionary();
  const exp::ExperimentConfig& config = session.config;

  // embedding_source was validated at session construction.
  std::unique_ptr<llm::EmbeddingExtractor> extractor;
  if (config.embedding_source == "llm") {
    extractor = std::make_unique<llm::LlmEmbeddingExtractor>(*worker.model,
                                                             tokenizer);
  } else {
    extractor = std::make_unique<llm::BagOfWordsExtractor>(config.model_dim);
  }

  // --- Swap the user in. The ctor rng is a throwaway: both streams it
  // seeds (engine + trainer) are overwritten below with the session's.
  core::PersonalizationEngine engine(
      *worker.model, tokenizer, *extractor, *session.oracle, dict,
      std::move(session.policy), std::move(session.synthesizer), session.ec,
      util::Rng(0));
  install_adapter_state(adapter, *worker.model, engine.trainer());
  engine.rng() = session.engine_rng;
  engine.trainer().rng() = session.trainer_rng;
  for (std::size_t i = 0; i < worker.sites.size(); ++i) {
    worker.sites[i]->dropout_rng() = session.dropout_rngs[i];
  }
  engine.restore_buffer(std::move(session.buffer));
  engine.set_stats(session.stats);

  // --- Swap the user out, on the normal path and on a throw alike: a fault
  // mid-chunk costs the rest of the chunk, never the session's policy,
  // synthesizer, buffer or adapter.
  const auto swap_out = [&] {
    adapter = extract_adapter_state(*worker.model, engine.trainer());
    session.stats = engine.stats();
    const std::size_t accepted_after =
        session.stats.admitted_free + session.stats.admitted_replacing;
    if (accepted_after > accepted_before) {
      sc_accept.inc(session.scope, accepted_after - accepted_before);
    }
    if (session.stats.rejected > rejected_before) {
      sc_reject.inc(session.scope, session.stats.rejected - rejected_before);
    }
    session.buffer = engine.take_buffer();
    session.policy = engine.take_policy();
    session.synthesizer = engine.take_synthesizer();
    session.engine_rng = engine.rng();
    session.trainer_rng = engine.trainer().rng();
    for (std::size_t i = 0; i < worker.sites.size(); ++i) {
      session.dropout_rngs[i] = worker.sites[i]->dropout_rng();
    }
    session.work_seconds += chunk_sw.elapsed_seconds();
  };

  try {
    // --- One chunk: the next fine-tune interval's worth of stream (the
    // whole stream when fine-tuning only happens at the end), then its
    // fine-tune round. A chunk ends after a full interval's worth of sets
    // or at the end of the stream, so every completed chunk fine-tunes
    // exactly once. The retry wraps the
    // ingest alone: a set is counted once, and a fine-tune fault reaches
    // the caller.
    const std::size_t chunk = std::max<std::size_t>(
        1, config.finetune_interval > 0 ? config.finetune_interval
                                        : config.stream_size);
    const std::size_t end =
        std::min(config.stream_size, session.cursor + chunk);
    while (session.cursor < end) {
      const data::DialogueSet& set = session.dataset.stream[session.cursor];
      if (session.ingest_retry != nullptr) {
        session.ingest_retry->run("ingest", [&] { engine.ingest(set); });
      } else {
        engine.ingest(set);
      }
      ++session.cursor;
    }
    engine.finetune_now();
    if (config.record_curve) {
      emit_eval(session, worker, /*final_per_set=*/false, session.cursor,
                eval_sink);
    }

    if (session.cursor >= config.stream_size) {
      emit_eval(session, worker, /*final_per_set=*/true, 0, eval_sink);
      session.work_done = true;
    }
  } catch (...) {
    swap_out();
    throw;
  }
  swap_out();
  ++session.rounds_done;
}

namespace {

bool same_values(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.size() == b.size() &&
         std::equal(a.data(), a.data() + a.size(), b.data());
}

// Evaluation is a pure function of (user prompts, adapter values, fixed
// seeds): two jobs of one user with value-equal overlays score the same.
bool same_eval(const EvalJob& x, const EvalJob& y) {
  const nn::LoraOverlaySet& a = x.overlay;
  const nn::LoraOverlaySet& b = y.overlay;
  if (x.user != y.user || a.scaling != b.scaling ||
      a.sites.size() != b.sites.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.sites.size(); ++s) {
    if (!same_values(a.sites[s].a, b.sites[s].a) ||
        !same_values(a.sites[s].b, b.sites[s].b)) {
      return false;
    }
  }
  return true;
}

double mean_of(const std::vector<double>& v) {
  double mean = 0.0;
  for (double x : v) mean += x;
  return v.empty() ? 0.0 : mean / static_cast<double>(v.size());
}

}  // namespace

void finalize_result(UserSession& s) {
  exp::ExperimentResult& r = s.result;
  r.final_rouge = s.config.record_curve ? r.curve.final_rouge()
                                        : mean_of(r.final_per_set);
  r.engine_stats = s.stats;
  r.buffer = exp::buffer_composition(s.buffer);
  r.annotation_requests = s.oracle->annotation_requests();
  r.wall_seconds = s.work_seconds;
}

core::EvalDecodeStats flush_evals(
    std::vector<EvalJob> jobs,
    std::vector<std::unique_ptr<UserSession>>& sessions,
    llm::MiniLlm& decode_model, const text::Tokenizer& tokenizer,
    std::size_t decode_batch) {
  static obs::Counter& c_dedup =
      obs::registry().counter("fleet.eval.jobs.deduped");
  core::EvalDecodeStats decode;
  if (jobs.empty()) return decode;
  ODLP_TRACE_SCOPE("fleet.eval.flush");

  // requests[q] is built from jobs[owner[q]]; job j is scored from
  // requests[request_of[j]].
  std::vector<core::EvalRequest> requests;
  std::vector<std::size_t> owner;
  std::vector<std::size_t> request_of(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::size_t q = 0;
    while (q < requests.size() && !same_eval(jobs[j], jobs[owner[q]])) ++q;
    if (q == requests.size()) {
      const UserSession& s = *sessions[jobs[j].user];
      requests.push_back(core::EvalRequest{&s.eval_sets, s.config.eval_repeats,
                                           s.ec.sampler, &jobs[j].overlay});
      owner.push_back(j);
    } else {
      c_dedup.inc();
    }
    request_of[j] = q;
  }
  const std::vector<std::vector<double>> scores = core::evaluate_requests(
      decode_model, tokenizer, requests, decode_batch, &decode);

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const EvalJob& job = jobs[j];
    UserSession& s = *sessions[job.user];
    const std::vector<double>& per_set = scores[request_of[j]];
    if (job.final_per_set) {
      s.result.final_per_set = per_set;
    } else {
      s.result.curve.record(job.seen, mean_of(per_set));
    }
    if (--s.pending_evals == 0 && s.work_done) finalize_result(s);
  }
  return decode;
}

}  // namespace fleet
}  // namespace odlp
