// The paper's round, for one user (DESIGN.md §13). This is the only
// implementation of the loop: exp::run_experiment runs one session chunk
// by chunk, exp::run_fleet runs N of those, the concurrent scheduler
// (fleet/scheduler.h) multiplexes N sessions over a few worker engines,
// and exp::run_chaos_fleet runs one chunk per supervised round of each
// device under a fault schedule.
//
// A UserSession owns everything about one user that is NOT shared worker
// infrastructure: the oracle, the generated stream and held-out pool, the
// replacement policy and synthesizer (moved wholesale between activations —
// they carry internal counters/rng state), the selection buffer, the engine
// stats, the engine/trainer/dropout rng streams, and the result being
// built. The trainable adapter + optimizer moments travel separately as an
// AdapterState (the scheduler keeps them in its AdapterCache).
//
// Session construction owns every per-user seed derivation (oracle, data,
// engine, synthesizer); activation overwrites every rng the worker engine
// draws from with the session's saved streams. So any worker resumes any
// user exactly where the previous chunk left it, and a session's results do
// not depend on which worker ran which chunk.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "data/generator.h"
#include "exp/experiment.h"
#include "fleet/adapter_state.h"
#include "llm/minillm.h"
#include "nn/lora_overlay.h"
#include "obs/scope.h"
#include "resil/retry.h"
#include "text/tokenizer.h"

namespace odlp::fleet {

// A deferred evaluation: generation runs later in flush_evals, against the
// adapter snapshot taken at enqueue time. Safe to defer because evaluation
// draws only from fixed per-(repeat, set) seeds — it never touches the
// user's training state (see core::evaluate_requests).
struct EvalJob {
  std::size_t user = 0;
  bool final_per_set = false;  // else: one learning-curve point
  std::size_t seen = 0;        // curve x-axis (streamed sets so far)
  nn::LoraOverlaySet overlay;  // adapter values at enqueue time
};

using EvalSink = std::function<void(EvalJob)>;

struct UserSession {
  std::size_t id = 0;
  exp::ExperimentConfig config;
  core::EngineConfig ec;
  // Scope handle for per-user registry attribution ("user=<id>" samples via
  // obs::scoped_registry()); the fleet scheduler acquires one per user, and
  // the default handle aggregates under `other`, as does a handle gone
  // stale after an LRU demotion.
  obs::ScopeTable::Handle scope;
  // Borrowed; when set, every engine.ingest of a chunk runs under it, so a
  // transient fault heals in place (the chaos fleet's ingest policy). The
  // chunk's fine-tune runs outside it.
  resil::RetryPolicy* ingest_retry = nullptr;

  std::unique_ptr<data::UserOracle> oracle;
  data::GeneratedDataset dataset;
  std::vector<const data::DialogueSet*> eval_sets;

  std::unique_ptr<core::ReplacementPolicy> policy;
  std::unique_ptr<core::Synthesizer> synthesizer;
  util::Rng engine_rng{0};
  util::Rng trainer_rng{0};
  std::vector<util::Rng> dropout_rngs;  // one per LoRA site, model order
  core::DataBuffer buffer{1};
  core::EngineStats stats;

  // Curve points and final scores land here as flush_evals scores them;
  // the rest is filled once the last evaluation is scored.
  exp::ExperimentResult result;

  // Progress.
  std::size_t cursor = 0;  // next stream position
  std::size_t rounds_done = 0;
  bool work_done = false;  // all chunks executed (evals may still be pending)
  std::size_t pending_evals = 0;
  double work_seconds = 0.0;  // total chunk wall time
};

// A LoRA-attached clone of the pretrained base that any user's state can be
// swapped onto (one per scheduler lane; one for run_experiment).
struct WorkerContext {
  std::unique_ptr<llm::MiniLlm> model;
  std::vector<nn::Linear*> sites;  // model->lora_linears(), cached
};

// The models a runner decodes and trains on: the adapter-free pretrained
// base for `config` (exp::make_base_model), frozen, and `workers`
// LoRA-attached clones of it (one per scheduler lane; one for
// run_experiment and for each chaos device). The base is frozen before the
// clones are made, so every clone shares its weight panels and the process
// holds one packed copy of the frozen weights however many workers read
// it (DESIGN.md §8). The base is the cross-user decode model.
struct FleetModels {
  std::unique_ptr<llm::MiniLlm> base;
  std::vector<WorkerContext> workers;
};
FleetModels make_fleet_models(const exp::ExperimentConfig& config,
                              const text::Tokenizer& tokenizer,
                              std::size_t workers);

// Adapter values of a freshly-attached worker (A init, B = 0, no moments) —
// every user starts from this state.
AdapterState initial_adapter_state(llm::MiniLlm& model);

// Builds the session for `config`. Throws std::invalid_argument for an
// unknown method or embedding source. `fresh` must be a worker no chunk has
// run on yet: its adapter values are every user's starting point and its
// per-site dropout rngs seed the session's. When record_curve is set, the
// baseline (seen = 0) EvalJob goes to `eval_sink`.
std::unique_ptr<UserSession> make_user_session(
    std::size_t id, const exp::ExperimentConfig& config,
    const WorkerContext& fresh, const EvalSink& eval_sink);

// Runs one chunk of `session` on `worker`: builds the worker engine from
// session.ec, swaps the user state in (adapter from `adapter`, buffer/
// stats/rngs/policy/synthesizer from the session), ingests the next
// fine-tune interval's worth of stream (the rest of the stream, if shorter),
// runs one fine-tune round (then a curve EvalJob when record_curve is set),
// emits the final per-set EvalJob on the last chunk, then swaps everything
// back out. `adapter` is updated in place. The swap-out also runs when the
// chunk throws, so the session keeps every set ingested before the fault
// and stays runnable.
void run_user_chunk(UserSession& session, WorkerContext& worker,
                    const text::Tokenizer& tokenizer, AdapterState& adapter,
                    const EvalSink& eval_sink);

// The evaluation flush every runner calls. Scores `jobs` through one
// core::evaluate_requests call on `decode_model` — an adapter-free base,
// each job's overlay supplying its user's adapter — at `decode_batch`
// width. Jobs of one user whose overlays hold equal values (the last curve
// point and the final per-set pass) generate once. Records each curve
// point or final per-set score on sessions[job.user], and finalizes the
// result of every session whose work is done and whose evaluations are all
// scored.
core::EvalDecodeStats flush_evals(
    std::vector<EvalJob> jobs,
    std::vector<std::unique_ptr<UserSession>>& sessions,
    llm::MiniLlm& decode_model, const text::Tokenizer& tokenizer,
    std::size_t decode_batch);

// Fills the run-level fields of session.result (final ROUGE, engine stats,
// buffer composition, annotation requests, wall time) from the session as
// it stands. flush_evals calls it once a finished session's last
// evaluation is scored; the scheduler calls it for a user it retires after
// a fault with no evaluation pending.
void finalize_result(UserSession& session);

}  // namespace odlp::fleet
