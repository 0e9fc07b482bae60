// ResourceGovernor: the resource-pressure degradation ladder (DESIGN.md §11).
//
// An unattended edge device cannot page, cannot swap, and cannot miss its
// interaction deadlines; when the memory ledger or the round latency
// approaches its budget, the engine must shed quality before the OS sheds
// the process. The governor watches pressure samples (resident bytes vs. a
// byte budget, round wall-clock vs. a deadline) and walks an explicit,
// observable ladder, one rung per observation:
//
//   0 kNominal       — full fidelity (fp32 inference, full KV, full synth)
//   1 kInt8Inference — inference forwards switch to the int8 base (PR 4):
//                      ~0.28x model bytes, training math untouched
//   2 kKvTrim        — decode generation budget (and with it the live KV
//                      footprint) scaled by kv_trim_fraction
//   3 kSynthShrink   — synthesis batch scaled by synth_fraction (0 = off)
//   4 kBinShed       — live buffer bins capped at buffer_fraction of the
//                      allocation, oldest entries evicted
//   5 kSkipFinetune  — fine-tune rounds skipped entirely (selection and
//                      annotation continue, so no user signal is lost)
//
// Each rung is cumulative (rung 3 includes rungs 1–2) and recoverable: when
// pressure stays below recover_threshold for recover_patience consecutive
// observations the governor steps one rung back down. A recovery that
// immediately re-escalates (within relapse_window observations) doubles the
// patience — oscillation damps itself instead of thrashing the precision
// switch. Every transition is counted in the obs registry
// (resil.governor.*) so degradation is observable, never silent.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "nn/precision.h"

namespace odlp::core {
class DataBuffer;
struct EngineConfig;
}  // namespace odlp::core

namespace odlp::resil {

enum class Rung {
  kNominal = 0,
  kInt8Inference = 1,
  kKvTrim = 2,
  kSynthShrink = 3,
  kBinShed = 4,
  kSkipFinetune = 5,
};
constexpr std::size_t kNumRungs = 6;

const char* to_string(Rung rung);

struct GovernorConfig {
  // Resource budgets; 0 disables that pressure axis.
  std::size_t memory_budget_bytes = 0;
  double round_deadline_ms = 0.0;

  // Recovery hysteresis: pressure must sit below recover_threshold for
  // recover_patience consecutive observations before one step down.
  double recover_threshold = 0.7;
  std::size_t recover_patience = 2;
  // Escalating within relapse_window observations of a recovery doubles the
  // effective patience (capped at max_patience). reset() restores it.
  std::size_t relapse_window = 3;
  std::size_t max_patience = 16;

  // Per-rung degradation strengths.
  double kv_trim_fraction = 0.5;
  double synth_fraction = 0.0;
  double buffer_fraction = 0.5;
};

// What the engine should run with at the governor's current rung. Rungs are
// cumulative: each decision includes every milder rung's measure.
struct GovernorDecision {
  Rung rung = Rung::kNominal;
  nn::InferencePrecision precision = nn::InferencePrecision::kFp32;
  double kv_fraction = 1.0;      // scale on the decode generation budget
  double synth_fraction = 1.0;   // scale on synth_per_set
  double buffer_fraction = 1.0;  // scale on live buffer bins
  bool skip_finetune = false;
};

struct PressureSample {
  std::size_t memory_bytes = 0;  // resident bytes under the *current* rung
  double round_ms = 0.0;         // last round wall-clock; 0 = unknown
  // SLO burn-rate pressure from obs::SloEvaluator::pressure(): 1.0 (a fast
  // burn — forces escalation), 0.75 (a slow burn — holds the current rung
  // by staying above recover_threshold), or 0. Merged into the pressure
  // max, so an alerting fleet sheds load even when memory and latency look
  // individually healthy.
  double slo_pressure = 0.0;
};

class ResourceGovernor {
 public:
  explicit ResourceGovernor(const GovernorConfig& config = GovernorConfig{});

  // Feeds one observation; walks at most one rung per call and returns the
  // decision for the next round.
  const GovernorDecision& observe(const PressureSample& sample);

  const GovernorDecision& decision() const { return decision_; }
  Rung rung() const { return decision_.rung; }
  // max(memory ratio, latency ratio) of the last observation.
  double last_pressure() const { return pressure_; }
  std::size_t effective_patience() const { return patience_; }

  struct Stats {
    std::uint64_t observations = 0;
    std::uint64_t escalations = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t relapses = 0;  // escalations right after a recovery
    // Times each rung was entered (index = static_cast<size_t>(Rung)).
    std::array<std::uint64_t, kNumRungs> entered{};
  };
  const Stats& stats() const { return stats_; }

  // Back to kNominal with nominal patience; transition counters survive.
  void reset();

 private:
  void transition_to(Rung next, bool escalation);
  void rebuild_decision();

  GovernorConfig config_;
  GovernorDecision decision_;
  double pressure_ = 0.0;
  std::size_t clear_streak_ = 0;
  std::size_t patience_;
  std::uint64_t last_recovery_obs_ = 0;
  bool recovery_pending_ = false;  // true while inside the relapse window
  Stats stats_;
};

// Applies a decision to a session's next round: writes the precision
// switch, the generation/synthesis caps scaled from `nominal`, and the
// fine-tune gate into `ec` (the config the round's engine is built from),
// and caps `buffer`'s live bins (evicting the oldest entries) or lifts the
// cap. Idempotent: applying the same decision twice changes nothing.
void apply_decision(const GovernorDecision& decision,
                    const core::EngineConfig& nominal, core::EngineConfig& ec,
                    core::DataBuffer& buffer);

}  // namespace odlp::resil
