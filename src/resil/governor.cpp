#include "resil/governor.h"

#include <algorithm>
#include <cmath>

#include "core/engine.h"
#include "obs/metrics.h"
#include "util/log.h"

namespace odlp::resil {

namespace {

// Transitions are rare (a handful per run), so the per-rung counter lookup
// goes through the registry mutex instead of a cached reference.
obs::Counter& rung_enter_counter(Rung rung) {
  return obs::registry().counter(std::string("resil.governor.enter.") +
                                 to_string(rung));
}

}  // namespace

const char* to_string(Rung rung) {
  switch (rung) {
    case Rung::kNominal:
      return "nominal";
    case Rung::kInt8Inference:
      return "int8_inference";
    case Rung::kKvTrim:
      return "kv_trim";
    case Rung::kSynthShrink:
      return "synth_shrink";
    case Rung::kBinShed:
      return "bin_shed";
    case Rung::kSkipFinetune:
      return "skip_finetune";
  }
  return "unknown";
}

ResourceGovernor::ResourceGovernor(const GovernorConfig& config)
    : config_(config), patience_(std::max<std::size_t>(1, config.recover_patience)) {
  config_.recover_threshold = std::clamp(config_.recover_threshold, 0.0, 1.0);
  config_.kv_trim_fraction = std::clamp(config_.kv_trim_fraction, 0.0, 1.0);
  config_.synth_fraction = std::clamp(config_.synth_fraction, 0.0, 1.0);
  config_.buffer_fraction = std::clamp(config_.buffer_fraction, 0.0, 1.0);
  rebuild_decision();
}

void ResourceGovernor::rebuild_decision() {
  const std::size_t r = static_cast<std::size_t>(decision_.rung);
  decision_.precision = r >= 1 ? nn::InferencePrecision::kInt8
                               : nn::InferencePrecision::kFp32;
  decision_.kv_fraction = r >= 2 ? config_.kv_trim_fraction : 1.0;
  decision_.synth_fraction = r >= 3 ? config_.synth_fraction : 1.0;
  decision_.buffer_fraction = r >= 4 ? config_.buffer_fraction : 1.0;
  decision_.skip_finetune = r >= 5;
}

void ResourceGovernor::transition_to(Rung next, bool escalation) {
  static obs::Counter& c_esc =
      obs::registry().counter("resil.governor.escalations.total");
  static obs::Counter& c_rec =
      obs::registry().counter("resil.governor.recoveries.total");
  static obs::Gauge& g_rung = obs::registry().gauge("resil.governor.rung");
  const Rung prev = decision_.rung;
  decision_.rung = next;
  rebuild_decision();
  ++stats_.entered[static_cast<std::size_t>(next)];
  rung_enter_counter(next).inc();
  (escalation ? c_esc : c_rec).inc();
  if (escalation) {
    ++stats_.escalations;
  } else {
    ++stats_.recoveries;
  }
  g_rung.set(static_cast<double>(static_cast<std::size_t>(next)));
  util::log_info(std::string("governor: ") +
                 (escalation ? "escalated " : "recovered ") + to_string(prev) +
                 " -> " + to_string(next) + " (pressure " +
                 std::to_string(pressure_) + ")");
}

const GovernorDecision& ResourceGovernor::observe(const PressureSample& sample) {
  ++stats_.observations;
  double pressure = 0.0;
  if (config_.memory_budget_bytes > 0) {
    pressure = std::max(pressure, static_cast<double>(sample.memory_bytes) /
                                      static_cast<double>(
                                          config_.memory_budget_bytes));
  }
  if (config_.round_deadline_ms > 0.0 && sample.round_ms > 0.0) {
    pressure = std::max(pressure, sample.round_ms / config_.round_deadline_ms);
  }
  pressure = std::max(pressure, sample.slo_pressure);
  pressure_ = pressure;

  const std::size_t rung = static_cast<std::size_t>(decision_.rung);
  if (pressure >= 1.0) {
    clear_streak_ = 0;
    // Relapse: an escalation inside the relapse window of the last recovery
    // means the recovery was premature — demand a longer clear streak next
    // time instead of thrashing the rung.
    if (recovery_pending_ &&
        stats_.observations - last_recovery_obs_ <= config_.relapse_window) {
      patience_ = std::min(patience_ * 2, std::max<std::size_t>(
                                              1, config_.max_patience));
      ++stats_.relapses;
      static obs::Counter& c_relapse =
          obs::registry().counter("resil.governor.relapses.total");
      c_relapse.inc();
    }
    recovery_pending_ = false;
    if (rung + 1 < kNumRungs) {
      transition_to(static_cast<Rung>(rung + 1), /*escalation=*/true);
    }
    return decision_;
  }

  if (recovery_pending_ &&
      stats_.observations - last_recovery_obs_ > config_.relapse_window) {
    recovery_pending_ = false;  // the recovery held — patience stays as-is
  }
  if (pressure < config_.recover_threshold && rung > 0) {
    if (++clear_streak_ >= patience_) {
      clear_streak_ = 0;
      last_recovery_obs_ = stats_.observations;
      recovery_pending_ = true;
      transition_to(static_cast<Rung>(rung - 1), /*escalation=*/false);
    }
  } else {
    clear_streak_ = 0;
  }
  return decision_;
}

void ResourceGovernor::reset() {
  decision_ = GovernorDecision{};
  rebuild_decision();
  pressure_ = 0.0;
  clear_streak_ = 0;
  patience_ = std::max<std::size_t>(1, config_.recover_patience);
  recovery_pending_ = false;
  static obs::Gauge& g_rung = obs::registry().gauge("resil.governor.rung");
  g_rung.set(0.0);
}

void apply_decision(const GovernorDecision& decision,
                    const core::EngineConfig& nominal, core::EngineConfig& ec,
                    core::DataBuffer& buffer) {
  static obs::Counter& c_evicted =
      obs::registry().counter("engine.buffer.shed.evicted");
  const auto scaled = [](std::size_t nominal_value, double fraction,
                         std::size_t floor_value) {
    const double v = std::floor(static_cast<double>(nominal_value) * fraction);
    return std::max(floor_value, static_cast<std::size_t>(v));
  };
  ec.inference_precision = decision.precision;
  // KV trim: one generated token is the floor — evaluation must still emit
  // something measurable.
  ec.sampler.max_new_tokens =
      scaled(nominal.sampler.max_new_tokens, decision.kv_fraction, 1);
  ec.synth_per_set = scaled(nominal.synth_per_set, decision.synth_fraction, 0);
  ec.finetune_enabled = !decision.skip_finetune;
  if (decision.buffer_fraction >= 1.0) {
    buffer.clear_bin_cap();
    return;
  }
  const std::size_t evicted = buffer.set_bin_cap(
      scaled(nominal.buffer_bins, decision.buffer_fraction, 1));
  if (evicted > 0) {
    c_evicted.inc(evicted);
    util::log_info("governor: buffer shed to " +
                   std::to_string(buffer.effective_capacity()) +
                   " bins, evicted " + std::to_string(evicted));
  }
}

}  // namespace odlp::resil
