// Measurement plumbing of the repository benchmark: per-call samples with
// exact percentiles, benchmark-side spans, timing decorators around the
// engine's pluggable stages, registry deltas, host description and the
// result record every workload fills in.
//
// Everything here sits outside the program: the benchmark times the calls
// it makes (process, finetune_now, evaluate, save_buffer,
// run_concurrent_fleet, ...) and the calls the engine makes into objects the
// benchmark hands it (the replacement policy, the synthesizer and the
// embedding extractor are public interfaces, so a forwarding decorator can
// time each call without touching the library).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/synthesizer.h"
#include "llm/embedding_extractor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of the whole process (every thread) in seconds. The benchmark
// times work on this clock: the sandbox it runs in shares its cores with
// other tenants, and time the host steals from a vCPU inflates wall-clock
// intervals (by up to 2x here) but is not charged as CPU time.
double cpu_now();

// A point on both clocks.
struct Stamp {
  Clock::time_point wall = Clock::now();
  double cpu = cpu_now();
  double cpu_since() const { return cpu_now() - cpu; }
  double wall_since() const { return seconds_since(wall); }
};

// Every value of one timed quantity, kept so percentiles are exact order
// statistics (no bucketing).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  std::size_t count() const { return values_.size(); }
  double sum() const;
  // Linear interpolation between closest ranks (numpy's default); 0 when
  // empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

// A benchmark-side span around one call into the program: a trace scope (so
// the sampling profiler sees the benchmark's call as the root of the
// program's own frames) plus the call's CPU time.
class Span {
 public:
  explicit Span(const char* name) : scope_(name) {}
  // CPU seconds since the span opened; the trace scope closes with it.
  double done() const { return start_.cpu_since(); }

 private:
  odlp::obs::TraceScope scope_;
  Stamp start_;
};

// Timing decorators. Each forwards to the wrapped object unchanged, so the
// engine's results are the same with or without them.
class TimedPolicy final : public odlp::core::ReplacementPolicy {
 public:
  TimedPolicy(std::unique_ptr<odlp::core::ReplacementPolicy> inner,
              Samples& offer_us)
      : inner_(std::move(inner)), offer_us_(offer_us) {}
  std::string name() const override { return inner_->name(); }
  odlp::core::Decision offer(const odlp::core::Candidate& candidate,
                             const odlp::core::DataBuffer& buffer,
                             odlp::util::Rng& rng) override;
  void reset() override { inner_->reset(); }
  // CPU clock at the start of the most recent offer() call: the engine
  // scores a set immediately before offering it, so process() start ->
  // offer start is that set's scoring time.
  double last_offer_cpu() const { return last_offer_cpu_; }

 private:
  std::unique_ptr<odlp::core::ReplacementPolicy> inner_;
  Samples& offer_us_;  // steady clock: a sub-microsecond call
  double last_offer_cpu_ = 0.0;
};

class TimedExtractor final : public odlp::llm::EmbeddingExtractor {
 public:
  explicit TimedExtractor(odlp::llm::EmbeddingExtractor& inner)
      : inner_(inner) {}
  using odlp::llm::EmbeddingExtractor::token_embeddings;
  odlp::tensor::Tensor token_embeddings(
      const std::vector<std::string>& words) override;
  std::size_t dim() const override { return inner_.dim(); }
  // CPU seconds spent in embedding calls since the last take().
  double take() {
    const double s = pending_;
    pending_ = 0.0;
    return s;
  }

 private:
  odlp::llm::EmbeddingExtractor& inner_;
  double pending_ = 0.0;
};

class TimedSynthesizer final : public odlp::core::Synthesizer {
 public:
  explicit TimedSynthesizer(std::unique_ptr<odlp::core::Synthesizer> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::vector<odlp::data::DialogueSet> synthesize(
      const odlp::data::DialogueSet& original, std::size_t count,
      odlp::core::SynthesisStats* stats) override;
  double take() {
    const double s = pending_;
    pending_ = 0.0;
    return s;
  }

 private:
  std::unique_ptr<odlp::core::Synthesizer> inner_;
  double pending_ = 0.0;
};

// Bucket counts of a registry histogram over a window.
struct BucketCounts {
  std::vector<double> bounds;
  std::vector<double> counts;  // bounds.size() + 1 (overflow last)
  double count = 0.0;
  void add(const BucketCounts& o);
};

// Quantile interpolated linearly inside the bucket holding it, as the
// registry's own Histogram::quantile does (so not an exact order statistic).
double bucket_quantile(const BucketCounts& h, double q);

// Difference of two registry snapshots.
class RegistryDelta {
 public:
  RegistryDelta(odlp::obs::MetricsSnapshot before,
                odlp::obs::MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}
  double counter(const std::string& name) const;
  double hist_sum(const std::string& name) const;
  double hist_count(const std::string& name) const;
  BucketCounts buckets(const std::string& name) const;
  // Sum over every counter whose name starts with `prefix` and ends with
  // `suffix` (the thread pool's per-lane busy counters).
  double counter_family(const std::string& prefix,
                        const std::string& suffix) const;

 private:
  odlp::obs::MetricsSnapshot before_;
  odlp::obs::MetricsSnapshot after_;
};

// One reported metric. For per-layer metrics, `exact` says whether the value
// repeats exactly for a given seed (a deterministic count or ratio of
// counts); timings never do. `basis` states how the value was obtained when
// that is not a plain harness-side timing.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool exact = false;
  std::string basis;
  std::size_t samples = 0;  // sample count behind a percentile or median
};

struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> notes;

  // Records one correctness check over `n` operations of which `bad`
  // failed; a failure message is kept for the report.
  void check(bool ok, const std::string& what);
  void count_ops(std::uint64_t n, std::uint64_t bad = 0) {
    attempted += n;
    failed += bad;
  }
  void e2e(const std::string& name, const std::string& unit, double value,
           std::size_t samples = 0, const std::string& basis = "");
  void layer(const std::string& name, const std::string& unit, double value,
             bool exact, const std::string& basis = "",
             std::size_t samples = 0);
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

// Host and build description printed with every result.
std::vector<std::pair<std::string, std::string>> host_info();

// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();

// Creates (after removing any previous content) a private directory.
void make_empty_dir(const std::string& path);

std::string json_escape(const std::string& s);
std::string fmt(double v);

}  // namespace perfbench
