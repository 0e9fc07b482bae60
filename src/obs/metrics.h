// Process-global metrics registry (DESIGN.md §10).
//
// Three metric kinds, all safe for concurrent use from any thread:
//   * Counter   — monotonically increasing u64; inc() is one relaxed
//                 atomic fetch_add (lock-free hot path).
//   * Gauge     — last-written double; set()/add() are lock-free
//                 (compare-exchange for add).
//   * Histogram — fixed ascending bucket bounds chosen at registration;
//                 record() is a handful of relaxed atomics (bucket count,
//                 total count, running sum, CAS min/max). Summaries expose
//                 count/mean/min/max plus p50/p95/p99 interpolated from the
//                 bucket counts.
//
// Lookup (registry().counter("engine.offer.accept")) takes a mutex and is
// meant to run once per call site — cache the returned reference in a
// function-local static. Registered metrics are never deleted or moved, so
// cached references stay valid for the life of the process; reset()
// re-zeroes values in place.
//
// Naming scheme: `subsystem.verb.unit` (e.g. engine.score.us,
// pool.chunk_us, train.tokens_per_sec) — see DESIGN.md §10 for the full
// taxonomy. dump_metrics() exports every registered metric as JSON or
// Prometheus-style text; save_metrics()/load_metrics() persist a snapshot
// in the repo's checksummed binary-file format so cumulative telemetry
// survives a device reboot (core/CheckpointManager stores one per
// generation).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace odlp::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  // `bounds` are ascending bucket upper bounds; an implicit overflow bucket
  // catches values above the last bound. Throws std::invalid_argument on
  // empty or non-ascending bounds.
  explicit Histogram(std::vector<double> bounds);

  void record(double v);

  struct Summary {
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  Summary summary() const;

  // Quantile in [0, 1], linearly interpolated inside the bucket that holds
  // the q-th sample; clamped to the observed [min, max].
  double quantile(double q) const;

  // Adds src's bucket counts, count, and sum into *this (merging min/max),
  // then zeroes src. Both histograms must share the same bounds (throws
  // std::logic_error otherwise). Used by scoped-metric demotion
  // (obs/scope.h) to fold an evicted slot into `other` with exact totals.
  void absorb(Histogram& src);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::size_t num_buckets() const { return bounds_.size() + 1; }

  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds.size()+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Default histogram bounds for durations in microseconds: 1-2-5 decades
// from 1 us to 10 s (22 buckets + overflow).
const std::vector<double>& default_us_bounds();

// One flattened metric value, as captured by Registry::snapshot().
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  // Scope label ("user=7", "device=dev-2") for per-user samples produced by
  // the scoped registry (obs/scope.h); empty for process-global metrics.
  // Scoped samples appear in full_snapshot()/dump_metrics()/the journal,
  // never in the save_metrics() persistence format.
  std::string scope;
  std::uint64_t counter = 0;           // kCounter
  double gauge = 0.0;                  // kGauge
  Histogram::Summary hist;             // kHistogram
  std::vector<double> bounds;          // kHistogram
  std::vector<std::uint64_t> buckets;  // kHistogram (bounds.size()+1)
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // sorted by (name, scope)

  // Unscoped sample by name, nullptr if absent.
  const MetricSample* find(const std::string& name) const;
  // Sample with a specific scope label ("" = unscoped), nullptr if absent.
  const MetricSample* find_scoped(const std::string& name,
                                  const std::string& scope) const;
  // Convenience accessors returning 0 when the metric is absent.
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  double histogram_sum(const std::string& name) const;
};

class Registry {
 public:
  // Returns the metric with that name, creating it on first use. A name
  // registered as one kind must not be re-requested as another (throws
  // std::logic_error). References stay valid forever.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);  // default_us_bounds()
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;

  // Zeroes every registered metric in place (registrations survive).
  void reset();

  // Overwrites the current values of every metric present in `snap`,
  // creating missing ones (histograms with the snapshot's bounds). Used by
  // checkpoint restore to carry cumulative telemetry across reboots.
  void restore(const MetricsSnapshot& snap);

 private:
  struct Impl;
  Impl& impl() const;
};

// The process-global registry.
Registry& registry();

enum class MetricsFormat { kJson, kPrometheus };

// Serializes a snapshot of the global registry.
std::string dump_metrics(MetricsFormat format = MetricsFormat::kJson);
std::string dump_metrics(const MetricsSnapshot& snap,
                         MetricsFormat format = MetricsFormat::kJson);

// Writes dump_metrics(kJson) to `path` atomically. Throws on I/O failure.
void write_metrics_json(const std::string& path);

// Binary snapshot persistence (checksummed, crash-safe — util/atomic_file).
// save_metrics writes the OBSF columnar container (io/obsf.h, one row per
// metric, LZ4 blocks); load_metrics reads it back and throws
// util::CorruptionError on a damaged file or any other format.
void save_metrics(const MetricsSnapshot& snap, const std::string& path);
MetricsSnapshot load_metrics(const std::string& path);

}  // namespace odlp::obs
