#include "obs/scope.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace odlp::obs {

namespace {

// Registry-side meters for the global scope table. Looked up lazily so the
// scope layer works before/without the global registry being touched.
Counter& demotions_counter() {
  static Counter& c = registry().counter("obs.scope.demotions.total");
  return c;
}

Gauge& occupancy_gauge() {
  static Gauge& g = registry().gauge("obs.scope.occupancy");
  return g;
}

}  // namespace

ScopeTable::ScopeTable(std::size_t slots) : nslots_(slots) {
  if (slots < 2) {
    throw std::invalid_argument("ScopeTable: need at least 2 slots");
  }
  gens_ = std::make_unique<std::atomic<std::uint32_t>[]>(nslots_);
  for (std::size_t i = 0; i < nslots_; ++i) gens_[i].store(0);
  labels_.resize(nslots_);
  labels_[0] = "other";
  last_used_.resize(nslots_, 0);
}

ScopeTable::~ScopeTable() = default;

ScopeTable::Handle ScopeTable::acquire(const std::string& label) {
  if (label.empty()) return Handle{0, 0};
  std::lock_guard<std::mutex> lk(mutex_);
  ++tick_;

  // Live already? (Linear scan: acquire is a per-session event and tables
  // are tens of slots.)
  for (std::uint32_t s = 1; s < nslots_; ++s) {
    if (labels_[s] == label) {
      last_used_[s] = tick_;
      return Handle{s, gens_[s].load(std::memory_order_relaxed)};
    }
  }

  // Free slot?
  for (std::uint32_t s = 1; s < nslots_; ++s) {
    if (labels_[s].empty()) {
      labels_[s] = label;
      last_used_[s] = tick_;
      std::size_t occ = 0;
      for (std::uint32_t i = 1; i < nslots_; ++i) occ += labels_[i].empty() ? 0 : 1;
      occupancy_gauge().set(static_cast<double>(occ));
      return Handle{s, gens_[s].load(std::memory_order_relaxed)};
    }
  }

  // Full: demote the least-recently-acquired label. Bumping the generation
  // FIRST sends stale-handle traffic to `other`; the fold then moves the
  // slot's accumulated values there too, so totals are conserved.
  std::uint32_t victim = 1;
  for (std::uint32_t s = 2; s < nslots_; ++s) {
    if (last_used_[s] < last_used_[victim]) victim = s;
  }
  gens_[victim].fetch_add(1, std::memory_order_relaxed);
  for (ScopedMetricBase* m : metrics_) m->fold(victim);
  labels_[victim] = label;
  last_used_[victim] = tick_;
  ++demotions_;
  demotions_counter().inc();
  return Handle{victim, gens_[victim].load(std::memory_order_relaxed)};
}

std::size_t ScopeTable::occupancy() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::size_t occ = 0;
  for (std::uint32_t s = 1; s < nslots_; ++s) occ += labels_[s].empty() ? 0 : 1;
  return occ;
}

std::uint64_t ScopeTable::demotions() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return demotions_;
}

std::string ScopeTable::label(std::uint32_t slot) const {
  std::lock_guard<std::mutex> lk(mutex_);
  return slot < nslots_ ? labels_[slot] : std::string();
}

void ScopeTable::attach(ScopedMetricBase* metric) {
  std::lock_guard<std::mutex> lk(mutex_);
  metrics_.push_back(metric);
}

void ScopeTable::detach(ScopedMetricBase* metric) {
  std::lock_guard<std::mutex> lk(mutex_);
  metrics_.erase(std::remove(metrics_.begin(), metrics_.end(), metric),
                 metrics_.end());
}

ScopedMetricBase::ScopedMetricBase(ScopeTable& table, std::string name)
    : table_(table), name_(std::move(name)) {
  table_.attach(this);
}

ScopedMetricBase::~ScopedMetricBase() { table_.detach(this); }

ScopedCounter::ScopedCounter(ScopeTable& table, std::string name)
    : ScopedMetricBase(table, std::move(name)) {
  cells_ = std::make_unique<std::atomic<std::uint64_t>[]>(table.slots());
  for (std::size_t i = 0; i < table.slots(); ++i) cells_[i].store(0);
}

std::uint64_t ScopedCounter::total() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < table().slots(); ++i) {
    sum += cells_[i].load(std::memory_order_relaxed);
  }
  return sum;
}

void ScopedCounter::reset() {
  for (std::size_t i = 0; i < table().slots(); ++i) {
    cells_[i].store(0, std::memory_order_relaxed);
  }
}

void ScopedCounter::fold(std::uint32_t slot) {
  cells_[0].fetch_add(cells_[slot].exchange(0, std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

ScopedHistogram::ScopedHistogram(ScopeTable& table, std::string name,
                                 std::vector<double> bounds)
    : ScopedMetricBase(table, std::move(name)) {
  slots_.reserve(table.slots());
  for (std::size_t i = 0; i < table.slots(); ++i) {
    slots_.push_back(std::make_unique<Histogram>(bounds));
  }
}

void ScopedHistogram::reset() {
  for (auto& h : slots_) h->reset();
}

void ScopedHistogram::fold(std::uint32_t slot) {
  slots_[0]->absorb(*slots_[slot]);
}

// ---------------------------------------------------------------------------
// Global scoped registry
// ---------------------------------------------------------------------------

struct ScopedRegistry::Impl {
  mutable std::mutex mutex;
  ScopeTable table{ScopeTable::kDefaultSlots};
  std::map<std::string, std::unique_ptr<ScopedCounter>> counters;
  std::map<std::string, std::unique_ptr<ScopedHistogram>> histograms;
};

ScopedRegistry::Impl& ScopedRegistry::impl() const {
  static Impl instance;
  return instance;
}

ScopeTable& ScopedRegistry::scopes() { return impl().table; }

ScopedCounter& ScopedRegistry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    it = im.counters
             .emplace(name, std::make_unique<ScopedCounter>(im.table, name))
             .first;
  }
  return *it->second;
}

ScopedHistogram& ScopedRegistry::histogram(const std::string& name) {
  return histogram(name, default_us_bounds());
}

ScopedHistogram& ScopedRegistry::histogram(const std::string& name,
                                           std::vector<double> bounds) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    it = im.histograms
             .emplace(name, std::make_unique<ScopedHistogram>(
                                im.table, name, std::move(bounds)))
             .first;
  }
  return *it->second;
}

void ScopedRegistry::append_to(MetricsSnapshot& snap) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  const std::size_t nslots = im.table.slots();

  const auto slot_scope = [&](std::uint32_t s) { return im.table.label(s); };

  for (const auto& [name, c] : im.counters) {
    for (std::uint32_t s = 0; s < nslots; ++s) {
      const std::string scope = slot_scope(s);
      if (scope.empty()) continue;  // free slot
      const std::uint64_t v = c->value(s);
      if (s == 0 && v == 0) continue;  // quiet `other`
      MetricSample sample;
      sample.kind = MetricSample::Kind::kCounter;
      sample.name = name;
      sample.scope = scope;
      sample.counter = v;
      snap.samples.push_back(std::move(sample));
    }
  }
  for (const auto& [name, h] : im.histograms) {
    for (std::uint32_t s = 0; s < nslots; ++s) {
      const std::string scope = slot_scope(s);
      if (scope.empty()) continue;
      const Histogram& hist = h->at(s);
      if (hist.count() == 0) continue;  // unscoped slots with no samples
      MetricSample sample;
      sample.kind = MetricSample::Kind::kHistogram;
      sample.name = name;
      sample.scope = scope;
      sample.hist = hist.summary();
      sample.bounds = hist.bounds();
      sample.buckets.resize(hist.num_buckets());
      for (std::size_t b = 0; b < sample.buckets.size(); ++b) {
        sample.buckets[b] = hist.bucket_count(b);
      }
      snap.samples.push_back(std::move(sample));
    }
  }
}

void ScopedRegistry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

ScopedRegistry& scoped_registry() {
  static ScopedRegistry instance;
  return instance;
}

MetricsSnapshot full_snapshot() {
  MetricsSnapshot snap = registry().snapshot();
  scoped_registry().append_to(snap);
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name != b.name ? a.name < b.name : a.scope < b.scope;
            });
  return snap;
}

}  // namespace odlp::obs
