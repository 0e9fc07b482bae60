// Scoped metrics: per-user/device/stage attribution on top of the
// process-global registry (DESIGN.md §15).
//
// The registry in obs/metrics.h is process-global: one Counter per name.
// At fleet scale that hides exactly the question an operator asks first —
// WHICH user's rounds are slow, WHICH device's offers get rejected. Scoped
// metrics answer it without giving up the registry's lock-free hot path or
// admitting unbounded label cardinality:
//
//   * A ScopeTable maps label strings ("user=7", "device=dev-2") to a fixed
//     number of slots. Slot 0 is the permanent `other` scope. acquire() is
//     cold (mutex, called once per session/device); the returned Handle is
//     a {slot, generation} pair.
//   * When every slot is taken, acquire() demotes the least-recently-
//     acquired label: its generation is bumped (stale handles resolve to
//     `other` from then on) and every attached scoped metric folds the
//     evicted slot's values into slot 0 — totals are conserved, the tail
//     of a too-wide fleet aggregates under `other` instead of growing the
//     table. Demotions are counted in obs.scope.demotions.total.
//   * The hot path — ScopedCounter::inc(handle) — is one relaxed load of
//     the slot's generation plus one indexed relaxed fetch_add. No hashing,
//     no locking, no allocation. A stale handle costs the same and lands in
//     `other`.
//
// Scoped samples ride in the same MetricSample struct as unscoped ones
// (MetricSample::scope carries the label) and surface through
// full_snapshot() into the journal, the JSON dump, and the Prometheus
// exposition (as a scope="..." label). They are deliberately NOT part of
// save_metrics()/load_metrics(): the on-disk checkpoint format stays the
// 5-column unscoped schema, and scope slots do not survive a reboot.
//
// Ordering caveat (documented, accepted): an increment that resolves its
// handle concurrently with that slot's demotion may land in the slot after
// the fold and be attributed to the slot's next label. The window is a few
// instructions; per-scope counts are exact in the absence of a concurrent
// demotion of that same scope, and grand totals are always exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace odlp::obs {

class ScopedMetricBase;

class ScopeTable {
 public:
  static constexpr std::size_t kDefaultSlots = 64;

  // A cheap, copyable ticket for one scope. Default-constructed handles
  // (and handles whose slot has been demoted since) resolve to slot 0,
  // the `other` scope.
  struct Handle {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  // `slots` includes slot 0 (`other`), so `slots - 1` labels can be live at
  // once. Throws std::invalid_argument when slots < 2.
  explicit ScopeTable(std::size_t slots = kDefaultSlots);
  ~ScopeTable();

  ScopeTable(const ScopeTable&) = delete;
  ScopeTable& operator=(const ScopeTable&) = delete;

  // Returns a handle for `label`, assigning a free slot or re-using the
  // label's live slot; demotes the least-recently-acquired label when the
  // table is full. Cold path (mutex) — call once per session, not per
  // increment. An empty label returns the `other` handle.
  Handle acquire(const std::string& label);

  // Hot path: the slot this handle currently addresses — its own slot while
  // the generation matches, slot 0 (`other`) once demoted.
  std::uint32_t resolve(Handle h) const {
    return gens_[h.slot].load(std::memory_order_relaxed) == h.gen ? h.slot
                                                                  : 0u;
  }

  std::size_t slots() const { return nslots_; }
  // Labeled slots currently live (slot 0 excluded).
  std::size_t occupancy() const;
  std::uint64_t demotions() const;
  // Current label of `slot`: "other" for slot 0, "" for a free slot.
  std::string label(std::uint32_t slot) const;

 private:
  friend class ScopedMetricBase;
  void attach(ScopedMetricBase* metric);
  void detach(ScopedMetricBase* metric);

  std::size_t nslots_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> gens_;  // nslots_
  mutable std::mutex mutex_;
  std::vector<std::string> labels_;       // slot -> live label ("" free)
  std::vector<std::uint64_t> last_used_;  // slot -> lru tick
  std::uint64_t tick_ = 0;
  std::uint64_t demotions_ = 0;
  std::vector<ScopedMetricBase*> metrics_;
};

// Base for per-slot metric families. The table folds an evicted slot's
// values into slot 0 through fold(); metrics attach on construction and
// detach on destruction (the table must outlive its metrics).
class ScopedMetricBase {
 public:
  virtual ~ScopedMetricBase();
  ScopedMetricBase(const ScopedMetricBase&) = delete;
  ScopedMetricBase& operator=(const ScopedMetricBase&) = delete;

  const std::string& name() const { return name_; }
  ScopeTable& table() const { return table_; }

 protected:
  ScopedMetricBase(ScopeTable& table, std::string name);

 private:
  friend class ScopeTable;
  // Called under the table mutex when `slot` is demoted: move its values
  // into slot 0 and zero the slot for its next label.
  virtual void fold(std::uint32_t slot) = 0;

  ScopeTable& table_;
  std::string name_;
};

// One u64 counter per scope slot. inc() is the scoped hot path: one relaxed
// generation load + one indexed relaxed fetch_add.
class ScopedCounter : public ScopedMetricBase {
 public:
  ScopedCounter(ScopeTable& table, std::string name);

  void inc(ScopeTable::Handle h, std::uint64_t n = 1) {
    cells_[table().resolve(h)].fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value(std::uint32_t slot) const {
    return cells_[slot].load(std::memory_order_relaxed);
  }
  // Sum over every slot including `other` — conserved across demotions.
  std::uint64_t total() const;
  void reset();

 private:
  void fold(std::uint32_t slot) override;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
};

// One Histogram per scope slot, all sharing one bounds vector. Demotion
// absorbs the evicted slot's buckets into slot 0 exactly (bucket counts,
// count, sum; min/max merged).
class ScopedHistogram : public ScopedMetricBase {
 public:
  ScopedHistogram(ScopeTable& table, std::string name,
                  std::vector<double> bounds);

  void record(ScopeTable::Handle h, double v) {
    slots_[table().resolve(h)]->record(v);
  }
  const Histogram& at(std::uint32_t slot) const { return *slots_[slot]; }
  void reset();

 private:
  void fold(std::uint32_t slot) override;
  std::vector<std::unique_ptr<Histogram>> slots_;
};

// Process-global scoped registry: one kDefaultSlots ScopeTable plus
// create-on-first-use scoped metric families, mirroring obs::registry().
// References stay valid for the life of the process.
class ScopedRegistry {
 public:
  ScopeTable& scopes();
  ScopedCounter& counter(const std::string& name);
  ScopedHistogram& histogram(const std::string& name);  // default_us_bounds()
  ScopedHistogram& histogram(const std::string& name,
                             std::vector<double> bounds);

  // Appends one MetricSample per (metric, live slot) to `snap`, with
  // MetricSample::scope set to the slot's label. Slot 0 (`other`) is
  // emitted only when it has absorbed something non-zero.
  void append_to(MetricsSnapshot& snap) const;

  // Zeroes every cell in place (labels and handles survive).
  void reset();

 private:
  struct Impl;
  Impl& impl() const;
};

ScopedRegistry& scoped_registry();

// Unscoped registry snapshot plus every scoped sample, sorted by
// (name, scope) — the view the journal, the Prometheus exposition, and the
// JSON dump serialize. NOT the persistence format (save_metrics stays
// unscoped).
MetricsSnapshot full_snapshot();

}  // namespace odlp::obs
