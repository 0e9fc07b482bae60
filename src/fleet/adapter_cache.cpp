#include "fleet/adapter_cache.h"

#include <stdexcept>
#include <sys/stat.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace odlp::fleet {

namespace {

obs::Counter& c_hits() {
  static obs::Counter& c =
      obs::registry().counter("fleet.adapter_cache.hits");
  return c;
}
obs::Counter& c_misses() {
  static obs::Counter& c =
      obs::registry().counter("fleet.adapter_cache.misses");
  return c;
}
obs::Counter& c_evictions() {
  static obs::Counter& c =
      obs::registry().counter("fleet.adapter_cache.evictions");
  return c;
}
obs::Gauge& g_resident() {
  static obs::Gauge& g =
      obs::registry().gauge("fleet.adapter_cache.resident");
  return g;
}
obs::Gauge& g_bytes() {
  static obs::Gauge& g =
      obs::registry().gauge("fleet.adapter_cache.resident_bytes");
  return g;
}

}  // namespace

AdapterCache::AdapterCache(std::size_t capacity, std::string spill_dir)
    : capacity_(capacity == 0 ? 1 : capacity),
      spill_dir_(std::move(spill_dir)) {
  if (spill_dir_.empty()) {
    throw std::invalid_argument("AdapterCache: spill_dir is required");
  }
}

std::string AdapterCache::spill_path(std::size_t user) const {
  return util::format("%s/user-%zu.adapter", spill_dir_.c_str(), user);
}

void AdapterCache::evict_past_capacity_locked() {
  while (lru_.size() > capacity_) {
    ODLP_TRACE_SCOPE("fleet.adapter_cache.spill");
    Entry& victim = lru_.back();
    ::mkdir(spill_dir_.c_str(), 0755);  // idempotent; first spill creates it
    save_adapter_state(victim.state, spill_path(victim.user));
    resident_bytes_ -= victim.state.bytes();
    resident_.erase(victim.user);
    lru_.pop_back();
    ++stats_.evictions;
    c_evictions().inc();
  }
  g_resident().set(static_cast<double>(lru_.size()));
  g_bytes().set(static_cast<double>(resident_bytes_));
}

void AdapterCache::insert(std::size_t user, AdapterState state) {
  std::lock_guard<std::mutex> lock(mu_);
  resident_bytes_ += state.bytes();
  lru_.push_front(Entry{user, std::move(state)});
  resident_[user] = lru_.begin();
  evict_past_capacity_locked();
}

AdapterState AdapterCache::acquire(std::size_t user) {
  ODLP_TRACE_SCOPE("fleet.adapter_cache.acquire");
  std::lock_guard<std::mutex> lock(mu_);
  AdapterState state;
  auto it = resident_.find(user);
  if (it != resident_.end()) {
    state = std::move(it->second->state);
    resident_bytes_ -= state.bytes();
    lru_.erase(it->second);
    resident_.erase(it);
    ++stats_.hits;
    c_hits().inc();
  } else {
    state = load_adapter_state(spill_path(user));
    ++stats_.misses;
    c_misses().inc();
  }
  ++pinned_;
  g_resident().set(static_cast<double>(lru_.size()));
  g_bytes().set(static_cast<double>(resident_bytes_));
  return state;
}

void AdapterCache::release(std::size_t user, AdapterState state) {
  ODLP_TRACE_SCOPE("fleet.adapter_cache.release");
  std::lock_guard<std::mutex> lock(mu_);
  --pinned_;
  resident_bytes_ += state.bytes();
  lru_.push_front(Entry{user, std::move(state)});
  resident_[user] = lru_.begin();
  evict_past_capacity_locked();
}

void AdapterCache::abandon(std::size_t user) {
  (void)user;
  std::lock_guard<std::mutex> lock(mu_);
  --pinned_;
}

AdapterCache::Stats AdapterCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.resident = lru_.size();
  s.pinned = pinned_;
  s.resident_bytes = resident_bytes_;
  return s;
}

}  // namespace odlp::fleet
