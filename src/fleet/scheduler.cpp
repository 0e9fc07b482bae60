#include "fleet/scheduler.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "fleet/user_session.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace odlp::fleet {

namespace {

// Sharded progress registry. Each user's {rounds, done, in_flight} triple
// lives in its shard (user % shards) and is only read or written under that
// shard's mutex — the mutex also publishes the session/eval-queue writes of
// the lane that just released the user to the lane that claims it next.
class SessionRegistry {
 public:
  SessionRegistry(std::size_t num_users, std::size_t num_shards)
      : num_users_(num_users), shards_(std::max<std::size_t>(1, num_shards)) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].runnable =
          &obs::registry().gauge(util::format("fleet.shard.%zu.runnable", s));
    }
    for (std::size_t u = 0; u < num_users; ++u) {
      shards_[u % shards_.size()].users.push_back(u);
      shards_[u % shards_.size()].slots.push_back({});
    }
    for (auto& shard : shards_) {
      shard.runnable->set(static_cast<double>(shard.users.size()));
    }
  }

  // Claims the runnable user with the fewest completed rounds. Two-phase:
  // scan every shard for the global minimum (each shard locked briefly),
  // then re-lock the winner's shard and claim if it is still runnable and
  // unchanged; any race retries the scan. Returns false when no shard has a
  // runnable user (all done, failed, or in flight).
  bool claim(std::size_t* user) {
    for (;;) {
      bool found = false;
      std::size_t best_shard = 0, best_idx = 0, best_rounds = 0;
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard& shard = shards_[s];
        std::lock_guard<std::mutex> lock(shard.mu);
        for (std::size_t i = 0; i < shard.slots.size(); ++i) {
          const Slot& slot = shard.slots[i];
          if (slot.done || slot.in_flight) continue;
          if (!found || slot.rounds < best_rounds) {
            found = true;
            best_shard = s;
            best_idx = i;
            best_rounds = slot.rounds;
          }
        }
      }
      if (!found) return false;
      Shard& shard = shards_[best_shard];
      std::lock_guard<std::mutex> lock(shard.mu);
      Slot& slot = shard.slots[best_idx];
      if (slot.done || slot.in_flight || slot.rounds != best_rounds) {
        continue;  // raced with another lane; rescan
      }
      slot.in_flight = true;
      shard.runnable->set(static_cast<double>(runnable_locked(shard)));
      *user = shard.users[best_idx];
      return true;
    }
  }

  void commit(std::size_t user, std::size_t rounds, bool done) {
    Shard& shard = shards_[user % shards_.size()];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (std::size_t i = 0; i < shard.users.size(); ++i) {
      if (shard.users[i] != user) continue;
      shard.slots[i].in_flight = false;
      shard.slots[i].rounds = rounds;
      shard.slots[i].done = done;
      break;
    }
    shard.runnable->set(static_cast<double>(runnable_locked(shard)));
  }

  std::size_t unfinished() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const Slot& slot : shard.slots) n += slot.done ? 0 : 1;
    }
    return n;
  }

  // Fairness snapshot at a wave boundary: how far the furthest-behind
  // unfinished user trails the furthest-ahead user (finished or not).
  std::size_t max_rounds_behind() const {
    std::size_t max_rounds = 0, min_unfinished = 0;
    bool any = false, any_unfinished = false;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const Slot& slot : shard.slots) {
        max_rounds = any ? std::max(max_rounds, slot.rounds) : slot.rounds;
        any = true;
        if (!slot.done) {
          min_unfinished = any_unfinished
                               ? std::min(min_unfinished, slot.rounds)
                               : slot.rounds;
          any_unfinished = true;
        }
      }
    }
    if (!any_unfinished) return 0;
    return max_rounds - min_unfinished;
  }

 private:
  struct Slot {
    std::size_t rounds = 0;
    bool done = false;
    bool in_flight = false;
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<std::size_t> users;  // user ids, parallel to slots
    std::vector<Slot> slots;
    obs::Gauge* runnable = nullptr;
  };

  static std::size_t runnable_locked(const Shard& shard) {
    std::size_t n = 0;
    for (const Slot& slot : shard.slots) {
      if (!slot.done && !slot.in_flight) ++n;
    }
    return n;
  }

  std::size_t num_users_;
  std::vector<Shard> shards_;
};

// Restores the global pool's lane count even if the wave loop throws.
struct PoolResizeGuard {
  std::size_t prev;
  explicit PoolResizeGuard(std::size_t lanes)
      : prev(util::ThreadPool::global().lanes()) {
    util::ThreadPool::global().resize(lanes);
  }
  ~PoolResizeGuard() { util::ThreadPool::global().resize(prev); }
};

}  // namespace

ConcurrentFleetResult run_concurrent_fleet(const ConcurrentFleetConfig& config) {
  if (config.spill_dir.empty()) {
    throw std::invalid_argument("run_concurrent_fleet: spill_dir is required");
  }
  const std::size_t num_users = config.fleet.num_devices;
  const std::size_t threads = std::max<std::size_t>(1, config.threads);
  // OS-level lanes are capped at the physical core count unless the config
  // opts into oversubscription: `threads` beyond the core count buys
  // scheduling freedom (wave slots, fairness), not compute. Determinism
  // never depends on the lane count, so the cap is invisible in the results.
  const std::size_t pool_lanes =
      config.oversubscribe
          ? threads
          : std::min(threads, std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency()));
  util::Stopwatch watch;
  const devicesim::StorageLedger storage_before =
      devicesim::storage_ledger_snapshot();

  ConcurrentFleetResult result;
  result.stats.users = num_users;
  if (num_users == 0) return result;

  // Per-user configs as run_fleet builds them, all on one base checkpoint:
  // shared_base_seed, or else user 0's own. The shared base is what makes
  // one pretrained model and one adapter-free decode base valid for the
  // whole fleet — and what the sequential run_fleet must also be given
  // (FleetConfig::shared_base_seed) for bit-identity.
  std::vector<exp::ExperimentConfig> user_configs;
  for (std::size_t u = 0; u < num_users; ++u) {
    const auto it = config.user_overrides.find(u);
    user_configs.push_back(exp::device_config(
        config.fleet,
        it != config.user_overrides.end() ? it->second
                                          : config.fleet.device_template,
        config.method, u));
  }
  const std::uint64_t shared_base = exp::experiment_base_seed(user_configs[0]);
  for (exp::ExperimentConfig& ec : user_configs) ec.base_seed = shared_base;

  const text::Tokenizer tokenizer = exp::make_device_tokenizer();
  // The pretrained base stays adapter-free: each lane's worker clones it,
  // and it is the cross-user decode model, where per-slot LoRA overlays
  // supply each request's adapter so requests from different users share
  // forward steps. Every lane reads the base's one set of weight panels.
  FleetModels models =
      make_fleet_models(user_configs[0], tokenizer, pool_lanes);
  llm::MiniLlm& decode_model = *models.base;
  std::vector<WorkerContext>& workers = models.workers;
  const AdapterState initial = initial_adapter_state(*workers[0].model);

  std::size_t cache_capacity = config.adapter_cache_capacity;
  if (cache_capacity == 0 && config.memory_budget_bytes != 0) {
    const devicesim::FleetMemoryLedger budget_ledger =
        devicesim::fleet_memory_ledger(
            decode_model, initial.bytes(), /*resident_adapters=*/0,
            config.decode_batch, exp::make_engine_config(user_configs[0]).buffer_bins,
            num_users);
    cache_capacity = budget_ledger.adapter_capacity(config.memory_budget_bytes);
  }
  if (cache_capacity == 0) cache_capacity = num_users;
  AdapterCache cache(cache_capacity, config.spill_dir);

  // Eval queues: queued[u] is only appended to by the lane that currently
  // holds user u in flight (or the main thread between waves), and drained
  // by the main thread at wave boundaries — the registry's shard mutexes
  // order those accesses.
  std::vector<std::vector<EvalJob>> queued(num_users);
  std::vector<std::unique_ptr<UserSession>> sessions(num_users);
  const auto sink = [&](EvalJob job) {
    queued[job.user].push_back(std::move(job));
  };
  for (std::size_t u = 0; u < num_users; ++u) {
    sessions[u] = make_user_session(u, user_configs[u], workers[0], sink);
    sessions[u]->scope =
        obs::scoped_registry().scopes().acquire("user=" + std::to_string(u));
    cache.insert(u, AdapterState(initial));  // everyone starts from the fresh attach
  }

  static obs::Counter& c_starvation =
      obs::registry().counter("fleet.starvation.events");
  static obs::Gauge& g_behind = obs::registry().gauge("fleet.rounds_behind.max");
  static obs::Histogram& h_round =
      obs::registry().histogram("fleet.round.us", obs::default_us_bounds());
  // Per-user round-latency twin of fleet.round.us, recorded under the
  // session's scope so the spread ACROSS users is visible, not just the
  // fleet aggregate.
  static obs::ScopedHistogram& sh_round =
      obs::scoped_registry().histogram("fleet.user.round.us");
  obs::Histogram& h_occ = obs::registry().histogram(
      "decode.batch.occupancy.hist", std::vector<double>{1, 2, 4, 8, 16, 32, 64});
  const std::uint64_t occ_count_before = h_occ.count();
  const double occ_sum_before = h_occ.sum();

  SessionRegistry registry(num_users, config.shards);
  std::vector<std::vector<double>> lane_latencies(pool_lanes);
  std::atomic<std::size_t> faults{0};

  // The eval flush drains every queue into one flush_evals call on the
  // main thread, between waves.
  const auto flush = [&] {
    std::vector<EvalJob> batch;
    for (auto& q : queued) {
      for (auto& job : q) batch.push_back(std::move(job));
      q.clear();
    }
    const core::EvalDecodeStats decode = flush_evals(
        std::move(batch), sessions, decode_model, tokenizer, config.decode_batch);
    result.stats.decode_steps += decode.steps;
    result.stats.decode_peak_occupancy =
        std::max(result.stats.decode_peak_occupancy, decode.peak_occupancy);
  };

  std::unique_ptr<obs::JournalWriter> journal;
  if (!config.journal_out.empty()) {
    journal = std::make_unique<obs::JournalWriter>(config.journal_out);
  }
  const auto journal_tick = [&] {
    if (!journal) return;
    journal->append(obs::full_snapshot(),
                    static_cast<std::uint64_t>(watch.elapsed_seconds() * 1e6));
  };
  const std::uint64_t scope_demotions_before =
      obs::scoped_registry().scopes().demotions();

  {
    PoolResizeGuard pool_guard(pool_lanes);
    util::ThreadPool& pool = util::ThreadPool::global();
    journal_tick();  // snapshot 0: pre-wave baseline
    for (;;) {
      const std::size_t unfinished = registry.unfinished();
      if (unfinished == 0) break;
      const std::size_t wave_slots =
          std::max(threads, config.wave_slot_factor * unfinished);
      pool.parallel_for_slotted(
          0, wave_slots, 1,
          [&](std::size_t begin, std::size_t end, std::size_t lane) {
            for (std::size_t slot = begin; slot < end; ++slot) {
              std::size_t user = 0;
              if (!registry.claim(&user)) return;
              UserSession& session = *sessions[user];
              util::Stopwatch round_sw;
              bool pinned = false;
              try {
                AdapterState adapter = cache.acquire(user);
                pinned = true;
                run_user_chunk(session, workers[lane], tokenizer, adapter,
                               sink);
                cache.release(user, std::move(adapter));
                pinned = false;
                const double seconds = round_sw.elapsed_seconds();
                lane_latencies[lane].push_back(seconds);
                h_round.record(seconds * 1e6);
                sh_round.record(session.scope, seconds * 1e6);
                registry.commit(user, session.rounds_done, session.work_done);
              } catch (const std::exception&) {
                // An injected fault (or spill-I/O corruption) aborted the
                // chunk: run_user_chunk swapped the session out whole, with
                // every set processed before the fault. Drop the pin and
                // retire the user with that progress, so the rest of the
                // fleet proceeds; a pending evaluation finalizes it at the
                // next flush, else it is finalized here.
                if (pinned) cache.abandon(user);
                session.work_done = true;
                if (session.pending_evals == 0) finalize_result(session);
                faults.fetch_add(1, std::memory_order_relaxed);
                registry.commit(user, session.rounds_done, /*done=*/true);
              }
            }
          });
      ++result.stats.waves;

      const std::size_t behind = registry.max_rounds_behind();
      result.stats.max_rounds_behind =
          std::max(result.stats.max_rounds_behind, behind);
      g_behind.set(static_cast<double>(behind));
      if (behind >= config.starvation_gap) {
        ++result.stats.starvation_events;
        c_starvation.inc();
      }

      // Wave boundary: all lanes are idle, so the decode kernels get the
      // whole pool.
      flush();
      journal_tick();
    }
  }

  if (journal) {
    const io::ObsfWriter::Stats jstats = journal->finish();
    result.stats.journal_snapshots =
        static_cast<std::size_t>(journal->snapshots());
    result.stats.journal_file_bytes =
        static_cast<std::size_t>(jstats.file_bytes);
  }
  result.stats.scope_occupancy = obs::scoped_registry().scopes().occupancy();
  result.stats.scope_demotions = static_cast<std::size_t>(
      obs::scoped_registry().scopes().demotions() - scope_demotions_before);

  // Totals + latency distribution over every chunk from every lane.
  std::vector<double> latencies;
  for (auto& lane : lane_latencies) {
    latencies.insert(latencies.end(), lane.begin(), lane.end());
  }
  std::sort(latencies.begin(), latencies.end());
  result.stats.rounds = latencies.size();
  result.stats.faults = faults.load();
  if (!latencies.empty()) {
    double sum = 0.0;
    for (double v : latencies) sum += v;
    result.stats.mean_round_seconds = sum / static_cast<double>(latencies.size());
    const std::size_t idx = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(0.99 * static_cast<double>(latencies.size())));
    result.stats.p99_round_seconds = latencies[idx];
  }

  const std::uint64_t occ_count = h_occ.count() - occ_count_before;
  if (occ_count > 0) {
    result.stats.decode_mean_occupancy =
        (h_occ.sum() - occ_sum_before) / static_cast<double>(occ_count);
  }
  result.stats.cache = cache.stats();
  result.stats.ledger = devicesim::fleet_memory_ledger(
      decode_model, initial.bytes(), result.stats.cache.resident,
      config.decode_batch, sessions[0]->ec.buffer_bins, num_users);
  result.stats.ledger.storage_bytes_at_rest = static_cast<std::size_t>(
      devicesim::storage_ledger_snapshot()
          .delta_since(storage_before)
          .bytes_compressed);

  result.users.reserve(num_users);
  for (auto& session : sessions) {
    result.users.push_back(std::move(session->result));
  }
  result.stats.wall_seconds = watch.elapsed_seconds();
  if (result.stats.wall_seconds > 0.0) {
    result.stats.users_per_second =
        static_cast<double>(num_users) / result.stats.wall_seconds;
  }
  return result;
}

}  // namespace odlp::fleet
