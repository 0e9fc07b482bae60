// Multi-tenant fleet scheduler bench (DESIGN.md §13).
//
// Runs the SAME fleet workload twice — sequentially (exp::run_fleet, one
// full run_experiment per user) and concurrently (fleet::run_concurrent_fleet
// at --threads lanes with cross-user batched decode and an LRU adapter
// cache sized to half the fleet) — then verifies the concurrent per-user
// results are bit-identical to the sequential ones and reports the
// users/sec ratio. Traffic is record-once/replay-many: the sequential run
// records each user's dialogue stream to OBSF (io/stream_capture), and the
// concurrent run replays those captures instead of regenerating them, so
// the bit-identity check also covers the replay path.
//
// Where the speedup comes from: both paths run the same loop (one
// fleet::UserSession per user, evaluations scored by fleet::flush_evals
// with shared-prefix forking of the sampling repeats and dedup of the
// final evaluation), so the ratio measures only what running users
// together adds. The concurrent path pays the tokenizer build, base-model
// materialization, and worker construction once instead of per user; its
// evaluations flush once per wave, so every user's generations share
// batched decode steps at the fleet width (12) instead of one user's
// decode_batch (4) after each chunk; and its chunks run on up to
// --threads lanes.
//
// The workload is deliberately decode-heavy (learning-curve evaluation at
// every fine-tune round with several sampling repeats): this is the
// personalization deployment shape where per-user quality tracking, not
// training math, dominates the device budget.
//
// Exits non-zero — failing run_benches.sh — if any user's results diverge
// from the sequential reference or the users/sec ratio falls below 1.5x.
// Writes a machine-readable summary (merged into BENCH_perf.json by
// run_benches.sh) to results/BENCH_fleet.json; override with --out.
//
// Flags: --quick, --seed N, --threads N, --out PATH.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "exp/fleet.h"
#include "fleet/scheduler.h"
#include "obs/journal.h"
#include "obs/scope.h"
#include "util/stopwatch.h"

using namespace odlp;

namespace {

exp::FleetConfig fleet_workload(const bench::BenchOptions& opt,
                                std::size_t users,
                                const std::string& cache_dir,
                                const std::string& traffic_dir) {
  exp::FleetConfig fleet;
  fleet.num_devices = users;
  exp::ExperimentConfig& c = fleet.device_template;
  c.dataset = "MedDialog";
  c.buffer_bins = 8;
  c.stream_size = opt.quick ? 4 : 6;
  c.finetune_interval = opt.quick ? 2 : 3;  // 2 rounds per user either way
  c.test_size = 48;
  c.eval_subset = opt.quick ? 8 : 12;
  c.eval_repeats = opt.quick ? 6 : 8;
  c.epochs = 1;
  c.synth_per_set = 1;
  c.pretrain_examples = 16;
  c.pretrain_epochs = 1;
  c.record_curve = true;
  c.cache_dir = cache_dir;  // base pretraining cached for BOTH paths
  fleet.seed_base = opt.seed;
  fleet.shared_base_seed = opt.seed * 7919 + 17;
  // Record-once/replay-many: the sequential reference run records each
  // user's stream to <traffic_dir>/user-<i>.obsf, and the concurrent run
  // replays those recordings instead of regenerating the traffic — the
  // bit-identity check below therefore also covers the replay path.
  fleet.traffic_dir = traffic_dir;
  return fleet;
}

bool users_identical(const std::vector<exp::ExperimentResult>& seq,
                     const std::vector<exp::ExperimentResult>& conc) {
  if (seq.size() != conc.size()) return false;
  for (std::size_t u = 0; u < seq.size(); ++u) {
    const exp::ExperimentResult& a = seq[u];
    const exp::ExperimentResult& b = conc[u];
    if (a.final_rouge != b.final_rouge) return false;
    if (a.final_per_set != b.final_per_set) return false;
    if (a.curve.seen() != b.curve.seen()) return false;
    if (a.curve.rouge() != b.curve.rouge()) return false;
    if (a.engine_stats.seen != b.engine_stats.seen) return false;
    if (a.annotation_requests != b.annotation_requests) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  std::string out_path = "results/BENCH_fleet.json";
  std::size_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    }
  }
  bench::print_header(
      "fleet scheduler",
      "N concurrent users, cross-user batched decode, LRU adapter hot-swap",
      opt);

  const std::size_t users = opt.quick ? 6 : 8;
  const std::string scratch =
      "/tmp/odlp_bench_fleet_" + std::to_string(::getpid());
  // Removes the scratch directory on every return path, failures included.
  struct RemoveOnExit {
    const std::string& dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_scratch{scratch};
  std::filesystem::create_directories(scratch + "/cache");
  std::filesystem::create_directories(scratch + "/traffic");
  const exp::FleetConfig fleet =
      fleet_workload(opt, users, scratch + "/cache", scratch + "/traffic");

  std::printf("workload: %zu users x %zu sets (interval %zu), eval %zu sets x "
              "%zu repeats per round\n\n",
              users, fleet.device_template.stream_size,
              fleet.device_template.finetune_interval,
              fleet.device_template.eval_subset,
              fleet.device_template.eval_repeats);

  // --- Sequential reference: one dedicated engine per user, in a row.
  util::Stopwatch seq_sw;
  const exp::FleetResult seq = exp::run_fleet(fleet, "Ours");
  const double seq_seconds = seq_sw.elapsed_seconds();
  const double seq_ups = static_cast<double>(users) / seq_seconds;
  std::printf("sequential:  %6.2fs  %5.2f users/s\n", seq_seconds, seq_ups);

  // The reference run must have recorded every user's stream; the
  // concurrent run below replays these OBSF captures.
  std::size_t traffic_files = 0, traffic_bytes = 0;
  for (const auto& e :
       std::filesystem::directory_iterator(scratch + "/traffic")) {
    ++traffic_files;
    traffic_bytes += static_cast<std::size_t>(e.file_size());
  }
  if (traffic_files != users) {
    std::fprintf(stderr,
                 "bench_fleet: FAIL — expected %zu recorded user streams, "
                 "found %zu\n",
                 users, traffic_files);
    return 1;
  }
  std::printf("traffic: recorded %zu user streams (%.1f KB); concurrent run "
              "replays them\n",
              traffic_files, static_cast<double>(traffic_bytes) / 1e3);

  // --- Concurrent: shared base, cache at half the fleet so adapter
  // hot-swap (spill + CRC-checked reload) is actually on the measured path.
  fleet::ConcurrentFleetConfig cc;
  cc.fleet = fleet;
  cc.method = "Ours";
  cc.threads = threads;
  cc.shards = 4;
  // Width 12 is this host's sweet spot: wider batches stop paying once the
  // per-step working set outgrows cache (see bench_perf decode rows).
  cc.decode_batch = std::min<std::size_t>(12, 2 * users);
  cc.adapter_cache_capacity = std::max<std::size_t>(2, users / 2);
  cc.spill_dir = scratch + "/spill";
  // Wave-boundary metrics journal: per-user trajectories land in OBSF rows.
  cc.journal_out = scratch + "/fleet_journal.obsf";
  const fleet::ConcurrentFleetResult conc = fleet::run_concurrent_fleet(cc);
  const fleet::FleetRunStats& st = conc.stats;
  std::printf("concurrent:  %6.2fs  %5.2f users/s  (%zu threads, %zu waves, "
              "decode x%.1f mean occupancy)\n",
              st.wall_seconds, st.users_per_second, threads, st.waves,
              st.decode_mean_occupancy);

  const double speedup =
      seq_ups > 0.0 ? st.users_per_second / seq_ups : 0.0;
  const bool identical = users_identical(seq.devices, conc.users);
  std::printf("\nspeedup: %.2fx   bit-identical per-user results: %s\n",
              speedup, identical ? "yes" : "NO");
  std::printf("cache: %.0f%% hit rate (%zu hits / %zu misses / %zu "
              "evictions)\n",
              100.0 * st.cache.hit_rate(), st.cache.hits, st.cache.misses,
              st.cache.evictions);
  std::printf("rounds: %zu total, mean %.3fs, p99 %.3fs; max %zu rounds "
              "behind, %zu starvation events\n",
              st.rounds, st.mean_round_seconds, st.p99_round_seconds,
              st.max_rounds_behind, st.starvation_events);
  std::printf("ledger: %.1f MB base + %zu adapters x %.1f KB resident\n",
              static_cast<double>(st.ledger.base.total_bytes()) / 1e6,
              st.ledger.resident_adapters,
              static_cast<double>(st.ledger.adapter_bytes_each) / 1e3);

  // --- Observability surface: per-user p99 spread from the scoped round
  // histogram, scope-table health, and the wave-boundary journal cost.
  double user_p99_min = 0.0, user_p99_max = 0.0;
  std::size_t scoped_users = 0;
  {
    obs::ScopedHistogram& sh =
        obs::scoped_registry().histogram("fleet.user.round.us");
    obs::ScopeTable& scopes = obs::scoped_registry().scopes();
    for (std::uint32_t s = 0; s < scopes.slots(); ++s) {
      if (scopes.label(s).rfind("user=", 0) != 0) continue;
      const obs::Histogram& h = sh.at(s);
      if (h.count() == 0) continue;
      const double p99 = h.summary().p99;
      if (scoped_users == 0) {
        user_p99_min = user_p99_max = p99;
      } else {
        user_p99_min = std::min(user_p99_min, p99);
        user_p99_max = std::max(user_p99_max, p99);
      }
      ++scoped_users;
    }
  }
  const double p99_spread =
      user_p99_min > 0.0 ? user_p99_max / user_p99_min : 0.0;
  std::printf("per-user p99: %.0f us .. %.0f us across %zu scoped users "
              "(%.2fx spread)\n",
              user_p99_min, user_p99_max, scoped_users, p99_spread);
  std::printf("scopes: %zu live labels, %zu demotions\n", st.scope_occupancy,
              st.scope_demotions);
  const double bytes_per_snapshot =
      st.journal_snapshots > 0 ? static_cast<double>(st.journal_file_bytes) /
                                     static_cast<double>(st.journal_snapshots)
                               : 0.0;
  std::printf("journal: %zu snapshots, %.1f KB on disk (%.0f bytes/"
              "snapshot)\n",
              st.journal_snapshots,
              static_cast<double>(st.journal_file_bytes) / 1e3,
              bytes_per_snapshot);

  bench::JsonWriter json;
  json.text("bench", "fleet_scheduler");
  json.text("mode", opt.quick ? "quick" : "full");
  json.integer("users", static_cast<long long>(users));
  json.integer("threads", static_cast<long long>(threads));
  json.integer("decode_batch", static_cast<long long>(cc.decode_batch));
  json.integer("adapter_cache_capacity",
               static_cast<long long>(cc.adapter_cache_capacity));
  json.number("sequential_seconds", seq_seconds);
  json.number("sequential_users_per_second", seq_ups);
  json.number("concurrent_seconds", st.wall_seconds);
  json.number("concurrent_users_per_second", st.users_per_second);
  json.number("speedup", speedup);
  json.integer("bit_identical", identical ? 1 : 0);
  json.raw("traffic",
           bench::json_object(
               {{"recorded_streams", static_cast<double>(traffic_files)},
                {"recorded_bytes", static_cast<double>(traffic_bytes)},
                {"replayed", 1.0}}));
  json.integer("waves", static_cast<long long>(st.waves));
  json.integer("rounds", static_cast<long long>(st.rounds));
  json.number("mean_round_seconds", st.mean_round_seconds);
  json.number("p99_round_seconds", st.p99_round_seconds);
  json.raw("adapter_cache",
           bench::json_object(
               {{"hits", static_cast<double>(st.cache.hits)},
                {"misses", static_cast<double>(st.cache.misses)},
                {"evictions", static_cast<double>(st.cache.evictions)},
                {"hit_rate", st.cache.hit_rate()}}));
  json.raw("decode",
           bench::json_object(
               {{"steps", static_cast<double>(st.decode_steps)},
                {"mean_occupancy", st.decode_mean_occupancy},
                {"peak_occupancy",
                 static_cast<double>(st.decode_peak_occupancy)}}));
  json.raw("fairness",
           bench::json_object(
               {{"starvation_events",
                 static_cast<double>(st.starvation_events)},
                {"max_rounds_behind",
                 static_cast<double>(st.max_rounds_behind)},
                {"faults", static_cast<double>(st.faults)}}));
  json.raw("obs",
           bench::json_object(
               {{"scoped_users", static_cast<double>(scoped_users)},
                {"user_p99_min_us", user_p99_min},
                {"user_p99_max_us", user_p99_max},
                {"user_p99_spread", p99_spread},
                {"scope_occupancy", static_cast<double>(st.scope_occupancy)},
                {"scope_demotions", static_cast<double>(st.scope_demotions)},
                {"journal_snapshots",
                 static_cast<double>(st.journal_snapshots)},
                {"journal_file_bytes",
                 static_cast<double>(st.journal_file_bytes)},
                {"journal_bytes_per_snapshot", bytes_per_snapshot}}));
  json.raw("ledger",
           bench::json_object(
               {{"base_bytes", static_cast<double>(st.ledger.base.total_bytes())},
                {"adapter_bytes_each",
                 static_cast<double>(st.ledger.adapter_bytes_each)},
                {"resident_adapters",
                 static_cast<double>(st.ledger.resident_adapters)},
                {"total_bytes", static_cast<double>(st.ledger.total_bytes())}}));
  const std::string body = json.finish();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_fleet: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "bench_fleet: FAIL — concurrent results diverge from the "
                 "sequential reference\n");
    return 1;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "bench_fleet: FAIL — %.2fx users/sec is below the 1.5x "
                 "floor at %zu threads\n",
                 speedup, threads);
    return 1;
  }
  return 0;
}
