// Observability v2 (DESIGN.md §15): scoped metrics cardinality and
// concurrency, OBSF metrics-journal round-trip + fault matrix, concurrent
// trace flush, sampling profiler, and SLO burn-rate alerting wired
// into the resource governor. Own binary with the "obs2" ctest label.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exp/fleet.h"
#include "io/obsf.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/scope.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "resil/governor.h"
#include "util/atomic_file.h"
#include "util/stopwatch.h"

namespace odlp {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return "/tmp/" + name + "." + std::to_string(::getpid());
}

std::vector<unsigned char> slurp(const std::string& path) {
  return util::read_file(path);
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// --- scoped metrics: cardinality policy ---

TEST(ScopedCardinality, DemotionFoldsIntoOtherAndConservesTotals) {
  obs::ScopeTable table(4);  // slot 0 = other, 3 label slots
  obs::ScopedCounter c(table, "t2.demote.counter");

  const auto ha = table.acquire("user=a");
  const auto hb = table.acquire("user=b");
  const auto hc = table.acquire("user=c");
  c.inc(ha, 5);
  c.inc(hb, 7);
  c.inc(hc, 9);
  EXPECT_EQ(table.occupancy(), 3u);
  EXPECT_EQ(c.total(), 21u);
  EXPECT_EQ(table.demotions(), 0u);

  // Table is full: acquiring a 4th label demotes the least-recently-acquired
  // one (user=a). Its 5 must fold into `other` — totals conserved.
  const auto hd = table.acquire("user=d");
  EXPECT_EQ(table.demotions(), 1u);
  EXPECT_EQ(table.occupancy(), 3u);
  EXPECT_EQ(c.total(), 21u);
  EXPECT_EQ(c.value(0), 5u);  // user=a's count, now under `other`
  EXPECT_EQ(table.label(0), "other");

  // The stale handle resolves to `other`; the recycled slot starts at zero.
  EXPECT_EQ(table.resolve(ha), 0u);
  c.inc(ha);
  EXPECT_EQ(c.value(0), 6u);
  EXPECT_EQ(c.value(table.resolve(hd)), 0u);
  c.inc(hd, 3);
  EXPECT_EQ(c.value(table.resolve(hd)), 3u);
  EXPECT_EQ(c.total(), 25u);

  // Re-acquiring a live label reuses its slot and value.
  const auto hb2 = table.acquire("user=b");
  EXPECT_EQ(table.resolve(hb2), table.resolve(hb));
  EXPECT_EQ(c.value(table.resolve(hb2)), 7u);
}

TEST(ScopedCardinality, OccupancyBoundedUnderLabelFlood) {
  obs::ScopeTable table(8);
  obs::ScopedCounter c(table, "t2.flood.counter");
  obs::ScopedHistogram h(table, "t2.flood.hist", {1.0, 10.0, 100.0});

  for (int i = 0; i < 100; ++i) {
    const auto handle = table.acquire("user=" + std::to_string(i));
    c.inc(handle);
    h.record(handle, 5.0);
  }
  EXPECT_LE(table.occupancy(), 7u);
  EXPECT_EQ(table.demotions(), 100u - 7u);
  EXPECT_EQ(c.total(), 100u);  // demotion never loses a count

  // The histogram's grand total is conserved too: live slots + other.
  std::uint64_t hist_total = 0;
  for (std::uint32_t s = 0; s < table.slots(); ++s) {
    hist_total += h.at(s).count();
  }
  EXPECT_EQ(hist_total, 100u);
}

TEST(ScopedConcurrency, PerScopeCountsExact) {
  obs::ScopeTable table(16);
  obs::ScopedCounter c(table, "t2.conc.counter");
  obs::ScopedHistogram h(table, "t2.conc.hist", {1.0, 4.0, 16.0});

  constexpr int kThreads = 6;
  constexpr std::uint64_t kIncs = 20000;
  constexpr std::uint64_t kRecords = 2000;
  std::vector<obs::ScopeTable::Handle> handles;
  for (int t = 0; t < kThreads; ++t) {
    handles.push_back(table.acquire("user=" + std::to_string(t)));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kIncs; ++i) c.inc(handles[t]);
      for (std::uint64_t i = 0; i < kRecords; ++i) {
        h.record(handles[t], static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();

  // No demotions ran, so every per-scope count is exact.
  EXPECT_EQ(table.demotions(), 0u);
  for (int t = 0; t < kThreads; ++t) {
    const std::uint32_t slot = table.resolve(handles[t]);
    EXPECT_NE(slot, 0u);
    EXPECT_EQ(c.value(slot), kIncs) << "thread " << t;
    EXPECT_EQ(h.at(slot).count(), kRecords) << "thread " << t;
  }
  EXPECT_EQ(c.total(), kIncs * kThreads);
}

// --- journal: bit-exact round-trip and rates ---

obs::MetricsSnapshot synthetic_snapshot() {
  obs::MetricsSnapshot s;
  obs::MetricSample c;
  c.kind = obs::MetricSample::Kind::kCounter;
  c.name = "t2.rt.counter";
  c.counter = 0xDEADBEEFCAFEull;
  obs::MetricSample g;
  g.kind = obs::MetricSample::Kind::kGauge;
  g.name = "t2.rt.gauge";
  g.gauge = -0.0;  // sign bit must survive
  obs::MetricSample d;
  d.kind = obs::MetricSample::Kind::kGauge;
  d.name = "t2.rt.denormal";
  d.gauge = 1e-310;  // subnormal must survive
  obs::MetricSample h;
  h.kind = obs::MetricSample::Kind::kHistogram;
  h.name = "t2.rt.hist";
  h.scope = "user=7";
  h.hist.count = 3;
  h.hist.sum = 0.1 + 0.2;  // 0.30000000000000004, not 0.3
  h.hist.p50 = 0.1;
  h.hist.p95 = 0.2;
  h.hist.p99 = 0.2 + 1e-17;
  s.samples = {c, d, g, h};  // (name, scope) order
  return s;
}

TEST(JournalRoundTrip, BitExactValuesAndRates) {
  const std::string path = temp_path("odlp_t2_journal_rt.obsf");
  obs::MetricsSnapshot s1 = synthetic_snapshot();
  obs::MetricsSnapshot s2 = synthetic_snapshot();
  s2.samples[0].counter += 250;     // 125/s over 2 s
  s2.samples[2].gauge = 2.5;        // gauge delta 2.5 over 2 s
  s2.samples[3].hist.count += 2;    // 1/s over 2 s
  s2.samples[3].hist.sum += 40.25;

  {
    obs::JournalWriter w(path);
    w.append(s1, 1'000'000);
    w.append(s2, 3'000'000);
    EXPECT_EQ(w.snapshots(), 2u);
    const io::ObsfWriter::Stats st = w.finish();
    EXPECT_EQ(st.rows, 8u);
  }

  const obs::Journal j = obs::read_journal(path);
  EXPECT_EQ(j.snapshots, 2u);
  EXPECT_FALSE(j.truncated);
  ASSERT_EQ(j.series.size(), 4u);

  const obs::JournalSeries* cs = j.find("t2.rt.counter");
  ASSERT_NE(cs, nullptr);
  ASSERT_EQ(cs->points.size(), 2u);
  EXPECT_EQ(cs->points[0].counter, 0xDEADBEEFCAFEull);
  EXPECT_EQ(cs->points[1].counter, 0xDEADBEEFCAFEull + 250);
  EXPECT_EQ(cs->points[0].ts_us, 1'000'000u);
  ASSERT_EQ(cs->rates().size(), 1u);
  EXPECT_EQ(cs->rates()[0], 125.0);

  const obs::JournalSeries* gs = j.find("t2.rt.gauge");
  ASSERT_NE(gs, nullptr);
  EXPECT_TRUE(bits_equal(gs->points[0].value, -0.0));
  EXPECT_TRUE(bits_equal(gs->points[1].value, 2.5));
  EXPECT_EQ(gs->rates()[0], 1.25);

  const obs::JournalSeries* ds = j.find("t2.rt.denormal");
  ASSERT_NE(ds, nullptr);
  EXPECT_TRUE(bits_equal(ds->points[0].value, 1e-310));

  // Scoped histogram series: found under its (name, scope) key, summaries
  // bit-exact.
  EXPECT_EQ(j.find("t2.rt.hist"), nullptr);
  const obs::JournalSeries* hs = j.find("t2.rt.hist", "user=7");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->kind, obs::MetricSample::Kind::kHistogram);
  EXPECT_EQ(hs->points[0].h_count, 3u);
  EXPECT_TRUE(bits_equal(hs->points[0].h_sum, 0.1 + 0.2));
  EXPECT_TRUE(bits_equal(hs->points[0].p99, 0.2 + 1e-17));
  EXPECT_TRUE(bits_equal(hs->points[1].h_sum, 0.1 + 0.2 + 40.25));
  EXPECT_EQ(hs->rates()[0], 1.0);  // 2 more samples over 2 s

  std::remove(path.c_str());
}

TEST(JournalRoundTrip, ZeroTimeDeltaYieldsZeroRate) {
  const std::string path = temp_path("odlp_t2_journal_dt0.obsf");
  obs::MetricsSnapshot s = synthetic_snapshot();
  {
    obs::JournalWriter w(path);
    w.append(s, 500);
    s.samples[0].counter += 10;
    w.append(s, 500);  // same timestamp
    w.finish();
  }
  const obs::Journal j = obs::read_journal(path);
  const obs::JournalSeries* cs = j.find("t2.rt.counter");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->rates()[0], 0.0);
  std::remove(path.c_str());
}

// --- journal: truncation / bit-flip fault matrix ---

// Six snapshots, five samples each, tiny blocks so truncation cuts inside
// snapshots and inside blocks.
std::string write_fault_journal(const std::string& name) {
  const std::string path = temp_path(name);
  io::ObsfWriter::Options wo;
  wo.block_rows = 4;
  obs::MetricsSnapshot s = synthetic_snapshot();
  obs::MetricSample extra;
  extra.kind = obs::MetricSample::Kind::kCounter;
  extra.name = "t2.rt.extra";
  s.samples.push_back(extra);
  obs::JournalWriter w(path, wo);
  for (std::uint64_t snap = 0; snap < 6; ++snap) {
    w.append(s, 1'000'000 * (snap + 1));
    s.samples[0].counter += 11;
    s.samples[4].counter += 3;
  }
  w.finish();
  return path;
}

// A recovered journal must end on a complete snapshot: every series spans
// exactly [0, snapshots) with one point per snapshot.
void expect_complete(const obs::Journal& j) {
  for (const obs::JournalSeries& ser : j.series) {
    ASSERT_EQ(ser.points.size(), j.snapshots) << ser.name;
    for (std::size_t i = 0; i < ser.points.size(); ++i) {
      EXPECT_EQ(ser.points[i].snap, i) << ser.name;
    }
  }
}

TEST(JournalFaultMatrix, TruncationStrictThrowsRecoverEndsComplete) {
  const std::string path = write_fault_journal("odlp_t2_journal_trunc.obsf");
  const std::vector<unsigned char> bytes = slurp(path);
  const std::string cut = temp_path("odlp_t2_journal_trunc_cut.obsf");

  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    spit(cut, {bytes.begin(), bytes.begin() + keep});
    EXPECT_THROW(obs::read_journal(cut), util::CorruptionError)
        << "keep=" << keep << " of " << bytes.size();

    obs::Journal j;
    try {
      j = obs::read_journal(cut, /*recover=*/true);
    } catch (const util::CorruptionError&) {
      continue;  // header/schema damage: nothing to decode against
    }
    EXPECT_TRUE(j.truncated || j.snapshots == 0u) << "keep=" << keep;
    EXPECT_LT(j.snapshots, 6u) << "keep=" << keep;
    expect_complete(j);
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(JournalFaultMatrix, BitFlipStrictThrowsRecoverNeverLies) {
  const std::string path = write_fault_journal("odlp_t2_journal_flip.obsf");
  const std::vector<unsigned char> bytes = slurp(path);
  const std::string flip = temp_path("odlp_t2_journal_flip_mut.obsf");
  const obs::Journal intact = obs::read_journal(path);
  ASSERT_EQ(intact.snapshots, 6u);

  std::mt19937 rng(20260808);
  // Every byte of the header/schema region, then a sample across the body.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    if (pos > 64 && pos % 5 != 0) continue;
    std::vector<unsigned char> mut = bytes;
    mut[pos] ^= static_cast<unsigned char>(1u << (rng() % 8));
    spit(flip, mut);
    EXPECT_THROW(obs::read_journal(flip), util::CorruptionError)
        << "pos=" << pos;

    obs::Journal j;
    try {
      j = obs::read_journal(flip, /*recover=*/true);
    } catch (const util::CorruptionError&) {
      continue;
    }
    // Recover mode may keep the intact prefix but must never return a
    // partial snapshot or data beyond the damage.
    EXPECT_LT(j.snapshots, 6u) << "pos=" << pos;
    expect_complete(j);
    // Whatever survived must match the intact journal's prefix exactly.
    for (const obs::JournalSeries& ser : j.series) {
      const obs::JournalSeries* ref = intact.find(ser.name, ser.scope);
      ASSERT_NE(ref, nullptr);
      for (std::size_t i = 0; i < ser.points.size(); ++i) {
        EXPECT_EQ(ser.points[i].counter, ref->points[i].counter)
            << ser.name << " pos=" << pos;
        EXPECT_TRUE(bits_equal(ser.points[i].value, ref->points[i].value));
        EXPECT_TRUE(bits_equal(ser.points[i].h_sum, ref->points[i].h_sum));
      }
    }
  }
  std::remove(path.c_str());
  std::remove(flip.c_str());
}

TEST(JournalFaultMatrix, WrongContainerRejected) {
  // A valid OBSF file that is not a journal must be rejected up front.
  const std::string path = temp_path("odlp_t2_journal_alien.obsf");
  io::Schema schema;
  schema.meta = "odlp.other.v1";
  schema.columns = {{"x", io::ColumnType::kU64, io::ColumnCodec::kDelta}};
  {
    io::ObsfWriter w(path, schema);
    w.append_u64(1);
    w.end_row();
    w.finish();
  }
  EXPECT_THROW(obs::read_journal(path), util::CorruptionError);
  EXPECT_THROW(obs::read_journal(path, /*recover=*/true),
               util::CorruptionError);
  std::remove(path.c_str());
}

// --- trace: concurrent multi-thread flush ---

// Reads a Chrome JSON trace and checks the stream balances: per tid, every
// E matches an open B (replayed with a depth stack), and counts are equal.
void expect_balanced_trace(const std::string& path,
                           std::size_t* events_out = nullptr) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::map<int, std::int64_t> depth;
  std::map<int, double> last_ts;
  std::size_t events = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t ph_at = line.find("\"ph\":\"");
    if (ph_at == std::string::npos) continue;
    const char ph = line[ph_at + 6];
    const std::size_t tid_at = line.find("\"tid\":");
    ASSERT_NE(tid_at, std::string::npos) << line;
    int tid = 0;
    double ts = 0.0;
    ASSERT_EQ(std::sscanf(line.c_str() + tid_at, "\"tid\":%d,\"ts\":%lf",
                          &tid, &ts),
              2)
        << line;
    ASSERT_TRUE(ph == 'B' || ph == 'E');
    if (ph == 'B') {
      ++depth[tid];
    } else {
      ASSERT_GT(depth[tid], 0) << "E without open B on tid " << tid;
      --depth[tid];
    }
    if (last_ts.count(tid)) {
      EXPECT_GE(ts, last_ts[tid]) << "time ran backwards on tid " << tid;
    }
    last_ts[tid] = ts;
    ++events;
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
  if (events_out) *events_out = events;
}

TEST(TraceConcurrent, MultiThreadFlushBalanced) {
  const std::string json = temp_path("odlp_t2_trace.json");
  obs::enable_tracing(json);

  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 3000;  // 12k events/thread, below the ring
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kSpansPerThread; ++i) {
        ODLP_TRACE_SCOPE("t2.outer");
        ODLP_TRACE_SCOPE("t2.inner");
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Flush concurrently with the recording threads: the snapshot must be
  // balanced even while spans are still being appended.
  for (int f = 0; f < 3; ++f) {
    ASSERT_TRUE(obs::flush_trace());
    expect_balanced_trace(json);
  }
  for (auto& th : threads) th.join();

  ASSERT_TRUE(obs::flush_trace());
  obs::disable_tracing();
  std::size_t events = 0;
  expect_balanced_trace(json, &events);
  EXPECT_EQ(events, static_cast<std::size_t>(kThreads) * kSpansPerThread * 4);
  EXPECT_EQ(obs::trace_dropped_count(), 0u);

  std::remove(json.c_str());
}

void ring_overflow_case(const std::string& json) {
  obs::enable_tracing(json);  // resets rings and drop counts

  const std::uint64_t reg_before =
      obs::registry().snapshot().counter_value("obs.trace.dropped.total");

  constexpr std::uint64_t kSpans = 20000;  // 40k events > 32k ring capacity
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    ODLP_TRACE_SCOPE("t2.overflow");
  }
  obs::disable_tracing();

  const std::uint64_t dropped = obs::trace_dropped_count();
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, 2 * kSpans);
  // Every drop is also visible as a registry counter (satellite b): fleet
  // dashboards see ring exhaustion without parsing trace files.
  const std::uint64_t reg_after =
      obs::registry().snapshot().counter_value("obs.trace.dropped.total");
  EXPECT_EQ(reg_after - reg_before, dropped);

  // Dropped ends are balanced synthetically at flush time.
  ASSERT_TRUE(obs::flush_trace());
  expect_balanced_trace(json);

  std::remove(json.c_str());
}

TEST(TraceDrops, RingOverflowCountsDropsAndStaysBalanced) {
  ring_overflow_case(temp_path("odlp_t2_drops.json"));
}

// The case above disables tracing and deletes its JSON. The exit flush that
// enable_tracing registered must not write that file again when the
// process ends: run the case in a child that exits normally (atexit
// handlers run), then look for the file.
TEST(TraceDrops, RingOverflowLeavesNoTraceFileAtExit) {
  const std::string json = temp_path("odlp_t2_drops.json");
  EXPECT_EXIT(
      {
        ring_overflow_case(json);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_FALSE(fs::exists(json));
  std::remove(json.c_str());
}

// --- profiler ---

TEST(Profiler, FoldedStacksNameNestedSpans) {
  obs::Profiler prof(499.0);
  prof.start();
  EXPECT_TRUE(prof.running());
  {
    ODLP_TRACE_SCOPE("t2.prof.outer");
    ODLP_TRACE_SCOPE("t2.prof.inner");
    util::Stopwatch sw;
    volatile double sink = 0.0;
    while (sw.elapsed_seconds() < 0.08) sink += 1.0;
    (void)sink;
  }
  const obs::ProfileReport rep = prof.stop();
  EXPECT_FALSE(prof.running());
  EXPECT_GT(rep.ticks, 0u);
  EXPECT_GT(rep.samples, 0u);
  EXPECT_EQ(rep.hz, 499.0);

  const auto it = rep.folded.find("t2.prof.outer;t2.prof.inner");
  ASSERT_NE(it, rep.folded.end()) << rep.folded_text();
  EXPECT_GE(it->second, 1u);
  EXPECT_NE(rep.folded_text().find("t2.prof.outer;t2.prof.inner "),
            std::string::npos);
  // The nested frame is the leaf, so it owns the self-time.
  const auto top = rep.top_self(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, "t2.prof.inner");

  // A second window over an idle process: ticks fire, nothing is sampled.
  obs::Profiler idle(499.0);
  idle.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const obs::ProfileReport quiet = idle.stop();
  EXPECT_GT(quiet.ticks, 0u);
  EXPECT_EQ(quiet.samples, 0u);
  EXPECT_EQ(quiet.idle_ticks, quiet.ticks);
}

TEST(Profiler, RejectsNonPositiveRate) {
  EXPECT_THROW(obs::Profiler(0.0), std::invalid_argument);
  EXPECT_THROW(obs::Profiler(-97.0), std::invalid_argument);
}

TEST(Profiler, WriteFoldedProducesFlamegraphInput) {
  obs::Profiler prof(499.0);
  prof.start();
  {
    ODLP_TRACE_SCOPE("t2.prof.file");
    util::Stopwatch sw;
    volatile double sink = 0.0;
    while (sw.elapsed_seconds() < 0.05) sink += 1.0;
    (void)sink;
  }
  const obs::ProfileReport rep = prof.stop();
  const std::string path = temp_path("odlp_t2_prof.folded");
  obs::write_folded(rep, path);
  const std::vector<unsigned char> raw = slurp(path);
  const std::string text(raw.begin(), raw.end());
  EXPECT_NE(text.find("t2.prof.file "), std::string::npos);
  std::remove(path.c_str());
}

// --- SLO burn-rate alerting, wired into the governor ---

TEST(SloBurn, FastBurnDrivesGovernorDownAndRecovers) {
  obs::Histogram& lat = obs::registry().histogram("t2.slo.round.us");

  obs::SloObjective obj;
  obj.name = "t2lat";
  obj.signal = obs::SloSignal::kHistogramAbove;
  obj.metric = "t2.slo.round.us";
  obj.threshold = 100.0;   // us
  obj.error_budget = 0.01;
  obj.fast_burn = 14.0;
  obj.slow_burn = 2.0;
  obj.fast_window = 3;
  obj.slow_window = 6;
  obs::SloEvaluator eval({obj});
  resil::ResourceGovernor gov;  // budgets 0: only slo_pressure drives it

  std::uint64_t ts = 0;
  const auto observe = [&] {
    ts += 1'000'000;
    eval.observe(obs::registry().snapshot(), ts);
    gov.observe({0, 0.0, eval.pressure()});
  };

  // Healthy baseline: all rounds fast, state stays kOk, governor nominal.
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < 100; ++i) lat.record(50.0);
    observe();
  }
  EXPECT_EQ(eval.status()[0].state, obs::SloState::kOk);
  EXPECT_EQ(eval.pressure(), 0.0);
  EXPECT_EQ(gov.rung(), resil::Rung::kNominal);

  // Regression: every round blows the 100 us threshold. One bad window is
  // a >= 14x burn -> fast alert -> pressure 1.0 -> the governor must leave
  // kNominal.
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 100; ++i) lat.record(5000.0);
    observe();
  }
  EXPECT_EQ(eval.status()[0].state, obs::SloState::kFastBurn);
  EXPECT_EQ(eval.pressure(), 1.0);
  EXPECT_NE(gov.rung(), resil::Rung::kNominal);
  EXPECT_GE(gov.stats().escalations, 1u);

  // The alert history is itself registry-observable.
  obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_GE(snap.counter_value("slo.t2lat.fast_burn.total"), 1u);
  EXPECT_EQ(snap.gauge_value("slo.t2lat.state"), 2.0);

  // Recovery: the regression stops. The fast window drains first (the
  // governor may still escalate while it does), then the slow window holds
  // the rung at pressure 0.75, then everything clears and the governor
  // walks back down one rung per recover_patience observations.
  for (int k = 0; k < 18; ++k) {
    for (int i = 0; i < 100; ++i) lat.record(50.0);
    observe();
  }
  EXPECT_EQ(eval.status()[0].state, obs::SloState::kOk);
  EXPECT_EQ(eval.pressure(), 0.0);
  snap = obs::registry().snapshot();
  EXPECT_GE(snap.counter_value("slo.t2lat.recovered.total"), 1u);
  EXPECT_EQ(snap.gauge_value("slo.t2lat.state"), 0.0);
  EXPECT_GE(gov.stats().recoveries, 1u);
  EXPECT_EQ(gov.rung(), resil::Rung::kNominal);
}

TEST(SloBurn, CounterRatioAndGaugeSignals) {
  obs::Counter& bad = obs::registry().counter("t2.slo.failed");
  obs::Counter& total = obs::registry().counter("t2.slo.rounds");
  obs::Gauge& quality = obs::registry().gauge("t2.slo.quality");

  obs::SloObjective ratio;
  ratio.name = "t2avail";
  ratio.signal = obs::SloSignal::kCounterRatio;
  ratio.metric = "t2.slo.failed";
  ratio.denominator = "t2.slo.rounds";
  ratio.error_budget = 0.05;
  ratio.fast_burn = 4.0;
  ratio.fast_window = 2;
  ratio.slow_window = 4;

  obs::SloObjective floor;
  floor.name = "t2qual";
  floor.signal = obs::SloSignal::kGaugeBelow;
  floor.metric = "t2.slo.quality";
  floor.threshold = 0.5;
  floor.error_budget = 0.25;
  floor.fast_burn = 3.0;
  floor.fast_window = 2;
  floor.slow_window = 4;

  obs::SloEvaluator eval({ratio, floor});
  std::uint64_t ts = 0;
  const auto observe = [&] {
    ts += 1'000'000;
    eval.observe(obs::registry().snapshot(), ts);
  };

  quality.set(0.9);
  for (int k = 0; k < 4; ++k) {
    total.inc(10);
    observe();
  }
  EXPECT_EQ(eval.status()[0].state, obs::SloState::kOk);
  EXPECT_EQ(eval.status()[1].state, obs::SloState::kOk);

  // Half the rounds start failing and quality drops through the floor.
  quality.set(0.1);
  for (int k = 0; k < 3; ++k) {
    total.inc(10);
    bad.inc(5);
    observe();
  }
  EXPECT_EQ(eval.status()[0].state, obs::SloState::kFastBurn);
  EXPECT_EQ(eval.status()[1].state, obs::SloState::kFastBurn);
  EXPECT_EQ(eval.pressure(), 1.0);
}

TEST(SloBurn, RejectsInvalidObjectives) {
  obs::SloObjective o;
  o.name = "";
  EXPECT_THROW(obs::SloEvaluator({o}), std::invalid_argument);
  o.name = "x";
  o.error_budget = 0.0;
  EXPECT_THROW(obs::SloEvaluator({o}), std::invalid_argument);
  o.error_budget = 0.01;
  o.fast_window = 0;
  EXPECT_THROW(obs::SloEvaluator({o}), std::invalid_argument);
  o.fast_window = 4;
  o.slow_window = 2;  // shorter than fast
  EXPECT_THROW(obs::SloEvaluator({o}), std::invalid_argument);
  o.slow_window = 8;
  o.signal = obs::SloSignal::kCounterRatio;
  o.denominator = "";
  EXPECT_THROW(obs::SloEvaluator({o}), std::invalid_argument);
}

// A rigged chaos fleet: an SLO on chaos.round.us that every round violates
// must escalate the per-device governors through slo_pressure alone.
TEST(SloChaos, ChaosFleetSloPressureEscalatesGovernor) {
  const std::string work = temp_path("odlp_t2_slo_chaos");
  fs::remove_all(work);
  fs::create_directories(work);

  exp::ChaosFleetConfig config;
  config.fleet.num_devices = 1;
  exp::ExperimentConfig& device = config.fleet.device_template;
  device.finetune_interval = 2;  // sets per round
  device.stream_size = 5 * device.finetune_interval;  // 5 rounds
  device.buffer_bins = 4;
  device.epochs = 1;
  config.work_dir = work;
  config.keep_last = 5 + 2;
  config.retry.sleep = false;
  // Memory/latency pressure neutralized: a huge byte budget and no
  // deadline, so only slo_pressure can move the ladder.
  config.governor.memory_budget_bytes = std::size_t{1} << 40;
  config.governor.round_deadline_ms = 0.0;
  config.supervisor.round_deadline_ms = 0.0;
  config.supervisor.max_consecutive_failures = 0;

  obs::SloObjective obj;
  obj.name = "t2chaos";
  obj.signal = obs::SloSignal::kHistogramAbove;
  obj.metric = "chaos.round.us";
  obj.threshold = 1.0;  // every real round takes >> 1 us
  obj.error_budget = 0.001;
  obj.fast_burn = 1.0;
  obj.slow_burn = 0.5;
  obj.fast_window = 1;
  obj.slow_window = 2;
  config.slos = {obj};

  const exp::ChaosFleetResult result = exp::run_chaos_fleet(config);
  ASSERT_EQ(result.devices.size(), 1u);
  // The governor saw sustained pressure 1.0 from the burning SLO.
  EXPECT_GE(result.devices[0].governor.escalations, 1u);
  EXPECT_NE(result.devices[0].final_rung, resil::Rung::kNominal);

  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_GE(snap.counter_value("slo.t2chaos.fast_burn.total"), 1u);

  fs::remove_all(work);
}

// --- Prometheus exposition lint (satellite a) ---

bool valid_prom_name(const std::string& name) {
  if (name.empty()) return false;
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    if (!ok) return false;
  }
  return !(name[0] >= '0' && name[0] <= '9');
}

TEST(PrometheusLint, ExpositionWellFormed) {
  // Populate every metric kind, including a dotted name and a scoped
  // counter, so the lint sees the full surface.
  obs::registry().counter("t2.prom.hits").inc(3);
  obs::registry().gauge("t2.prom.level").set(0.75);
  obs::registry().histogram("t2.prom.lat.us").record(123.0);
  const auto handle = obs::scoped_registry().scopes().acquire("user=prom");
  obs::scoped_registry().counter("t2.prom.scoped").inc(handle, 2);

  const std::string text =
      obs::dump_metrics(obs::full_snapshot(), obs::MetricsFormat::kPrometheus);

  std::set<std::string> typed;  // names declared by a # TYPE line
  std::size_t series_lines = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.empty()) continue;

    if (line.rfind("# TYPE ", 0) == 0 || line.rfind("# HELP ", 0) == 0) {
      // "# TYPE name kind" / "# HELP name text" — the name must be valid.
      const std::size_t start = 7;
      const std::size_t sp = line.find(' ', start);
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string name = line.substr(start, sp - start);
      EXPECT_TRUE(valid_prom_name(name)) << line;
      if (line.rfind("# TYPE ", 0) == 0) typed.insert(name);
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;

    // Series line: name[{labels}] value
    ++series_lines;
    std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(0, name_end);
    EXPECT_TRUE(valid_prom_name(name)) << line;
    EXPECT_EQ(name.find('.'), std::string::npos) << line;

    std::size_t value_at;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      ASSERT_NE(close, std::string::npos) << line;
      ASSERT_EQ(line[close + 1], ' ') << line;
      value_at = close + 2;
      // Label block must be key="value" pairs — count quotes and equals.
      const std::string labels = line.substr(name_end + 1, close - name_end - 1);
      EXPECT_NE(labels.find('='), std::string::npos) << line;
    } else {
      value_at = name_end + 1;
    }
    const std::string value = line.substr(value_at);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;

    // Every series rides under a # TYPE declaration (histograms declare the
    // base name; _bucket/_sum/_count/_total extend it).
    bool declared = false;
    for (const std::string& t : typed) {
      if (name == t || (name.size() > t.size() && name.rfind(t, 0) == 0)) {
        declared = true;
        break;
      }
    }
    EXPECT_TRUE(declared) << "series without # TYPE: " << line;
  }
  EXPECT_GT(series_lines, 0u);

  // Spot checks: counter suffix, scope label, histogram series, and the
  // raw dotted names never leak.
  EXPECT_NE(text.find("t2_prom_hits_total 3"), std::string::npos);
  EXPECT_NE(text.find("t2_prom_scoped_total{scope=\"user=prom\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("t2_prom_lat_us_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_EQ(text.find("t2.prom"), std::string::npos);
}

}  // namespace
}  // namespace odlp
