#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>

#include "io/obsf.h"
#include "obs/scope.h"
#include "util/atomic_file.h"

namespace odlp::obs {

namespace {

void atomic_add_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Prometheus metric names use underscores; ours use dots. Anything outside
// [a-zA-Z0-9_:] is mapped to '_' so an arbitrary registry name is always a
// legal exposition-format identifier. Unit convention: our `.us`/`.bytes`
// suffixes become `_us`/`_bytes` by the same mapping; counters additionally
// get the `_total` suffix (added by the caller when missing).
std::string prometheus_name(const std::string& name) {
  std::string out = "odlp_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// Label values escape backslash, double quote, and newline per the
// exposition format.
std::string prometheus_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// {scope="..."} label set for a scoped sample, "" for unscoped; `extra` is
// spliced as an additional label (the histogram `le`).
std::string prometheus_labels(const std::string& scope,
                              const std::string& extra = std::string()) {
  std::string inner;
  if (!scope.empty()) inner += "scope=\"" + prometheus_label_value(scope) + "\"";
  if (!extra.empty()) {
    if (!inner.empty()) inner += ",";
    inner += extra;
  }
  return inner.empty() ? std::string() : "{" + inner + "}";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: bounds must be non-empty");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("Histogram: bounds must be ascending");
    }
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::record(double v) {
  const std::size_t b =
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t prev = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
  if (prev == 0) {
    // First sample seeds min/max; racing first samples both fall through to
    // the CAS min/max below, which is order-insensitive.
    double zero = 0.0;
    min_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
    zero = 0.0;
    max_.compare_exchange_strong(zero, v, std::memory_order_relaxed);
  }
  atomic_min_double(min_, v);
  atomic_max_double(max_, v);
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double lo_clamp = min_.load(std::memory_order_relaxed);
  const double hi_clamp = max_.load(std::memory_order_relaxed);
  // Rank of the q-th sample (1-based, ceil), then walk the buckets.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * double(n) + 0.5));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b <= bounds_.size(); ++b) {
    const std::uint64_t in_bucket = bucket_count(b);
    if (in_bucket == 0) continue;
    if (cum + in_bucket >= rank) {
      const double lo = (b == 0) ? lo_clamp : bounds_[b - 1];
      const double hi = (b == bounds_.size()) ? hi_clamp : bounds_[b];
      const double frac = double(rank - cum) / double(in_bucket);
      const double v = lo + (hi - lo) * frac;
      return std::min(hi_clamp, std::max(lo_clamp, v));
    }
    cum += in_bucket;
  }
  return hi_clamp;
}

Histogram::Summary Histogram::summary() const {
  Summary s;
  s.count = count();
  s.sum = sum();
  if (s.count > 0) {
    s.mean = s.sum / double(s.count);
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    s.p50 = quantile(0.50);
    s.p95 = quantile(0.95);
    s.p99 = quantile(0.99);
  }
  return s;
}

void Histogram::absorb(Histogram& src) {
  if (src.bounds_ != bounds_) {
    throw std::logic_error("Histogram::absorb: bounds differ");
  }
  if (&src == this) return;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].fetch_add(src.buckets_[i].exchange(0, std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  const std::uint64_t n = src.count_.exchange(0, std::memory_order_relaxed);
  const double sum = src.sum_.exchange(0.0, std::memory_order_relaxed);
  const double lo = src.min_.exchange(0.0, std::memory_order_relaxed);
  const double hi = src.max_.exchange(0.0, std::memory_order_relaxed);
  if (n == 0) return;
  const std::uint64_t prev = count_.fetch_add(n, std::memory_order_relaxed);
  atomic_add_double(sum_, sum);
  if (prev == 0) {
    // Destination was empty: seed min/max from the source (same CAS-from-
    // zero idiom as record()).
    double zero = 0.0;
    min_.compare_exchange_strong(zero, lo, std::memory_order_relaxed);
    zero = 0.0;
    max_.compare_exchange_strong(zero, hi, std::memory_order_relaxed);
  }
  atomic_min_double(min_, lo);
  atomic_max_double(max_, hi);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& default_us_bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
      b.push_back(decade);
      b.push_back(decade * 2.0);
      b.push_back(decade * 5.0);
    }
    b.push_back(1e7);  // 10 s
    return b;
  }();
  return bounds;
}

const MetricSample* MetricsSnapshot::find(const std::string& name) const {
  return find_scoped(name, std::string());
}

const MetricSample* MetricsSnapshot::find_scoped(
    const std::string& name, const std::string& scope) const {
  for (const auto& s : samples) {
    if (s.name == name && s.scope == scope) return &s;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  const MetricSample* s = find(name);
  return s ? s->counter : 0;
}

double MetricsSnapshot::gauge_value(const std::string& name) const {
  const MetricSample* s = find(name);
  return s ? s->gauge : 0.0;
}

double MetricsSnapshot::histogram_sum(const std::string& name) const {
  const MetricSample* s = find(name);
  return s ? s->hist.sum : 0.0;
}

// Registered metrics are keyed by name in node-stable maps: a Counter& /
// Gauge& / Histogram& handed out once stays valid for the process lifetime.
struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;

  void check_unique(const std::string& name, const char* wanted_kind) {
    // Called with mutex held, before inserting `name` as `wanted_kind`.
    const bool clash =
        (counters.count(name) && std::string(wanted_kind) != "counter") ||
        (gauges.count(name) && std::string(wanted_kind) != "gauge") ||
        (histograms.count(name) && std::string(wanted_kind) != "histogram");
    if (clash) {
      throw std::logic_error("metrics: '" + name +
                             "' already registered as a different kind");
    }
  }
};

Registry::Impl& Registry::impl() const {
  static Impl instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    im.check_unique(name, "counter");
    it = im.counters.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  auto it = im.gauges.find(name);
  if (it == im.gauges.end()) {
    im.check_unique(name, "gauge");
    it = im.gauges.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(const std::string& name) {
  return histogram(name, default_us_bounds());
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    im.check_unique(name, "histogram");
    it = im.histograms
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  MetricsSnapshot snap;
  for (const auto& [name, c] : im.counters) {
    MetricSample s;
    s.kind = MetricSample::Kind::kCounter;
    s.name = name;
    s.counter = c->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : im.gauges) {
    MetricSample s;
    s.kind = MetricSample::Kind::kGauge;
    s.name = name;
    s.gauge = g->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, h] : im.histograms) {
    MetricSample s;
    s.kind = MetricSample::Kind::kHistogram;
    s.name = name;
    s.hist = h->summary();
    s.bounds = h->bounds();
    s.buckets.resize(h->num_buckets());
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      s.buckets[b] = h->bucket_count(b);
    }
    snap.samples.push_back(std::move(s));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return snap;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

void Registry::restore(const MetricsSnapshot& snap) {
  for (const auto& s : snap.samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter: {
        Counter& c = counter(s.name);
        c.reset();
        c.inc(s.counter);
        break;
      }
      case MetricSample::Kind::kGauge:
        gauge(s.name).set(s.gauge);
        break;
      case MetricSample::Kind::kHistogram: {
        // Bucket counts restore exactly; min/max/quantile edges are rebuilt
        // approximately by replaying one representative value per bucket.
        Histogram& h = histogram(s.name, s.bounds);
        if (h.bounds() != s.bounds) break;  // geometry changed: skip
        h.reset();
        for (std::size_t b = 0; b < s.buckets.size() && b <= s.bounds.size();
             ++b) {
          if (s.buckets[b] == 0) continue;
          const double lo = (b == 0) ? s.hist.min : s.bounds[b - 1];
          const double hi = (b == s.bounds.size()) ? s.hist.max : s.bounds[b];
          const double rep = std::min(std::max((lo + hi) * 0.5, s.hist.min),
                                      s.hist.max);
          for (std::uint64_t k = 0; k < s.buckets[b]; ++k) h.record(rep);
        }
        break;
      }
    }
  }
}

Registry& registry() {
  static Registry instance;
  return instance;
}

std::string dump_metrics(MetricsFormat format) {
  // Scoped-inclusive: exports carry per-user series; only the binary
  // save_metrics persistence path stays unscoped.
  return dump_metrics(full_snapshot(), format);
}

namespace {

std::string json_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string dump_metrics(const MetricsSnapshot& snap, MetricsFormat format) {
  std::string out;
  if (format == MetricsFormat::kJson) {
    out = "{\n";
    bool first = true;
    for (const auto& s : snap.samples) {
      if (!first) out += ",\n";
      first = false;
      // Scoped samples get a distinct key: "name{scope}".
      const std::string key =
          s.scope.empty() ? s.name : s.name + "{" + s.scope + "}";
      out += "  \"" + json_escape(key) + "\": ";
      switch (s.kind) {
        case MetricSample::Kind::kCounter:
          out += std::to_string(s.counter);
          break;
        case MetricSample::Kind::kGauge:
          out += format_double(s.gauge);
          break;
        case MetricSample::Kind::kHistogram:
          out += "{\"count\": " + std::to_string(s.hist.count) +
                 ", \"sum\": " + format_double(s.hist.sum) +
                 ", \"mean\": " + format_double(s.hist.mean) +
                 ", \"min\": " + format_double(s.hist.min) +
                 ", \"max\": " + format_double(s.hist.max) +
                 ", \"p50\": " + format_double(s.hist.p50) +
                 ", \"p95\": " + format_double(s.hist.p95) +
                 ", \"p99\": " + format_double(s.hist.p99) + "}";
          break;
      }
    }
    out += "\n}\n";
  } else {
    // Exposition format: one # HELP + # TYPE pair per metric name (emitted
    // before that metric's first sample; scoped samples of the same metric
    // follow as additional {scope="..."} series). Counters carry the
    // `_total` unit suffix; `.us`/`.bytes` registry suffixes map to
    // `_us`/`_bytes` via prometheus_name.
    std::string last_announced;
    for (const auto& s : snap.samples) {
      std::string pname = prometheus_name(s.name);
      if (s.kind == MetricSample::Kind::kCounter &&
          (pname.size() < 6 ||
           pname.compare(pname.size() - 6, 6, "_total") != 0)) {
        pname += "_total";
      }
      if (pname != last_announced) {
        const char* type = s.kind == MetricSample::Kind::kCounter ? "counter"
                           : s.kind == MetricSample::Kind::kGauge
                               ? "gauge"
                               : "histogram";
        // The registry's dotted name, sanitized: raw dotted names must not
        // appear anywhere in the exposition (they would read as new series
        // to a strict scraper and trip the format lint).
        out += "# HELP " + pname + " odlp registry metric " +
               prometheus_name(s.name) + "\n";
        out += "# TYPE " + pname + " " + type + "\n";
        last_announced = pname;
      }
      switch (s.kind) {
        case MetricSample::Kind::kCounter:
          out += pname + prometheus_labels(s.scope) + " " +
                 std::to_string(s.counter) + "\n";
          break;
        case MetricSample::Kind::kGauge:
          out += pname + prometheus_labels(s.scope) + " " +
                 format_double(s.gauge) + "\n";
          break;
        case MetricSample::Kind::kHistogram: {
          std::uint64_t cum = 0;
          for (std::size_t b = 0; b < s.buckets.size(); ++b) {
            cum += s.buckets[b];
            const std::string le =
                (b < s.bounds.size()) ? format_double(s.bounds[b]) : "+Inf";
            out += pname + "_bucket" +
                   prometheus_labels(s.scope, "le=\"" + le + "\"") + " " +
                   std::to_string(cum) + "\n";
          }
          out += pname + "_sum" + prometheus_labels(s.scope) + " " +
                 format_double(s.hist.sum) + "\n";
          out += pname + "_count" + prometheus_labels(s.scope) + " " +
                 std::to_string(s.hist.count) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

void write_metrics_json(const std::string& path) {
  const std::string body = dump_metrics(MetricsFormat::kJson);
  util::AtomicFileWriter out(path);
  out.write(body.data(), body.size());
  out.commit();
}

namespace {

constexpr std::uint32_t kMaxMetricNameLen = 256;
constexpr std::uint32_t kMaxHistogramBuckets = 4096;

constexpr const char* kMetricsObsfMeta = "odlp.metrics.v1";

// Histogram state as an opaque per-row blob inside the OBSF "hist" column:
// u32 nbounds, nbounds f64 bounds, nbounds+1 u64 buckets, u64 count,
// f64 sum/min/max. Counters and gauges leave it empty.
std::vector<std::uint8_t> pack_histogram(const MetricSample& s) {
  std::vector<std::uint8_t> blob;
  auto put = [&blob](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    blob.insert(blob.end(), b, b + n);
  };
  const auto nbounds = static_cast<std::uint32_t>(s.bounds.size());
  put(&nbounds, sizeof(nbounds));
  for (double b : s.bounds) put(&b, sizeof(b));
  for (std::uint64_t c : s.buckets) put(&c, sizeof(c));
  put(&s.hist.count, sizeof(s.hist.count));
  put(&s.hist.sum, sizeof(s.hist.sum));
  put(&s.hist.min, sizeof(s.hist.min));
  put(&s.hist.max, sizeof(s.hist.max));
  return blob;
}

void unpack_histogram(const std::string& blob, MetricSample& s) {
  util::ByteReader in(reinterpret_cast<const unsigned char*>(blob.data()),
                      blob.size(), "metrics histogram");
  const auto nbounds = in.pod<std::uint32_t>();
  if (nbounds == 0 || nbounds > kMaxHistogramBuckets) {
    throw util::CorruptionError("metrics: bad bucket count");
  }
  s.bounds.resize(nbounds);
  for (auto& b : s.bounds) b = in.pod<double>();
  s.buckets.resize(nbounds + 1);
  for (auto& c : s.buckets) c = in.pod<std::uint64_t>();
  s.hist.count = in.pod<std::uint64_t>();
  s.hist.sum = in.pod<double>();
  s.hist.min = in.pod<double>();
  s.hist.max = in.pod<double>();
  if (s.hist.count > 0) s.hist.mean = s.hist.sum / double(s.hist.count);
  if (in.remaining() != 0) {
    throw util::CorruptionError("metrics: trailing histogram bytes");
  }
}

}  // namespace

void save_metrics(const MetricsSnapshot& snap, const std::string& path) {
  io::Schema schema;
  schema.meta = kMetricsObsfMeta;
  schema.columns = {
      {"name", io::ColumnType::kBytes, io::ColumnCodec::kFlat},
      {"kind", io::ColumnType::kU8, io::ColumnCodec::kZoH},
      {"counter", io::ColumnType::kU64, io::ColumnCodec::kFlat},
      {"gauge", io::ColumnType::kF64, io::ColumnCodec::kZoH},
      {"hist", io::ColumnType::kBytes, io::ColumnCodec::kFlat},
  };
  io::ObsfWriter w(path, schema);
  for (const auto& s : snap.samples) {
    // The persistence format is deliberately unscoped (fixed 5-column
    // schema, restored across reboots); scoped samples are journal/export
    // only and are skipped here.
    if (!s.scope.empty()) continue;
    w.append_bytes(s.name);
    w.append_u8(static_cast<std::uint8_t>(s.kind));
    w.append_u64(s.kind == MetricSample::Kind::kCounter ? s.counter : 0);
    w.append_f64(s.kind == MetricSample::Kind::kGauge ? s.gauge : 0.0);
    if (s.kind == MetricSample::Kind::kHistogram) {
      const std::vector<std::uint8_t> blob = pack_histogram(s);
      w.append_bytes(std::string_view(
          reinterpret_cast<const char*>(blob.data()), blob.size()));
    } else {
      w.append_bytes("");
    }
    w.end_row();
  }
  w.finish();
}

MetricsSnapshot load_metrics(const std::string& path) {
  io::ObsfReader r(path);
  if (r.schema().meta != kMetricsObsfMeta ||
      r.schema().columns.size() != 5) {
    throw util::CorruptionError("metrics: not a metrics container: " + path);
  }
  MetricsSnapshot snap;
  while (r.next_block()) {
    for (std::size_t k = 0; k < r.rows(); ++k) {
      MetricSample s;
      const std::uint8_t kind = r.col_u8(1)[k];
      if (kind > 2) throw util::CorruptionError("metrics: bad sample kind");
      s.kind = static_cast<MetricSample::Kind>(kind);
      s.name = r.col_bytes(0)[k];
      if (s.name.empty() || s.name.size() > kMaxMetricNameLen) {
        throw util::CorruptionError("metrics: bad name length");
      }
      s.counter = r.col_u64(2)[k];
      s.gauge = r.col_f64(3)[k];
      if (s.kind == MetricSample::Kind::kHistogram) {
        unpack_histogram(r.col_bytes(4)[k], s);
      }
      snap.samples.push_back(std::move(s));
    }
  }
  return snap;
}

}  // namespace odlp::obs
