#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>
#include <time.h>

#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace perfbench {

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

odlp::core::Decision TimedPolicy::offer(const odlp::core::Candidate& candidate,
                                        const odlp::core::DataBuffer& buffer,
                                        odlp::util::Rng& rng) {
  last_offer_cpu_ = cpu_now();
  const auto start = Clock::now();
  odlp::core::Decision d = inner_->offer(candidate, buffer, rng);
  offer_us_.add(seconds_since(start) * 1e6);
  return d;
}

odlp::tensor::Tensor TimedExtractor::token_embeddings(
    const std::vector<std::string>& words) {
  const double start = cpu_now();
  odlp::tensor::Tensor t = inner_.token_embeddings(words);
  pending_ += cpu_now() - start;
  return t;
}

std::vector<odlp::data::DialogueSet> TimedSynthesizer::synthesize(
    const odlp::data::DialogueSet& original, std::size_t count,
    odlp::core::SynthesisStats* stats) {
  const double start = cpu_now();
  std::vector<odlp::data::DialogueSet> out =
      inner_->synthesize(original, count, stats);
  pending_ += cpu_now() - start;
  return out;
}

void BucketCounts::add(const BucketCounts& o) {
  if (o.counts.empty()) return;
  if (counts.empty()) {
    *this = o;
    return;
  }
  for (std::size_t i = 0; i < counts.size() && i < o.counts.size(); ++i) {
    counts[i] += o.counts[i];
  }
  count += o.count;
}

double bucket_quantile(const BucketCounts& h, double q) {
  if (h.count <= 0.0 || h.bounds.empty()) return 0.0;
  const double rank = q * h.count;
  double below = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] > 0.0 && below + h.counts[i] >= rank) {
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      const double hi = i < h.bounds.size() ? h.bounds[i] : h.bounds.back();
      return lo + (hi - lo) * (rank - below) / h.counts[i];
    }
    below += h.counts[i];
  }
  return h.bounds.back();
}

double RegistryDelta::counter(const std::string& name) const {
  return static_cast<double>(after_.counter_value(name)) -
         static_cast<double>(before_.counter_value(name));
}

double RegistryDelta::hist_sum(const std::string& name) const {
  return after_.histogram_sum(name) - before_.histogram_sum(name);
}

double RegistryDelta::hist_count(const std::string& name) const {
  const auto* a = after_.find(name);
  const auto* b = before_.find(name);
  const double ca = a ? static_cast<double>(a->hist.count) : 0.0;
  const double cb = b ? static_cast<double>(b->hist.count) : 0.0;
  return ca - cb;
}

BucketCounts RegistryDelta::buckets(const std::string& name) const {
  BucketCounts out;
  const auto* a = after_.find(name);
  if (!a) return out;
  const auto* b = before_.find(name);
  out.bounds = a->bounds;
  for (std::size_t i = 0; i < a->buckets.size(); ++i) {
    const double before =
        b && i < b->buckets.size() ? static_cast<double>(b->buckets[i]) : 0.0;
    out.counts.push_back(static_cast<double>(a->buckets[i]) - before);
    out.count += out.counts.back();
  }
  return out;
}

double RegistryDelta::counter_family(const std::string& prefix,
                                     const std::string& suffix) const {
  double total = 0.0;
  for (const auto& s : after_.samples) {
    if (s.kind != odlp::obs::MetricSample::Kind::kCounter || !s.scope.empty())
      continue;
    const std::string& n = s.name;
    if (n.size() < prefix.size() + suffix.size()) continue;
    if (n.compare(0, prefix.size(), prefix) != 0) continue;
    if (n.compare(n.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    total += counter(n);
  }
  return total;
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void Result::e2e(const std::string& name, const std::string& unit,
                 double value, std::size_t samples, const std::string& basis) {
  end_to_end.push_back({name, unit, value, false, basis, samples});
}

void Result::layer(const std::string& name, const std::string& unit,
                   double value, bool exact, const std::string& basis,
                   std::size_t samples) {
  per_layer.push_back({name, unit, value, exact, basis, samples});
}

std::vector<std::pair<std::string, std::string>> host_info() {
  const odlp::tensor::KernelBuildInfo k = odlp::tensor::kernel_build_info();
  std::vector<std::pair<std::string, std::string>> info;
  info.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  info.emplace_back("pool_lanes",
                    std::to_string(odlp::util::ThreadPool::global().lanes()));
  info.emplace_back("simd_level", k.simd_level);
  info.emplace_back("fp32_kernel", k.variant);
  info.emplace_back("int8_kernel", k.int8_variant);
  info.emplace_back("int8_block", std::to_string(k.int8_block));
  info.emplace_back("native_arch", k.native_arch ? "true" : "false");
  std::string model;
  std::ifstream cpu("/proc/cpuinfo");
  for (std::string line; std::getline(cpu, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  info.emplace_back("cpu", model.empty() ? "unknown" : model);
  return info;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void make_empty_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
