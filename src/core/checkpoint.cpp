#include "core/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "core/buffer_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/vocab_io.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace fs = std::filesystem;

namespace odlp::core {

namespace {

constexpr std::uint32_t kManifestMagic = 0x464d444fu;  // "ODMF"
constexpr std::uint32_t kManifestVersion = 1;
constexpr std::uint32_t kStatsMagic = 0x5453444fu;  // "ODST"
// v2 appended finetune_skipped (the governor's kSkipFinetune counter); v1
// files are rejected.
constexpr std::uint32_t kStatsVersion = 2;

// Component files covered by the manifest, in write order.
const char* const kComponents[] = {"model.bin", "buffer.bin", "vocab.txt",
                                   "stats.bin", "metrics.bin"};
constexpr std::size_t kNumComponents = 5;

std::string gen_dir_name(std::uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "gen-%06" PRIu64, generation);
  return buf;
}

// Parses "gen-NNNNNN"; nullopt for anything else.
std::optional<std::uint64_t> parse_gen_dir(const std::string& name) {
  if (name.rfind("gen-", 0) != 0 || name.size() <= 4) return std::nullopt;
  std::uint64_t value = 0;
  for (std::size_t i = 4; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return value;
}

struct ManifestEntry {
  std::string name;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

}  // namespace

void save_engine_stats(const EngineStats& stats, const std::string& path) {
  util::AtomicFileWriter out(path);
  out.write_pod(kStatsMagic);
  out.write_pod(kStatsVersion);
  out.write_pod<std::uint64_t>(stats.seen);
  out.write_pod<std::uint64_t>(stats.admitted_free);
  out.write_pod<std::uint64_t>(stats.admitted_replacing);
  out.write_pod<std::uint64_t>(stats.rejected);
  out.write_pod<std::uint64_t>(stats.quarantined);
  out.write_pod<std::uint64_t>(stats.annotations_made);
  out.write_pod<std::uint64_t>(stats.annotations_skipped);
  out.write_pod<std::uint64_t>(stats.finetune_rounds);
  out.write_pod<std::uint64_t>(stats.synthesis.generated);
  out.write_pod<std::uint64_t>(stats.synthesis.accepted);
  out.write_pod<std::uint64_t>(stats.synthesized_used);
  out.write_pod<double>(stats.last_train_loss);
  out.write_pod<std::uint64_t>(stats.finetune_skipped);
  out.write_footer();
  out.commit();
}

EngineStats load_engine_stats(const std::string& path) {
  const std::vector<unsigned char> bytes = util::read_file(path);
  const std::size_t body_end = util::check_footer(bytes, "engine_stats");
  util::ByteReader in(bytes.data(), body_end, "engine_stats");
  if (in.pod<std::uint32_t>() != kStatsMagic) {
    throw util::CorruptionError("engine_stats: bad magic");
  }
  if (in.pod<std::uint32_t>() != kStatsVersion) {
    throw util::CorruptionError("engine_stats: unsupported version");
  }
  EngineStats stats;
  stats.seen = in.pod<std::uint64_t>();
  stats.admitted_free = in.pod<std::uint64_t>();
  stats.admitted_replacing = in.pod<std::uint64_t>();
  stats.rejected = in.pod<std::uint64_t>();
  stats.quarantined = in.pod<std::uint64_t>();
  stats.annotations_made = in.pod<std::uint64_t>();
  stats.annotations_skipped = in.pod<std::uint64_t>();
  stats.finetune_rounds = in.pod<std::uint64_t>();
  stats.synthesis.generated = in.pod<std::uint64_t>();
  stats.synthesis.accepted = in.pod<std::uint64_t>();
  stats.synthesized_used = in.pod<std::uint64_t>();
  stats.last_train_loss = in.pod<double>();
  stats.finetune_skipped = in.pod<std::uint64_t>();
  return stats;
}

CheckpointManager::CheckpointManager(std::string dir, std::size_t keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last == 0 ? 1 : keep_last) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("checkpoint: cannot create directory " + dir_ +
                             ": " + ec.message());
  }
}

CheckpointContents CheckpointManager::contents_for(
    std::uint64_t generation) const {
  CheckpointContents c;
  c.generation = generation;
  c.dir = dir_ + "/" + gen_dir_name(generation);
  c.model_path = c.dir + "/model.bin";
  c.buffer_path = c.dir + "/buffer.bin";
  c.vocab_path = c.dir + "/vocab.txt";
  c.stats_path = c.dir + "/stats.bin";
  c.metrics_path = c.dir + "/metrics.bin";
  return c;
}

std::vector<std::uint64_t> CheckpointManager::generations() const {
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_directory()) continue;
    if (const auto gen = parse_gen_dir(entry.path().filename().string())) {
      gens.push_back(*gen);
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

void CheckpointManager::write_manifest(const CheckpointContents& c) const {
  std::vector<ManifestEntry> entries;
  entries.reserve(kNumComponents);
  for (const char* name : kComponents) {
    ManifestEntry e;
    e.name = name;
    const std::vector<unsigned char> bytes =
        util::read_file(c.dir + "/" + e.name);
    e.size = bytes.size();
    e.crc = util::crc32(bytes.data(), bytes.size());
    entries.push_back(std::move(e));
  }
  util::AtomicFileWriter out(c.dir + "/MANIFEST");
  out.write_pod(kManifestMagic);
  out.write_pod(kManifestVersion);
  out.write_pod<std::uint64_t>(c.generation);
  out.write_pod<std::uint32_t>(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    out.write_pod<std::uint32_t>(static_cast<std::uint32_t>(e.name.size()));
    out.write(e.name.data(), e.name.size());
    out.write_pod<std::uint64_t>(e.size);
    out.write_pod<std::uint32_t>(e.crc);
  }
  out.write_footer();
  out.commit();
}

bool CheckpointManager::verify_generation(const CheckpointContents& c) const {
  const std::string manifest_path = c.dir + "/MANIFEST";
  try {
    const std::vector<unsigned char> bytes = util::read_file(manifest_path);
    const std::size_t body_end = util::check_footer(bytes, "manifest");
    util::ByteReader in(bytes.data(), body_end, "manifest");
    if (in.pod<std::uint32_t>() != kManifestMagic) {
      throw util::CorruptionError("manifest: bad magic");
    }
    if (in.pod<std::uint32_t>() != kManifestVersion) {
      throw util::CorruptionError("manifest: unsupported version");
    }
    if (in.pod<std::uint64_t>() != c.generation) {
      throw util::CorruptionError("manifest: generation number mismatch");
    }
    const auto nfiles = in.pod<std::uint32_t>();
    if (nfiles != kNumComponents) {
      throw util::CorruptionError("manifest: unexpected file count");
    }
    for (const std::string name : kComponents) {
      const auto name_len = in.pod<std::uint32_t>();
      if (name_len > 256 || in.str(name_len) != name) {
        throw util::CorruptionError("manifest: unexpected component name");
      }
      const auto expect_size = in.pod<std::uint64_t>();
      const auto expect_crc = in.pod<std::uint32_t>();
      const std::vector<unsigned char> file =
          util::read_file(c.dir + "/" + name);
      if (file.size() != expect_size) {
        throw util::CorruptionError("manifest: " + name + " size mismatch");
      }
      if (util::crc32(file.data(), file.size()) != expect_crc) {
        throw util::CorruptionError("manifest: " + name + " CRC mismatch");
      }
    }
    return true;
  } catch (const std::exception& e) {
    util::log_warn("checkpoint: skipping generation " +
                   std::to_string(c.generation) + " (" + e.what() + ")");
    return false;
  }
}

std::uint64_t CheckpointManager::save(llm::MiniLlm& model,
                                      const DataBuffer& buffer,
                                      const text::Vocab& vocab,
                                      const EngineStats& stats) {
  util::fault::on_task("ckpt.save");
  ODLP_TRACE_SCOPE("ckpt.save");
  static obs::Counter& c_saves = obs::registry().counter("ckpt.saves.total");
  static obs::Histogram& h_save = obs::registry().histogram("ckpt.save_us");
  util::Stopwatch sw;
  const std::vector<std::uint64_t> existing = generations();
  const std::uint64_t generation = existing.empty() ? 1 : existing.back() + 1;
  const CheckpointContents c = contents_for(generation);
  std::error_code ec;
  fs::create_directories(c.dir, ec);
  if (ec) {
    throw std::runtime_error("checkpoint: cannot create " + c.dir + ": " +
                             ec.message());
  }
  // Component files first (each atomic on its own), manifest strictly last:
  // a crash anywhere in between leaves a manifest-less directory that
  // restore() ignores. With a retry policy installed, each component write
  // is its own retry scope — a transient fault re-runs just that file.
  const auto step = [&](const char* op, auto&& fn) {
    if (retry_) {
      retry_->run(op, fn);
    } else {
      fn();
    }
  };
  step("ckpt.save.model", [&] { model.save(c.model_path); });
  step("ckpt.save.buffer", [&] { save_buffer(buffer, c.buffer_path); });
  step("ckpt.save.vocab", [&] { text::save_vocab(vocab, c.vocab_path); });
  step("ckpt.save.stats", [&] { save_engine_stats(stats, c.stats_path); });
  step("ckpt.save.metrics",
       [&] { obs::save_metrics(obs::registry().snapshot(), c.metrics_path); });
  step("ckpt.save.manifest", [&] { write_manifest(c); });
  prune();
  c_saves.inc();
  h_save.record(sw.elapsed_seconds() * 1e6);
  return generation;
}

std::optional<CheckpointContents> CheckpointManager::newest_valid() const {
  std::vector<std::uint64_t> gens = generations();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const CheckpointContents c = contents_for(*it);
    if (verify_generation(c)) return c;
  }
  return std::nullopt;
}

std::optional<CheckpointManager::Restored> CheckpointManager::restore(
    llm::MiniLlm& model) const {
  ODLP_TRACE_SCOPE("ckpt.restore");
  static obs::Counter& c_restores =
      obs::registry().counter("ckpt.restores.total");
  std::vector<std::uint64_t> gens = generations();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const CheckpointContents c = contents_for(*it);
    if (!verify_generation(c)) continue;
    try {
      const auto load_generation = [&]() -> Restored {
        Restored r;
        r.generation = c.generation;
        model.load(c.model_path);
        r.buffer = load_buffer(c.buffer_path);
        r.vocab = text::load_vocab(c.vocab_path);
        r.stats = load_engine_stats(c.stats_path);
        // Re-import the persisted registry snapshot so cumulative counters
        // and timings continue across the reboot.
        obs::registry().restore(obs::load_metrics(c.metrics_path));
        return r;
      };
      // Under a retry policy, transient read faults re-run this generation's
      // load; corruption stays terminal and falls through to older ones.
      Restored r =
          retry_ ? retry_->run("ckpt.restore", load_generation)
                 : load_generation();
      c_restores.inc();
      return r;
    } catch (const std::exception& e) {
      // CRCs passed but the content is unusable (e.g. the model geometry
      // changed between save and restore) — fall back to an older
      // generation rather than crashing the device.
      util::log_warn("checkpoint: generation " + std::to_string(c.generation) +
                     " verified but failed to restore (" + e.what() + ")");
    }
  }
  return std::nullopt;
}

std::uint64_t CheckpointManager::generation_bytes(
    std::uint64_t generation) const {
  const CheckpointContents c = contents_for(generation);
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(c.dir, ec)) {
    if (entry.is_regular_file()) {
      total += static_cast<std::uint64_t>(entry.file_size(ec));
    }
  }
  return total;
}

void CheckpointManager::prune() const {
  std::vector<std::uint64_t> gens = generations();
  if (gens.size() <= keep_last_) return;
  for (std::size_t i = 0; i + keep_last_ < gens.size(); ++i) {
    std::error_code ec;
    fs::remove_all(contents_for(gens[i]).dir, ec);
    if (ec) {
      util::log_warn("checkpoint: failed to prune generation " +
                     std::to_string(gens[i]) + ": " + ec.message());
    }
  }
}

}  // namespace odlp::core
