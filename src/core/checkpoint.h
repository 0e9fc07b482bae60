// CheckpointManager: crash-safe, generation-numbered persistence of all
// on-device personalization state (DESIGN.md §7).
//
// The paper's entire training state is the selection buffer plus the LoRA
// adapter — both bought with scarce user annotations — so losing either to
// a power cut or flash bit rot restarts personalization from zero. The
// manager snapshots model weights, buffer, vocabulary, engine stats, and an
// obs metrics-registry snapshot into a directory per generation:
//
//   <dir>/gen-000007/{model.bin, buffer.bin, vocab.txt, stats.bin,
//                     metrics.bin, MANIFEST}
//
// Every component file carries its own checksum (a CRC footer, trailer, or
// per-block CRCs); the MANIFEST additionally records each of the five
// files' size and CRC and is written *last*, atomically — a generation
// without a valid five-entry manifest never existed (older four-entry
// manifests from before metrics.bin are skipped like corrupt ones).
// restore() walks generations newest-first and returns the first one whose
// manifest and files all verify; torn, truncated, or bit-flipped
// generations are skipped with a log_warn, never a crash. save() prunes to
// the newest `keep_last` generations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/engine.h"
#include "llm/minillm.h"
#include "resil/retry.h"
#include "text/vocab.h"

namespace odlp::core {

// Resolved component paths of one on-disk generation.
struct CheckpointContents {
  std::uint64_t generation = 0;
  std::string dir;
  std::string model_path;
  std::string buffer_path;
  std::string vocab_path;
  std::string stats_path;
  std::string metrics_path;
};

// Persistable subset of EngineStats. Wall-clock timings live in the obs
// metrics registry, which is checkpointed alongside (metrics.bin), so
// cumulative counters/timings survive reboots too.
void save_engine_stats(const EngineStats& stats, const std::string& path);
EngineStats load_engine_stats(const std::string& path);

class CheckpointManager {
 public:
  // `dir` is created if absent. `keep_last` bounds how many generations
  // survive pruning (>= 1).
  explicit CheckpointManager(std::string dir, std::size_t keep_last = 3);

  const std::string& dir() const { return dir_; }

  // Opt-in self-healing (DESIGN.md §11): when set, every component write
  // during save() and every generation load during restore() runs under a
  // resil::RetryPolicy, so transient storage faults (injected power loss,
  // momentary I/O errors) heal in place with deterministic backoff.
  // Persistent faults still surface: terminal errors rethrow immediately,
  // and exhaustion throws resil::RetryExhausted. Default is the historical
  // fail-fast behaviour (no retry) — crash-safety never depended on it.
  void set_retry(const resil::RetryConfig& config) {
    retry_ = std::make_unique<resil::RetryPolicy>(config);
  }
  const resil::RetryPolicy* retry() const { return retry_.get(); }

  // Writes one new generation (model + buffer + vocab + stats + metrics
  // snapshot), manifest last, then prunes old generations. Returns the new
  // generation number.
  // Throws on I/O failure — in that case no valid manifest was written and
  // the previous generations remain the restore targets.
  std::uint64_t save(llm::MiniLlm& model, const DataBuffer& buffer,
                     const text::Vocab& vocab, const EngineStats& stats);

  // Generation numbers present on disk (valid or not), ascending.
  std::vector<std::uint64_t> generations() const;

  // Newest generation whose manifest and all component files verify
  // (size + CRC); nullopt when none do. Corrupt generations are skipped
  // with a log_warn.
  std::optional<CheckpointContents> newest_valid() const;

  // Everything restore() recovers besides the model weights (which are
  // loaded directly into the caller's model).
  struct Restored {
    std::uint64_t generation = 0;
    DataBuffer buffer{1};
    text::Vocab vocab;
    EngineStats stats;
  };

  // Restores the newest fully-valid generation: loads weights into `model`,
  // re-imports the persisted metrics snapshot into the global obs registry,
  // and returns the rest. If the newest valid generation fails to parse
  // (e.g. a model-shape mismatch), falls back to older ones. Returns
  // nullopt when no generation is restorable.
  std::optional<Restored> restore(llm::MiniLlm& model) const;

  // Total bytes of one generation's component files + manifest (0 if the
  // generation does not exist). For durability-cost accounting.
  std::uint64_t generation_bytes(std::uint64_t generation) const;

 private:
  CheckpointContents contents_for(std::uint64_t generation) const;
  bool verify_generation(const CheckpointContents& c) const;
  void write_manifest(const CheckpointContents& c) const;
  void prune() const;

  std::string dir_;
  std::size_t keep_last_;
  std::unique_ptr<resil::RetryPolicy> retry_;
};

}  // namespace odlp::core
