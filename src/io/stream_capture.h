// Record/replay of dialogue traffic via OBSF (DESIGN.md §14).
//
// RecordingStream captures any data::DialogueStream run — stream and
// held-out test splits — into one OBSF file with delta/ZoH column codecs
// (positions are near-sequential, domains/noise flags arrive in bursts, so
// both compress to almost nothing). ReplayStream feeds the file back
// bit-identically: every string, ground-truth label, and stream position is
// restored exactly, so a replayed bench or chaos run takes the same code
// path, byte for byte, as the generated run — without paying generation
// cost again. Every fleet runner (run_fleet, the concurrent scheduler and
// run_chaos_fleet) reaches it through exp::FleetConfig::traffic_dir to
// record each user's traffic once and replay it many times.
//
// Schema (meta "odlp.traffic.v1"):
//   position  u64  delta   stream_position
//   split     u8   zoh     0 = stream portion, 1 = test portion
//   question  bytes flat
//   answer    bytes flat
//   reference bytes flat
//   domain    i64  zoh     generator ground truth (-1 = none)
//   subtopic  i64  zoh
//   noise     u8   zoh
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "data/dialogue.h"
#include "data/generator.h"
#include "io/obsf.h"

namespace odlp::io {

// Incremental traffic recorder. Append dialogue sets (test=false for the
// stream portion, true for the held-out split), then finish() to commit.
class RecordingStream {
 public:
  explicit RecordingStream(const std::string& path);
  ~RecordingStream();

  void append(const data::DialogueSet& set, bool test);

  // Flushes and atomically commits the recording; returns container stats.
  ObsfWriter::Stats finish();

 private:
  std::unique_ptr<ObsfWriter> writer_;
};

// Sequential reader over a recorded traffic file. next() restores one
// dialogue set per call in recorded order.
class ReplayStream {
 public:
  explicit ReplayStream(const std::string& path);
  ~ReplayStream();

  // Fills `set` (and `test` with the split flag) from the next record;
  // returns false at end of stream.
  bool next(data::DialogueSet& set, bool& test);

 private:
  ObsfReader reader_;
  std::size_t row_ = 0;
  bool have_block_ = false;
};

// Records a full generated dataset (stream then test split, in order).
ObsfWriter::Stats record_dataset(const data::GeneratedDataset& dataset,
                                 const std::string& path);

// Replays a file written by record_dataset back into the two splits.
data::GeneratedDataset replay_dataset(const std::string& path);

}  // namespace odlp::io
