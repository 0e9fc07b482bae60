// OBSF — append-only blocked columnar binary container (DESIGN.md §14).
//
// File layout:
//
//   [ header ]                         u32 magic "OBSF", u32 version,
//                                      u32 flags, u32 ncols,
//                                      u32 meta_len + meta bytes,
//                                      ncols x { u8 type, u8 codec,
//                                                u16 name_len, name },
//                                      u32 crc32(all preceding bytes)
//   [ block ]*                         u32 magic "OBLK", u32 rows,
//                                      u32 raw_len, u32 stored_len,
//                                      u8 block_codec (1 column frames;
//                                      0 only on the sentinel),
//                                      stored_len payload bytes,
//                                      u32 crc32(rows..payload)
//   [ sentinel ]                       a block frame with rows == 0 —
//                                      marks clean end-of-stream so a
//                                      truncation landing exactly on a
//                                      block boundary is still detected
//
// Each block is independently decodable, and within a block each *column*
// is independently decodable. A data block's payload is one frame per
// column, in schema order: { varint raw_len, varint stored_len, u8 run_codec
// (0 raw / 1 lz4), stored bytes } — each column's run is LZ4-compressed only
// when that actually shrinks it. The block header's raw_len is the size of
// the unframed form (varint length + run per column). Per-column
// compression is what makes projected scans cheap: the reader decodes a
// column the first time an accessor touches it, so a scan over the narrow
// numeric columns never decompresses the wide text columns riding in the
// same block.
// Blocks are CRC-32-footed (util/crc32), verified eagerly in next_block()
// over the stored payload. Durability comes from util::AtomicFileWriter: the
// whole file appears atomically on commit (tmp + fsync + rename), and the
// per-block CRCs + sentinel make *reads* of a later-corrupted file fail
// typed (strict mode) or recover to the last intact block (recover mode).
//
// Writes are synchronous: each block is encoded, framed and written on the
// caller's thread as soon as it fills, so file order equals append order by
// construction and the bytes never depend on the lane count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/atomic_file.h"

namespace odlp::io {

constexpr std::uint32_t kObsfMagic = 0x4653424Fu;   // "OBSF"
constexpr std::uint32_t kBlockMagic = 0x4B4C424Fu;  // "OBLK"
constexpr std::uint32_t kObsfVersion = 1;

// Physical value type of a column.
enum class ColumnType : std::uint8_t {
  kBytes = 0,  // length-prefixed byte strings
  kI64 = 1,
  kU64 = 2,
  kF64 = 3,
  kU8 = 4,
  kF32 = 5,
};

// Row codec applied within a block.
enum class ColumnCodec : std::uint8_t {
  kFlat = 0,   // values verbatim (varint for integers, raw LE for floats)
  kDelta = 1,  // first value raw, then zigzag-varint deltas (i64/u64 only)
  kZoH = 2,    // zero-order hold: (varint run_length, value) pairs
};

struct ColumnSpec {
  std::string name;
  ColumnType type = ColumnType::kBytes;
  ColumnCodec codec = ColumnCodec::kFlat;
};

struct Schema {
  std::vector<ColumnSpec> columns;
  // Free-form consumer metadata stored in the header (e.g. buffer capacity
  // and row count for the v3 checkpoint path). Covered by the header CRC.
  std::string meta;
};

// Validates type/codec combinations (delta needs integers, ZoH needs
// fixed-width values, bytes columns are flat-only); throws
// std::invalid_argument on an illegal spec.
void validate_schema(const Schema& schema);

// Columnar writer: append one value per schema column, end_row(), repeat;
// finish() flushes the tail block, writes the sentinel, and commits.
class ObsfWriter {
 public:
  struct Options {
    std::size_t block_rows = 4096;  // rows per block before a flush
  };

  struct Stats {
    std::uint64_t rows = 0;
    std::uint64_t blocks = 0;         // data blocks (sentinel excluded)
    std::uint64_t raw_bytes = 0;      // encoded payload before compression
    std::uint64_t stored_bytes = 0;   // payload bytes on disk
    std::uint64_t file_bytes = 0;     // total file size incl. framing
  };

  ObsfWriter(std::string path, Schema schema, Options options);
  ObsfWriter(std::string path, Schema schema)
      : ObsfWriter(std::move(path), std::move(schema), Options()) {}
  // An unfinished writer aborts: the destination file is never touched.
  ~ObsfWriter();

  ObsfWriter(const ObsfWriter&) = delete;
  ObsfWriter& operator=(const ObsfWriter&) = delete;

  // Appends the next column of the current row; columns must be appended in
  // schema order and match the declared type (checked, throws
  // std::logic_error on misuse).
  void append_bytes(std::string_view v);
  void append_i64(std::int64_t v);
  void append_u64(std::uint64_t v);
  void append_f64(double v);
  void append_u8(std::uint8_t v);
  void append_f32(float v);

  // Completes the current row; flushes a block every `block_rows` rows.
  void end_row();

  // Flushes, writes the sentinel block, commits the file atomically, and
  // returns aggregate stats. The writer is inert afterwards.
  Stats finish();

  // Per-column accumulation buffer (public so the file-local codec helpers
  // in obsf.cpp can take it by reference; not part of the API surface).
  struct ColumnBuffer;

 private:
  void flush_block();
  // Writes one block frame around `payload` (the column frames; empty for
  // the sentinel), CRC-footed, to out_.
  void write_block(std::uint32_t rows, std::uint32_t raw_len,
                   const std::vector<std::uint8_t>& payload);

  std::string path_;
  Schema schema_;
  Options options_;
  std::unique_ptr<util::AtomicFileWriter> out_;
  std::vector<ColumnBuffer> columns_;
  std::size_t next_col_ = 0;
  std::size_t rows_in_block_ = 0;
  std::uint64_t total_rows_ = 0;
  std::uint64_t blocks_ = 0;  // sentinel included
  std::uint64_t raw_bytes_ = 0;
  std::uint64_t stored_bytes_ = 0;
  bool finished_ = false;
};

// Block-at-a-time reader. Strict mode (default) throws
// util::CorruptionError on any anomaly — bad header, bad block CRC,
// truncation anywhere including exactly at a block boundary (missing
// sentinel), or trailing bytes after the sentinel. Recover mode stops at
// the first damaged block instead, keeping every intact block before it,
// and reports the damage via truncated().
class ObsfReader {
 public:
  struct Options {
    bool recover = false;
  };

  explicit ObsfReader(const std::string& path, Options options);
  explicit ObsfReader(const std::string& path)
      : ObsfReader(path, Options()) {}
  ~ObsfReader();

  ObsfReader(const ObsfReader&) = delete;
  ObsfReader& operator=(const ObsfReader&) = delete;

  const Schema& schema() const { return schema_; }

  // Advances to the next data block: verifies the frame and its CRC and
  // locates each column's run, but decodes nothing yet. Returns false at
  // end of stream (clean sentinel, or first damage in recover mode).
  bool next_block();

  // Rows in the current block (valid after next_block() returned true).
  std::size_t rows() const { return rows_; }

  // Column accessors for the current block; the accessor must match the
  // schema column type (throws std::logic_error otherwise).
  //
  // Columns decode lazily: the first accessor call for a column
  // decompresses and decodes that column's run, so a projected scan pays
  // only for the columns it touches. Bytes columns decode zero-copy:
  // col_bytes_views() returns views into the column's decompressed run
  // (valid until the next next_block() call) with no per-value allocation —
  // the scan fast path. col_bytes() lazily materializes owning strings from
  // those views on first call per block; col_bytes_mut() additionally lets
  // a consumer move the strings out instead of copying (a block is decoded
  // once and never revisited).
  const std::vector<std::string_view>& col_bytes_views(std::size_t c) const;
  const std::vector<std::string>& col_bytes(std::size_t c) const;
  std::vector<std::string>& col_bytes_mut(std::size_t c);
  const std::vector<std::int64_t>& col_i64(std::size_t c) const;
  const std::vector<std::uint64_t>& col_u64(std::size_t c) const;
  const std::vector<double>& col_f64(std::size_t c) const;
  const std::vector<std::uint8_t>& col_u8(std::size_t c) const;
  const std::vector<float>& col_f32(std::size_t c) const;

  std::size_t blocks_read() const { return blocks_read_; }
  // Recover mode only: true when the stream ended at damage rather than at
  // the clean sentinel.
  bool truncated() const { return truncated_; }

  // Decoded per-column storage (public for the obsf.cpp codec helpers).
  struct ColumnData;

 private:
  // Decompresses (if needed) and decodes column c on first touch; const
  // because every accessor is, with the decoded state held in the mutable
  // columns_ below.
  void ensure_decoded(std::size_t c) const;

  Schema schema_;
  std::vector<unsigned char> bytes_;
  std::size_t offset_ = 0;
  Options options_;
  // Lazily decoded per-column state for the current block (run extents into
  // bytes_, decompression scratch, decoded vectors). Mutable so the const
  // accessors can decode on demand.
  mutable std::vector<ColumnData> columns_;
  std::size_t rows_ = 0;
  std::size_t blocks_read_ = 0;
  bool truncated_ = false;
  bool done_ = false;
};

}  // namespace odlp::io
