#include "io/obsf.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "io/lz4.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/stopwatch.h"

namespace odlp::io {

namespace {

// Sanity caps: a corrupt length field must fail fast, not allocate gigabytes.
constexpr std::uint32_t kMaxColumns = 1u << 12;
constexpr std::uint32_t kMaxMetaBytes = 1u << 20;
constexpr std::uint32_t kMaxNameBytes = 1u << 10;
constexpr std::uint32_t kMaxRawBytes = 1u << 30;
constexpr std::uint32_t kMaxBlockRows = 1u << 26;

struct IoMetrics {
  obs::Counter& blocks = obs::registry().counter("io.blocks.written");
  obs::Counter& bytes_raw = obs::registry().counter("io.bytes.raw");
  obs::Counter& bytes_compressed =
      obs::registry().counter("io.bytes.compressed");
  obs::Histogram& flush_us = obs::registry().histogram("io.flush_us");

  static IoMetrics& get() {
    static IoMetrics m;
    return m;
  }
};

// --- varint / zigzag primitives (LEB128, low 7 bits first) ---

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::uint64_t get_varint(const std::uint8_t* p, std::size_t n,
                         std::size_t& off) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (off >= n || shift > 63) {
      throw util::CorruptionError("obsf: malformed varint");
    }
    const std::uint8_t b = p[off++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void put_raw(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

template <typename T>
T get_pod(const std::uint8_t* p, std::size_t n, std::size_t& off) {
  if (n - off < sizeof(T)) {
    throw util::CorruptionError("obsf: truncated value");
  }
  T v;
  std::memcpy(&v, p + off, sizeof(T));
  off += sizeof(T);
  return v;
}

bool codec_legal(ColumnType type, ColumnCodec codec) {
  switch (codec) {
    case ColumnCodec::kFlat:
      return true;
    case ColumnCodec::kDelta:
      return type == ColumnType::kI64 || type == ColumnType::kU64;
    case ColumnCodec::kZoH:
      return type == ColumnType::kI64 || type == ColumnType::kU64 ||
             type == ColumnType::kU8 || type == ColumnType::kF64;
  }
  return false;
}

}  // namespace

void validate_schema(const Schema& schema) {
  if (schema.columns.empty()) {
    throw std::invalid_argument("obsf: schema has no columns");
  }
  if (schema.columns.size() > kMaxColumns) {
    throw std::invalid_argument("obsf: too many columns");
  }
  if (schema.meta.size() > kMaxMetaBytes) {
    throw std::invalid_argument("obsf: metadata too large");
  }
  for (const ColumnSpec& c : schema.columns) {
    if (c.name.empty() || c.name.size() > kMaxNameBytes) {
      throw std::invalid_argument("obsf: bad column name: " + c.name);
    }
    if (static_cast<std::uint8_t>(c.type) > 5 ||
        static_cast<std::uint8_t>(c.codec) > 2 ||
        !codec_legal(c.type, c.codec)) {
      throw std::invalid_argument("obsf: illegal type/codec for column " +
                                  c.name);
    }
  }
}

// ---------------------------------------------------------------------------
// ObsfWriter

void ObsfWriter::write_block(std::uint32_t rows, std::uint32_t raw_len,
                             const std::vector<std::uint8_t>& payload) {
  const std::uint32_t stored_len = static_cast<std::uint32_t>(payload.size());
  const std::uint8_t codec = rows == 0 ? 0 : 1;  // 0 only on the sentinel

  // Frame CRC covers rows..payload (everything after the block magic).
  util::Crc32 crc;
  crc.update(&rows, sizeof(rows));
  crc.update(&raw_len, sizeof(raw_len));
  crc.update(&stored_len, sizeof(stored_len));
  crc.update(&codec, sizeof(codec));
  crc.update(payload.data(), stored_len);
  const std::uint32_t crc_value = crc.value();

  out_->write_pod(kBlockMagic);
  out_->write_pod(rows);
  out_->write_pod(raw_len);
  out_->write_pod(stored_len);
  out_->write_pod(codec);
  out_->write(payload.data(), stored_len);
  out_->write_pod(crc_value);

  ++blocks_;
  raw_bytes_ += raw_len;
  stored_bytes_ += stored_len;

  IoMetrics& m = IoMetrics::get();
  m.blocks.inc();
  m.bytes_raw.inc(raw_len);
  m.bytes_compressed.inc(stored_len);
}

struct ObsfWriter::ColumnBuffer {
  std::vector<std::string> bytes;
  std::vector<std::int64_t> i64;
  std::vector<std::uint64_t> u64;
  std::vector<double> f64;
  std::vector<std::uint8_t> u8;
  std::vector<float> f32;

  void clear() {
    bytes.clear();
    i64.clear();
    u64.clear();
    f64.clear();
    u8.clear();
    f32.clear();
  }
};

namespace {

// Encodes one column's block-worth of values into `enc`.
void encode_column(const ColumnSpec& spec,
                   const ObsfWriter::ColumnBuffer& col,
                   std::vector<std::uint8_t>& enc);

// Runs shorter than this are stored raw without attempting LZ4 — the
// framing overhead would eat any plausible gain.
constexpr std::size_t kMinCompressRun = 64;

// Appends the column frame { varint raw_len, varint stored_len, u8 run_codec,
// stored bytes } of the encoded run `enc` to `out`, LZ4-compressed only when
// that shrinks it.
void put_column_frame(const std::vector<std::uint8_t>& enc,
                      std::vector<std::uint8_t>& scratch,
                      std::vector<std::uint8_t>& out) {
  put_varint(out, enc.size());
  if (enc.size() >= kMinCompressRun) {
    scratch.resize(lz4_max_compressed_size(enc.size()));
    const std::size_t csize =
        lz4_compress(enc.data(), enc.size(), scratch.data());
    if (csize < enc.size()) {
      put_varint(out, csize);
      out.push_back(1);
      out.insert(out.end(), scratch.data(), scratch.data() + csize);
      return;
    }
  }
  put_varint(out, enc.size());
  out.push_back(0);
  out.insert(out.end(), enc.begin(), enc.end());
}

template <typename T, typename PutValue>
void encode_zoh(const std::vector<T>& v, std::vector<std::uint8_t>& enc,
                PutValue put_value) {
  std::size_t i = 0;
  while (i < v.size()) {
    std::size_t run = 1;
    while (i + run < v.size() &&
           std::memcmp(&v[i + run], &v[i], sizeof(T)) == 0) {
      ++run;
    }
    put_varint(enc, run);
    put_value(enc, v[i]);
    i += run;
  }
}

}  // namespace

ObsfWriter::ObsfWriter(std::string path, Schema schema, Options options)
    : path_(std::move(path)), schema_(std::move(schema)), options_(options) {
  validate_schema(schema_);
  if (options_.block_rows == 0 || options_.block_rows > kMaxBlockRows) {
    throw std::invalid_argument("obsf: bad block_rows");
  }
  columns_.resize(schema_.columns.size());

  out_ = std::make_unique<util::AtomicFileWriter>(path_);
  out_->write_pod(kObsfMagic);
  out_->write_pod(kObsfVersion);
  const std::uint32_t flags = 1;  // blocks carry per-column LZ4 frames
  out_->write_pod(flags);
  out_->write_pod(static_cast<std::uint32_t>(schema_.columns.size()));
  out_->write_pod(static_cast<std::uint32_t>(schema_.meta.size()));
  out_->write(schema_.meta.data(), schema_.meta.size());
  for (const ColumnSpec& c : schema_.columns) {
    out_->write_pod(static_cast<std::uint8_t>(c.type));
    out_->write_pod(static_cast<std::uint8_t>(c.codec));
    out_->write_pod(static_cast<std::uint16_t>(c.name.size()));
    out_->write(c.name.data(), c.name.size());
  }
  out_->write_pod(out_->crc());
}

ObsfWriter::~ObsfWriter() = default;

#define ODLP_OBSF_APPEND(fn, member, ctype, want)                            \
  void ObsfWriter::fn(ctype v) {                                             \
    if (finished_ || next_col_ >= schema_.columns.size() ||                  \
        schema_.columns[next_col_].type != ColumnType::want) {               \
      throw std::logic_error("obsf: " #fn " out of schema order");           \
    }                                                                        \
    columns_[next_col_].member.push_back(v);                                 \
    ++next_col_;                                                             \
  }

ODLP_OBSF_APPEND(append_i64, i64, std::int64_t, kI64)
ODLP_OBSF_APPEND(append_u64, u64, std::uint64_t, kU64)
ODLP_OBSF_APPEND(append_f64, f64, double, kF64)
ODLP_OBSF_APPEND(append_u8, u8, std::uint8_t, kU8)
ODLP_OBSF_APPEND(append_f32, f32, float, kF32)
#undef ODLP_OBSF_APPEND

void ObsfWriter::append_bytes(std::string_view v) {
  if (finished_ || next_col_ >= schema_.columns.size() ||
      schema_.columns[next_col_].type != ColumnType::kBytes) {
    throw std::logic_error("obsf: append_bytes out of schema order");
  }
  columns_[next_col_].bytes.emplace_back(v);
  ++next_col_;
}

void ObsfWriter::end_row() {
  if (finished_ || next_col_ != schema_.columns.size()) {
    throw std::logic_error("obsf: end_row with incomplete row");
  }
  next_col_ = 0;
  ++rows_in_block_;
  ++total_rows_;
  if (rows_in_block_ >= options_.block_rows) flush_block();
}

void ObsfWriter::flush_block() {
  if (rows_in_block_ == 0) return;
  util::Stopwatch sw;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> enc;
  std::vector<std::uint8_t> scratch;
  // The block header's raw_len is the unframed size: varint(len) + encoded
  // run, summed over the columns.
  std::uint64_t raw_len = 0;
  for (std::size_t c = 0; c < schema_.columns.size(); ++c) {
    enc.clear();
    encode_column(schema_.columns[c], columns_[c], enc);
    columns_[c].clear();
    raw_len += varint_size(enc.size()) + enc.size();
    if (raw_len > kMaxRawBytes) {
      throw std::runtime_error("obsf: block payload exceeds 1 GiB cap");
    }
    put_column_frame(enc, scratch, payload);
  }
  write_block(static_cast<std::uint32_t>(rows_in_block_),
              static_cast<std::uint32_t>(raw_len), payload);
  rows_in_block_ = 0;
  IoMetrics::get().flush_us.record(sw.elapsed_seconds() * 1e6);
}

ObsfWriter::Stats ObsfWriter::finish() {
  if (finished_) throw std::logic_error("obsf: finish() called twice");
  if (next_col_ != 0) throw std::logic_error("obsf: finish() mid-row");
  flush_block();
  // Terminal sentinel: rows == 0 marks clean end-of-stream so truncation at
  // a block boundary is detectable.
  write_block(0, 0, {});

  Stats stats;
  stats.rows = total_rows_;
  stats.blocks = blocks_ - 1;  // exclude the sentinel
  stats.raw_bytes = raw_bytes_;
  stats.stored_bytes = stored_bytes_;
  stats.file_bytes = out_->bytes_written();
  out_->commit();
  out_.reset();
  finished_ = true;
  return stats;
}

namespace {

void encode_column(const ColumnSpec& spec,
                   const ObsfWriter::ColumnBuffer& col,
                   std::vector<std::uint8_t>& enc) {
  switch (spec.type) {
    case ColumnType::kBytes:
      for (const std::string& s : col.bytes) {
        put_varint(enc, s.size());
        put_raw(enc, s.data(), s.size());
      }
      break;
    case ColumnType::kI64:
      if (spec.codec == ColumnCodec::kDelta) {
        std::int64_t prev = 0;
        for (std::size_t i = 0; i < col.i64.size(); ++i) {
          if (i == 0) {
            put_varint(enc, zigzag(col.i64[0]));
          } else {
            // Wraparound-safe difference (unsigned subtraction).
            const std::uint64_t d = static_cast<std::uint64_t>(col.i64[i]) -
                                    static_cast<std::uint64_t>(prev);
            put_varint(enc, zigzag(static_cast<std::int64_t>(d)));
          }
          prev = col.i64[i];
        }
      } else if (spec.codec == ColumnCodec::kZoH) {
        encode_zoh(col.i64, enc,
                   [](std::vector<std::uint8_t>& e, std::int64_t v) {
                     put_varint(e, zigzag(v));
                   });
      } else {
        for (std::int64_t v : col.i64) put_varint(enc, zigzag(v));
      }
      break;
    case ColumnType::kU64:
      if (spec.codec == ColumnCodec::kDelta) {
        std::uint64_t prev = 0;
        for (std::size_t i = 0; i < col.u64.size(); ++i) {
          if (i == 0) {
            put_varint(enc, col.u64[0]);
          } else {
            put_varint(enc, zigzag(static_cast<std::int64_t>(col.u64[i] - prev)));
          }
          prev = col.u64[i];
        }
      } else if (spec.codec == ColumnCodec::kZoH) {
        encode_zoh(col.u64, enc,
                   [](std::vector<std::uint8_t>& e, std::uint64_t v) {
                     put_varint(e, v);
                   });
      } else {
        for (std::uint64_t v : col.u64) put_varint(enc, v);
      }
      break;
    case ColumnType::kF64:
      if (spec.codec == ColumnCodec::kZoH) {
        encode_zoh(col.f64, enc, [](std::vector<std::uint8_t>& e, double v) {
          put_raw(e, &v, sizeof(v));
        });
      } else {
        put_raw(enc, col.f64.data(), col.f64.size() * sizeof(double));
      }
      break;
    case ColumnType::kU8:
      if (spec.codec == ColumnCodec::kZoH) {
        encode_zoh(col.u8, enc,
                   [](std::vector<std::uint8_t>& e, std::uint8_t v) {
                     e.push_back(v);
                   });
      } else {
        put_raw(enc, col.u8.data(), col.u8.size());
      }
      break;
    case ColumnType::kF32:
      put_raw(enc, col.f32.data(), col.f32.size() * sizeof(float));
      break;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ObsfReader

struct ObsfReader::ColumnData {
  // Run extent located by next_block(); the run is decompressed + decoded
  // only when an accessor first touches the column (ensure_decoded), so a
  // projected scan never pays for columns it skips.
  const std::uint8_t* src = nullptr;  // stored run bytes, into the file image
  std::size_t stored_len = 0;
  std::size_t raw_len = 0;
  std::uint8_t run_codec = 0;  // 0 raw, 1 lz4
  bool decoded = false;
  // Decompression scratch for this column; kBytes views alias it (or the
  // file image when the run is stored raw). Reused across blocks.
  std::vector<std::uint8_t> storage;

  // kBytes columns decode to zero-copy views; owning strings are built only
  // when col_bytes()/col_bytes_mut() is actually called — the lazy cache is
  // mutable so the const accessor can fill it.
  std::vector<std::string_view> views;
  mutable std::vector<std::string> bytes;
  mutable bool strings_built = false;
  std::vector<std::int64_t> i64;
  std::vector<std::uint64_t> u64;
  std::vector<double> f64;
  std::vector<std::uint8_t> u8;
  std::vector<float> f32;

  void clear() {
    src = nullptr;
    stored_len = 0;
    raw_len = 0;
    run_codec = 0;
    decoded = false;
    views.clear();
    bytes.clear();
    strings_built = false;
    i64.clear();
    u64.clear();
    f64.clear();
    u8.clear();
    f32.clear();
  }

  const std::vector<std::string>& materialized() const {
    if (!strings_built) {
      bytes.clear();
      bytes.reserve(views.size());
      for (const std::string_view v : views) bytes.emplace_back(v);
      strings_built = true;
    }
    return bytes;
  }
};

namespace {

// Decodes exactly `rows` values of one column from enc[0..n); must consume
// the whole run. Throws CorruptionError on any mismatch.
void decode_column(const ColumnSpec& spec, const std::uint8_t* enc,
                   std::size_t n, std::size_t rows,
                   ObsfReader::ColumnData& out) {
  std::size_t off = 0;
  switch (spec.type) {
    case ColumnType::kBytes: {
      out.views.reserve(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t len = get_varint(enc, n, off);
        if (len > n - off) {
          throw util::CorruptionError("obsf: byte value overruns column");
        }
        out.views.emplace_back(reinterpret_cast<const char*>(enc + off),
                               static_cast<std::size_t>(len));
        off += static_cast<std::size_t>(len);
      }
      break;
    }
    case ColumnType::kI64: {
      out.i64.reserve(rows);
      if (spec.codec == ColumnCodec::kDelta) {
        std::int64_t prev = 0;
        for (std::size_t r = 0; r < rows; ++r) {
          const std::int64_t d = unzigzag(get_varint(enc, n, off));
          const std::int64_t v =
              r == 0 ? d
                     : static_cast<std::int64_t>(
                           static_cast<std::uint64_t>(prev) +
                           static_cast<std::uint64_t>(d));
          out.i64.push_back(v);
          prev = v;
        }
      } else if (spec.codec == ColumnCodec::kZoH) {
        while (out.i64.size() < rows) {
          const std::uint64_t run = get_varint(enc, n, off);
          if (run == 0 || run > rows - out.i64.size()) {
            throw util::CorruptionError("obsf: bad ZoH run length");
          }
          const std::int64_t v = unzigzag(get_varint(enc, n, off));
          out.i64.insert(out.i64.end(), static_cast<std::size_t>(run), v);
        }
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          out.i64.push_back(unzigzag(get_varint(enc, n, off)));
        }
      }
      break;
    }
    case ColumnType::kU64: {
      out.u64.reserve(rows);
      if (spec.codec == ColumnCodec::kDelta) {
        std::uint64_t prev = 0;
        for (std::size_t r = 0; r < rows; ++r) {
          const std::uint64_t v =
              r == 0 ? get_varint(enc, n, off)
                     : prev + static_cast<std::uint64_t>(
                                  unzigzag(get_varint(enc, n, off)));
          out.u64.push_back(v);
          prev = v;
        }
      } else if (spec.codec == ColumnCodec::kZoH) {
        while (out.u64.size() < rows) {
          const std::uint64_t run = get_varint(enc, n, off);
          if (run == 0 || run > rows - out.u64.size()) {
            throw util::CorruptionError("obsf: bad ZoH run length");
          }
          const std::uint64_t v = get_varint(enc, n, off);
          out.u64.insert(out.u64.end(), static_cast<std::size_t>(run), v);
        }
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          out.u64.push_back(get_varint(enc, n, off));
        }
      }
      break;
    }
    case ColumnType::kF64: {
      out.f64.reserve(rows);
      if (spec.codec == ColumnCodec::kZoH) {
        while (out.f64.size() < rows) {
          const std::uint64_t run = get_varint(enc, n, off);
          if (run == 0 || run > rows - out.f64.size()) {
            throw util::CorruptionError("obsf: bad ZoH run length");
          }
          const double v = get_pod<double>(enc, n, off);
          out.f64.insert(out.f64.end(), static_cast<std::size_t>(run), v);
        }
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          out.f64.push_back(get_pod<double>(enc, n, off));
        }
      }
      break;
    }
    case ColumnType::kU8: {
      out.u8.reserve(rows);
      if (spec.codec == ColumnCodec::kZoH) {
        while (out.u8.size() < rows) {
          const std::uint64_t run = get_varint(enc, n, off);
          if (run == 0 || run > rows - out.u8.size()) {
            throw util::CorruptionError("obsf: bad ZoH run length");
          }
          const std::uint8_t v = get_pod<std::uint8_t>(enc, n, off);
          out.u8.insert(out.u8.end(), static_cast<std::size_t>(run), v);
        }
      } else {
        if (n - off < rows) {
          throw util::CorruptionError("obsf: u8 column truncated");
        }
        out.u8.assign(enc + off, enc + off + rows);
        off += rows;
      }
      break;
    }
    case ColumnType::kF32: {
      out.f32.reserve(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        out.f32.push_back(get_pod<float>(enc, n, off));
      }
      break;
    }
  }
  if (off != n) {
    throw util::CorruptionError("obsf: column has trailing bytes");
  }
}

}  // namespace

ObsfReader::ObsfReader(const std::string& path, Options options)
    : options_(options) {
  bytes_ = util::read_file(path);
  util::ByteReader r(bytes_.data(), bytes_.size(), "obsf " + path);

  if (r.pod<std::uint32_t>() != kObsfMagic) {
    throw util::CorruptionError("obsf: bad magic in " + path);
  }
  const std::uint32_t version = r.pod<std::uint32_t>();
  if (version != kObsfVersion) {
    throw util::CorruptionError("obsf: unsupported version in " + path);
  }
  r.pod<std::uint32_t>();  // flags (informational)
  const std::uint32_t ncols = r.pod<std::uint32_t>();
  if (ncols == 0 || ncols > kMaxColumns) {
    throw util::CorruptionError("obsf: bad column count in " + path);
  }
  const std::uint32_t meta_len = r.pod<std::uint32_t>();
  if (meta_len > kMaxMetaBytes || meta_len > r.remaining()) {
    throw util::CorruptionError("obsf: bad metadata length in " + path);
  }
  schema_.meta = r.str(meta_len);
  schema_.columns.reserve(ncols);
  for (std::uint32_t c = 0; c < ncols; ++c) {
    ColumnSpec spec;
    const std::uint8_t type = r.pod<std::uint8_t>();
    const std::uint8_t codec = r.pod<std::uint8_t>();
    const std::uint16_t name_len = r.pod<std::uint16_t>();
    if (type > 5 || codec > 2 || name_len == 0 || name_len > kMaxNameBytes ||
        name_len > r.remaining()) {
      throw util::CorruptionError("obsf: bad column spec in " + path);
    }
    spec.type = static_cast<ColumnType>(type);
    spec.codec = static_cast<ColumnCodec>(codec);
    spec.name = r.str(name_len);
    if (!codec_legal(spec.type, spec.codec)) {
      throw util::CorruptionError("obsf: illegal type/codec in " + path);
    }
    schema_.columns.push_back(std::move(spec));
  }
  const std::size_t header_len = r.offset();
  const std::uint32_t stored_crc = r.pod<std::uint32_t>();
  if (util::crc32(bytes_.data(), header_len) != stored_crc) {
    throw util::CorruptionError("obsf: header CRC mismatch in " + path);
  }
  offset_ = r.offset();
  columns_.resize(ncols);
}

ObsfReader::~ObsfReader() = default;

bool ObsfReader::next_block() {
  if (done_) return false;
  try {
    while (true) {
      if (bytes_.size() - offset_ < 17) {
        throw util::CorruptionError("obsf: truncated block frame");
      }
      util::ByteReader r(bytes_.data() + offset_, bytes_.size() - offset_,
                         "obsf block");
      if (r.pod<std::uint32_t>() != kBlockMagic) {
        throw util::CorruptionError("obsf: bad block magic");
      }
      const std::uint32_t rows = r.pod<std::uint32_t>();
      const std::uint32_t raw_len = r.pod<std::uint32_t>();
      const std::uint32_t stored_len = r.pod<std::uint32_t>();
      const std::uint8_t codec = r.pod<std::uint8_t>();
      // Worst-case growth: LZ4 expansion on the payload plus the per-column
      // frame overhead (two varints + codec byte per column).
      const std::uint64_t max_stored =
          static_cast<std::uint64_t>(raw_len) + raw_len / 255 + 16 +
          21u * schema_.columns.size();
      if (rows > kMaxBlockRows || raw_len > kMaxRawBytes || codec > 1 ||
          stored_len > max_stored) {
        throw util::CorruptionError("obsf: bad block header");
      }
      if (stored_len > r.remaining() ||
          r.remaining() - stored_len < sizeof(std::uint32_t)) {
        throw util::CorruptionError("obsf: truncated block payload");
      }
      const std::uint8_t* payload = bytes_.data() + offset_ + r.offset();
      // CRC covers rows..payload: 13 header bytes after the magic, then the
      // payload itself.
      const std::uint32_t crc_here =
          util::crc32(bytes_.data() + offset_ + sizeof(std::uint32_t),
                      13 + stored_len);
      std::uint32_t file_crc;
      std::memcpy(&file_crc, payload + stored_len, sizeof(file_crc));
      if (crc_here != file_crc) {
        throw util::CorruptionError("obsf: block CRC mismatch");
      }

      const std::size_t frame_len =
          r.offset() + stored_len + sizeof(std::uint32_t);

      if (rows == 0) {
        // Sentinel: clean end of stream. Strict mode rejects trailing bytes.
        if (raw_len != 0 || stored_len != 0) {
          throw util::CorruptionError("obsf: malformed sentinel block");
        }
        offset_ += frame_len;
        if (offset_ != bytes_.size()) {
          throw util::CorruptionError("obsf: trailing bytes after sentinel");
        }
        done_ = true;
        return false;
      }

      // Data blocks are always framed per column; block_codec 0 is
      // reserved for the sentinel.
      if (codec != 1) {
        throw util::CorruptionError("obsf: unframed data block");
      }
      // Locate each column's run inside the payload. Decoding (and any
      // per-column decompression) is deferred to the first accessor touch,
      // so a projected scan only pays for the columns it reads; the framing
      // itself is fully validated here.
      std::size_t off = 0;
      std::uint64_t plain_total = 0;
      for (std::size_t c = 0; c < schema_.columns.size(); ++c) {
        columns_[c].clear();
        ColumnData& col = columns_[c];
        const std::uint64_t rlen = get_varint(payload, stored_len, off);
        const std::uint64_t slen = get_varint(payload, stored_len, off);
        if (off >= stored_len) {
          throw util::CorruptionError("obsf: truncated column frame");
        }
        const std::uint8_t run_codec = payload[off++];
        if (run_codec > 1 || (run_codec == 0 && slen != rlen) ||
            rlen > kMaxRawBytes || slen > stored_len - off) {
          throw util::CorruptionError("obsf: bad column frame");
        }
        col.src = payload + off;
        col.stored_len = static_cast<std::size_t>(slen);
        col.raw_len = static_cast<std::size_t>(rlen);
        col.run_codec = run_codec;
        off += static_cast<std::size_t>(slen);
        plain_total += varint_size(rlen) + rlen;
      }
      if (off != stored_len) {
        throw util::CorruptionError("obsf: block has trailing bytes");
      }
      // raw_len in the block header is the unframed size: it must equal
      // the reconstruction from the per-column runs.
      if (plain_total != raw_len) {
        throw util::CorruptionError("obsf: bad block header");
      }

      rows_ = rows;
      ++blocks_read_;
      offset_ += frame_len;
      return true;
    }
  } catch (const util::CorruptionError&) {
    if (!options_.recover) throw;
    truncated_ = true;
    done_ = true;
    return false;
  }
}

void ObsfReader::ensure_decoded(std::size_t c) const {
  ColumnData& col = columns_[c];
  if (col.decoded) return;
  col.decoded = true;
  if (col.src == nullptr) return;  // no block loaded: accessors stay empty
  const std::uint8_t* run = col.src;
  if (col.run_codec == 1) {
    col.storage.resize(col.raw_len);
    lz4_decompress(col.src, col.stored_len, col.storage.data(), col.raw_len);
    run = col.storage.data();
  }
  decode_column(schema_.columns[c], run, col.raw_len, rows_, col);
}

#define ODLP_OBSF_COL(fn, member, ctype, want)                                \
  const std::vector<ctype>& ObsfReader::fn(std::size_t c) const {             \
    if (c >= schema_.columns.size() ||                                        \
        schema_.columns[c].type != ColumnType::want) {                        \
      throw std::logic_error("obsf: column accessor type mismatch");          \
    }                                                                         \
    ensure_decoded(c);                                                        \
    return columns_[c].member;                                                \
  }

ODLP_OBSF_COL(col_i64, i64, std::int64_t, kI64)
ODLP_OBSF_COL(col_u64, u64, std::uint64_t, kU64)
ODLP_OBSF_COL(col_f64, f64, double, kF64)
ODLP_OBSF_COL(col_u8, u8, std::uint8_t, kU8)
ODLP_OBSF_COL(col_f32, f32, float, kF32)
#undef ODLP_OBSF_COL

const std::vector<std::string_view>& ObsfReader::col_bytes_views(
    std::size_t c) const {
  if (c >= schema_.columns.size() ||
      schema_.columns[c].type != ColumnType::kBytes) {
    throw std::logic_error("obsf: column accessor type mismatch");
  }
  ensure_decoded(c);
  return columns_[c].views;
}

const std::vector<std::string>& ObsfReader::col_bytes(std::size_t c) const {
  if (c >= schema_.columns.size() ||
      schema_.columns[c].type != ColumnType::kBytes) {
    throw std::logic_error("obsf: column accessor type mismatch");
  }
  ensure_decoded(c);
  return columns_[c].materialized();
}

std::vector<std::string>& ObsfReader::col_bytes_mut(std::size_t c) {
  if (c >= schema_.columns.size() ||
      schema_.columns[c].type != ColumnType::kBytes) {
    throw std::logic_error("obsf: column accessor type mismatch");
  }
  ensure_decoded(c);
  columns_[c].materialized();
  return columns_[c].bytes;
}

}  // namespace odlp::io
