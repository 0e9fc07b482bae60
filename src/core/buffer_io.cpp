#include "core/buffer_io.h"

#include <cstdint>
#include <cstring>
#include <string_view>

#include "io/obsf.h"
#include "util/atomic_file.h"

namespace odlp::core {

namespace {

// Hard ceilings on header fields, so a corrupt metadata string can never
// trigger a huge allocation.
constexpr std::uint64_t kMaxEmbeddingCols = 1u << 20;
constexpr std::uint64_t kMaxCapacity = 1u << 24;

// Header metadata: "odlp.buffer.v3;capacity=<N>;count=<M>". Capacity sizes
// the reconstructed buffer; count lets both strict and recover loads know
// how many rows the complete file held.
constexpr std::string_view kBufferMetaPrefix = "odlp.buffer.v3;";

io::Schema buffer_schema(std::uint64_t capacity, std::uint64_t count) {
  io::Schema s;
  s.meta = std::string(kBufferMetaPrefix) +
           "capacity=" + std::to_string(capacity) +
           ";count=" + std::to_string(count);
  s.columns = {
      {"question", io::ColumnType::kBytes, io::ColumnCodec::kFlat},
      {"answer", io::ColumnType::kBytes, io::ColumnCodec::kFlat},
      {"reference", io::ColumnType::kBytes, io::ColumnCodec::kFlat},
      {"true_domain", io::ColumnType::kI64, io::ColumnCodec::kZoH},
      {"true_subtopic", io::ColumnType::kI64, io::ColumnCodec::kZoH},
      {"is_noise", io::ColumnType::kU8, io::ColumnCodec::kZoH},
      {"position", io::ColumnType::kU64, io::ColumnCodec::kDelta},
      {"inserted_at", io::ColumnType::kU64, io::ColumnCodec::kDelta},
      {"annotated", io::ColumnType::kU8, io::ColumnCodec::kZoH},
      {"dominant_domain", io::ColumnType::kI64, io::ColumnCodec::kZoH},
      {"eoe", io::ColumnType::kF64, io::ColumnCodec::kFlat},
      {"dss", io::ColumnType::kF64, io::ColumnCodec::kFlat},
      {"idd", io::ColumnType::kF64, io::ColumnCodec::kFlat},
      {"embedding", io::ColumnType::kBytes, io::ColumnCodec::kFlat},
  };
  return s;
}

// Parses "...;key=<u64>..." out of the v3 metadata string.
std::uint64_t meta_field(const std::string& meta, const std::string& key) {
  const std::string needle = key + "=";
  const std::size_t at = meta.find(needle);
  if (at == std::string::npos) {
    throw util::CorruptionError("buffer_io: v3 metadata missing " + key);
  }
  std::uint64_t v = 0;
  std::size_t i = at + needle.size();
  if (i >= meta.size() || meta[i] < '0' || meta[i] > '9') {
    throw util::CorruptionError("buffer_io: v3 metadata bad " + key);
  }
  for (; i < meta.size() && meta[i] >= '0' && meta[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(meta[i] - '0');
  }
  return v;
}

// Appends the rows of one decoded OBSF block into the buffer.
void add_block_entries(const io::ObsfReader& r, DataBuffer& buffer) {
  for (std::size_t k = 0; k < r.rows(); ++k) {
    if (buffer.full()) {
      throw util::CorruptionError("buffer_io: more rows than capacity");
    }
    BufferEntry e;
    e.set.question = r.col_bytes(0)[k];
    e.set.answer = r.col_bytes(1)[k];
    e.set.reference = r.col_bytes(2)[k];
    e.set.true_domain = static_cast<int>(r.col_i64(3)[k]);
    e.set.true_subtopic = static_cast<int>(r.col_i64(4)[k]);
    e.set.is_noise = r.col_u8(5)[k] != 0;
    e.set.stream_position = static_cast<std::size_t>(r.col_u64(6)[k]);
    e.inserted_at = static_cast<std::size_t>(r.col_u64(7)[k]);
    e.annotated = r.col_u8(8)[k] != 0;
    const std::int64_t domain = r.col_i64(9)[k];
    if (domain >= 0) e.dominant_domain = static_cast<std::size_t>(domain);
    e.scores.eoe = r.col_f64(10)[k];
    e.scores.dss = r.col_f64(11)[k];
    e.scores.idd = r.col_f64(12)[k];
    const std::string& emb = r.col_bytes(13)[k];
    if (emb.size() % sizeof(float) != 0 ||
        emb.size() / sizeof(float) > kMaxEmbeddingCols) {
      throw util::CorruptionError("buffer_io: bad embedding byte length " +
                                  std::to_string(emb.size()));
    }
    e.embedding = tensor::Tensor(1, emb.size() / sizeof(float));
    std::memcpy(e.embedding.data(), emb.data(), emb.size());
    buffer.add(std::move(e));
  }
}

DataBuffer make_buffer_for_meta(const std::string& meta,
                                std::uint64_t& capacity,
                                std::uint64_t& count) {
  if (meta.compare(0, kBufferMetaPrefix.size(), kBufferMetaPrefix) != 0) {
    throw util::CorruptionError("buffer_io: not a v3 buffer container");
  }
  capacity = meta_field(meta, "capacity");
  count = meta_field(meta, "count");
  if (capacity == 0 || capacity > kMaxCapacity || count > capacity) {
    throw util::CorruptionError("buffer_io: inconsistent capacity/count");
  }
  return DataBuffer(capacity);
}

}  // namespace

void save_buffer(const DataBuffer& buffer, const std::string& path) {
  // Smaller blocks than the container default: recovery walks back to the
  // last intact block, so block granularity bounds how many entries a torn
  // checkpoint tail can cost. 256 bins ≈ one paper-sized buffer per block.
  io::ObsfWriter::Options opts;
  opts.block_rows = 256;
  io::ObsfWriter w(path, buffer_schema(buffer.capacity(), buffer.size()),
                   opts);
  for (const auto& e : buffer.entries()) {
    w.append_bytes(e.set.question);
    w.append_bytes(e.set.answer);
    w.append_bytes(e.set.reference);
    w.append_i64(e.set.true_domain);
    w.append_i64(e.set.true_subtopic);
    w.append_u8(e.set.is_noise ? 1 : 0);
    w.append_u64(e.set.stream_position);
    w.append_u64(e.inserted_at);
    w.append_u8(e.annotated ? 1 : 0);
    w.append_i64(e.dominant_domain
                     ? static_cast<std::int64_t>(*e.dominant_domain)
                     : -1);
    w.append_f64(e.scores.eoe);
    w.append_f64(e.scores.dss);
    w.append_f64(e.scores.idd);
    w.append_bytes(std::string_view(
        reinterpret_cast<const char*>(e.embedding.data()),
        e.embedding.size() * sizeof(float)));
    w.end_row();
  }
  w.finish();
}

DataBuffer load_buffer(const std::string& path) {
  io::ObsfReader r(path);
  std::uint64_t capacity = 0, count = 0;
  DataBuffer buffer = make_buffer_for_meta(r.schema().meta, capacity, count);
  while (r.next_block()) add_block_entries(r, buffer);
  if (buffer.size() != count) {
    throw util::CorruptionError("buffer_io: row count mismatch: header " +
                                std::to_string(count) + ", decoded " +
                                std::to_string(buffer.size()));
  }
  return buffer;
}

BufferRecovery recover_buffer(const std::string& path) {
  io::ObsfReader::Options opts;
  opts.recover = true;
  io::ObsfReader r(path, opts);  // header damage still throws: no schema
  std::uint64_t capacity = 0, count = 0;
  BufferRecovery rec{make_buffer_for_meta(r.schema().meta, capacity, count),
                     0, 0, false};
  rec.rows_expected = static_cast<std::size_t>(count);
  while (r.next_block()) add_block_entries(r, rec.buffer);
  rec.rows_recovered = rec.buffer.size();
  rec.truncated = r.truncated() || rec.rows_recovered != rec.rows_expected;
  return rec;
}

}  // namespace odlp::core
