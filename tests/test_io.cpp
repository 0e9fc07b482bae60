// OBSF container, LZ4 codec, record/replay, and binary-sink fault matrix
// (DESIGN.md §14). Own binary with the "io" ctest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/buffer_io.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "data/user_oracle.h"
#include "io/lz4.h"
#include "io/obsf.h"
#include "io/stream_capture.h"
#include "lexicon/lexicon.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace odlp {
namespace {

std::string temp_path(const std::string& name) { return "/tmp/" + name; }

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

// --- LZ4 ---

std::vector<std::uint8_t> lz4_round_trip(const std::vector<std::uint8_t>& src) {
  std::vector<std::uint8_t> comp(io::lz4_max_compressed_size(src.size()));
  const std::size_t csize =
      io::lz4_compress(src.data(), src.size(), comp.data());
  EXPECT_LE(csize, comp.size());
  comp.resize(csize);
  std::vector<std::uint8_t> back(src.size());
  EXPECT_EQ(io::lz4_decompress(comp.data(), comp.size(), back.data(),
                               back.size()),
            src.size());
  return back;
}

TEST(Lz4, EmptyInputProducesEmptyBlock) {
  std::vector<std::uint8_t> comp(io::lz4_max_compressed_size(0));
  EXPECT_EQ(io::lz4_compress(nullptr, 0, comp.data()), 0u);
  EXPECT_EQ(io::lz4_decompress(comp.data(), 0, nullptr, 0), 0u);
}

TEST(Lz4, RoundTripsAcrossSizes) {
  std::mt19937 rng(1234);
  for (std::size_t n :
       {1u, 2u, 4u, 11u, 12u, 13u, 64u, 100u, 255u, 256u, 1000u, 65536u}) {
    std::vector<std::uint8_t> random(n), repetitive(n), uniform(n, 0x55);
    for (auto& b : random) b = static_cast<std::uint8_t>(rng());
    for (std::size_t i = 0; i < n; ++i) {
      repetitive[i] = static_cast<std::uint8_t>("abcabcab"[i % 8]);
    }
    EXPECT_EQ(lz4_round_trip(random), random) << "n=" << n;
    EXPECT_EQ(lz4_round_trip(repetitive), repetitive) << "n=" << n;
    EXPECT_EQ(lz4_round_trip(uniform), uniform) << "n=" << n;
  }
}

TEST(Lz4, CompressesRepetitiveMegabyte) {
  std::vector<std::uint8_t> src(1 << 20);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>((i / 64) % 7);
  }
  std::vector<std::uint8_t> comp(io::lz4_max_compressed_size(src.size()));
  const std::size_t csize =
      io::lz4_compress(src.data(), src.size(), comp.data());
  EXPECT_LT(csize, src.size() / 10);  // heavily repetitive → >10x
  std::vector<std::uint8_t> back(src.size());
  io::lz4_decompress(comp.data(), csize, back.data(), back.size());
  EXPECT_EQ(back, src);
}

TEST(Lz4, MalformedInputThrowsInsteadOfOverrunning) {
  // Wrong declared size.
  std::vector<std::uint8_t> src(100, 7);
  std::vector<std::uint8_t> comp(io::lz4_max_compressed_size(src.size()));
  const std::size_t csize =
      io::lz4_compress(src.data(), src.size(), comp.data());
  std::vector<std::uint8_t> out(src.size() + 1);
  EXPECT_THROW(io::lz4_decompress(comp.data(), csize, out.data(), out.size()),
               util::CorruptionError);
  EXPECT_THROW(
      io::lz4_decompress(comp.data(), csize, out.data(), src.size() - 1),
      util::CorruptionError);
  // Truncated stream.
  EXPECT_THROW(
      io::lz4_decompress(comp.data(), csize - 1, out.data(), src.size()),
      util::CorruptionError);
  // Data after an empty-output block.
  EXPECT_THROW(io::lz4_decompress(comp.data(), csize, nullptr, 0),
               util::CorruptionError);
  // Offset beyond the produced output: token demands a match at position 0.
  const std::vector<std::uint8_t> bad = {0x00, 0x05, 0x00};
  std::vector<std::uint8_t> small(8);
  EXPECT_THROW(
      io::lz4_decompress(bad.data(), bad.size(), small.data(), small.size()),
      util::CorruptionError);
}

TEST(Lz4, FuzzedCorruptionNeverCrashes) {
  std::mt19937 rng(99);
  std::vector<std::uint8_t> src(2048);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>((i / 16) * 3);
  }
  std::vector<std::uint8_t> comp(io::lz4_max_compressed_size(src.size()));
  const std::size_t csize =
      io::lz4_compress(src.data(), src.size(), comp.data());
  std::vector<std::uint8_t> out(src.size());
  for (int t = 0; t < 500; ++t) {
    std::vector<std::uint8_t> mut(comp.begin(), comp.begin() + csize);
    mut[rng() % mut.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    try {
      io::lz4_decompress(mut.data(), mut.size(), out.data(), out.size());
      // Decoding to valid-but-wrong bytes is acceptable here: the OBSF
      // block CRC catches it one layer up.
    } catch (const util::CorruptionError&) {
    }
  }
}

// --- crc32 slice-by-8 ---

// Bitwise reference implementation of the same reflected polynomial.
std::uint32_t crc32_reference(const void* data, std::size_t len,
                              std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SliceBy8MatchesBitwiseReference) {
  std::mt19937 rng(7);
  EXPECT_EQ(util::crc32("", 0), crc32_reference("", 0, 0));
  // Known vector: CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
  // 63..129 straddles the PCLMUL fold kernel's 64-byte entry threshold and
  // its 16-byte folding granularity.
  for (std::size_t len : {1u, 3u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 65u, 79u,
                          80u, 127u, 128u, 129u, 255u, 4096u}) {
    std::vector<unsigned char> buf(len + 8);
    for (auto& b : buf) b = static_cast<unsigned char>(rng());
    for (std::size_t align = 0; align < 8; ++align) {
      EXPECT_EQ(util::crc32(buf.data() + align, len),
                crc32_reference(buf.data() + align, len, 0))
          << "len=" << len << " align=" << align;
    }
  }
}

TEST(Crc32, SeedChainingStillComposes) {
  std::mt19937 rng(11);
  std::vector<unsigned char> buf(1000);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  const std::uint32_t whole = util::crc32(buf.data(), buf.size());
  for (std::size_t split : {0u, 1u, 7u, 8u, 500u, 999u, 1000u}) {
    const std::uint32_t head = util::crc32(buf.data(), split);
    EXPECT_EQ(util::crc32(buf.data() + split, buf.size() - split, head),
              whole);
  }
  util::Crc32 acc;
  acc.update(buf.data(), 123);
  acc.update(buf.data() + 123, buf.size() - 123);
  EXPECT_EQ(acc.value(), whole);
}

// --- OBSF container ---

io::Schema all_types_schema() {
  io::Schema s;
  s.meta = "test.meta";
  s.columns = {
      {"b", io::ColumnType::kBytes, io::ColumnCodec::kFlat},
      {"i_flat", io::ColumnType::kI64, io::ColumnCodec::kFlat},
      {"i_delta", io::ColumnType::kI64, io::ColumnCodec::kDelta},
      {"i_zoh", io::ColumnType::kI64, io::ColumnCodec::kZoH},
      {"u_flat", io::ColumnType::kU64, io::ColumnCodec::kFlat},
      {"u_delta", io::ColumnType::kU64, io::ColumnCodec::kDelta},
      {"f_flat", io::ColumnType::kF64, io::ColumnCodec::kFlat},
      {"f_zoh", io::ColumnType::kF64, io::ColumnCodec::kZoH},
      {"u8_flat", io::ColumnType::kU8, io::ColumnCodec::kFlat},
      {"u8_zoh", io::ColumnType::kU8, io::ColumnCodec::kZoH},
      {"f32", io::ColumnType::kF32, io::ColumnCodec::kFlat},
  };
  return s;
}

void write_all_types(const std::string& path, std::size_t rows,
                     std::size_t block_rows) {
  io::ObsfWriter::Options opts;
  opts.block_rows = block_rows;
  io::ObsfWriter w(path, all_types_schema(), opts);
  for (std::size_t i = 0; i < rows; ++i) {
    w.append_bytes("value-" + std::to_string(i * 7));
    w.append_i64(static_cast<std::int64_t>(i) - 50);
    w.append_i64(static_cast<std::int64_t>(i * i));
    w.append_i64(static_cast<std::int64_t>(i / 10));
    w.append_u64(i * 1000);
    w.append_u64(1u << (i % 20));
    w.append_f64(0.25 * static_cast<double>(i));
    w.append_f64(static_cast<double>(i / 25));
    w.append_u8(static_cast<std::uint8_t>(i));
    w.append_u8(static_cast<std::uint8_t>(i / 40));
    w.append_f32(static_cast<float>(i) * 0.5f);
    w.end_row();
  }
  w.finish();
}

void expect_all_types(const std::string& path, std::size_t rows) {
  io::ObsfReader r(path);
  EXPECT_EQ(r.schema().meta, "test.meta");
  ASSERT_EQ(r.schema().columns.size(), 11u);
  std::size_t i = 0;
  while (r.next_block()) {
    for (std::size_t k = 0; k < r.rows(); ++k, ++i) {
      ASSERT_LT(i, rows);
      EXPECT_EQ(r.col_bytes(0)[k], "value-" + std::to_string(i * 7));
      EXPECT_EQ(r.col_i64(1)[k], static_cast<std::int64_t>(i) - 50);
      EXPECT_EQ(r.col_i64(2)[k], static_cast<std::int64_t>(i * i));
      EXPECT_EQ(r.col_i64(3)[k], static_cast<std::int64_t>(i / 10));
      EXPECT_EQ(r.col_u64(4)[k], i * 1000);
      EXPECT_EQ(r.col_u64(5)[k], 1u << (i % 20));
      EXPECT_DOUBLE_EQ(r.col_f64(6)[k], 0.25 * static_cast<double>(i));
      EXPECT_DOUBLE_EQ(r.col_f64(7)[k], static_cast<double>(i / 25));
      EXPECT_EQ(r.col_u8(8)[k], static_cast<std::uint8_t>(i));
      EXPECT_EQ(r.col_u8(9)[k], static_cast<std::uint8_t>(i / 40));
      EXPECT_FLOAT_EQ(r.col_f32(10)[k], static_cast<float>(i) * 0.5f);
    }
  }
  EXPECT_EQ(i, rows);
  EXPECT_FALSE(r.truncated());
}

TEST(Obsf, AllTypesAndCodecsRoundTrip) {
  const std::string path = temp_path("odlp_obsf_all.obsf");
  write_all_types(path, 503, /*block_rows=*/64);
  expect_all_types(path, 503);
  std::remove(path.c_str());
}

// Pins the on-disk bytes: header, per-column LZ4 framing, block CRCs and
// sentinel. Any change to what the writer emits moves this digest.
TEST(Obsf, WriterBytesMatchGoldenDigest) {
  constexpr std::uint32_t kGoldenCrc = 0xb1a490d9u;
  constexpr std::size_t kGoldenBytes = 6707;
  const std::string path = temp_path("odlp_obsf_golden.obsf");
  write_all_types(path, 257, /*block_rows=*/32);
  const std::vector<unsigned char> bytes = slurp(path);
  EXPECT_EQ(bytes.size(), kGoldenBytes);
  EXPECT_EQ(util::crc32(bytes.data(), bytes.size()), kGoldenCrc)
      << std::hex << "actual 0x" << util::crc32(bytes.data(), bytes.size());
  std::remove(path.c_str());
}

TEST(Obsf, EmptyFileRoundTrips) {
  const std::string path = temp_path("odlp_obsf_empty.obsf");
  {
    io::ObsfWriter w(path, all_types_schema());
    w.finish();
  }
  io::ObsfReader r(path);
  EXPECT_FALSE(r.next_block());
  EXPECT_EQ(r.blocks_read(), 0u);
  std::remove(path.c_str());
}

TEST(Obsf, UnfinishedWriterNeverTouchesDestination) {
  const std::string path = temp_path("odlp_obsf_abort.obsf");
  std::remove(path.c_str());
  {
    io::ObsfWriter w(path, all_types_schema());
    // destroyed without finish()
  }
  EXPECT_THROW(util::read_file(path), std::runtime_error);
}

TEST(Obsf, SchemaValidationRejectsIllegalCombos) {
  io::Schema s;
  s.columns = {{"x", io::ColumnType::kBytes, io::ColumnCodec::kDelta}};
  EXPECT_THROW(io::validate_schema(s), std::invalid_argument);
  s.columns = {{"x", io::ColumnType::kF64, io::ColumnCodec::kDelta}};
  EXPECT_THROW(io::validate_schema(s), std::invalid_argument);
  s.columns = {{"x", io::ColumnType::kF32, io::ColumnCodec::kZoH}};
  EXPECT_THROW(io::validate_schema(s), std::invalid_argument);
  s.columns = {{"", io::ColumnType::kU8, io::ColumnCodec::kFlat}};
  EXPECT_THROW(io::validate_schema(s), std::invalid_argument);
  s.columns.clear();
  EXPECT_THROW(io::validate_schema(s), std::invalid_argument);
}

TEST(Obsf, AppendOutOfSchemaOrderThrows) {
  const std::string path = temp_path("odlp_obsf_order.obsf");
  io::Schema s;
  s.columns = {{"a", io::ColumnType::kU64, io::ColumnCodec::kFlat},
               {"b", io::ColumnType::kBytes, io::ColumnCodec::kFlat}};
  io::ObsfWriter w(path, s);
  EXPECT_THROW(w.append_bytes("first column is u64"), std::logic_error);
  w.append_u64(1);
  EXPECT_THROW(w.end_row(), std::logic_error);  // row incomplete
  w.append_bytes("ok");
  w.end_row();
  w.finish();
  std::remove(path.c_str());
}

// The OBSF fault matrix: truncation at every byte (which covers every block
// boundary ±1 byte and the torn final block), plus bit flips in every
// region (header, schema, payload, footer). Strict reads must throw
// CorruptionError — never crash, never return wrong data.
TEST(ObsfFaultMatrix, TruncationAtEveryByteThrows) {
  const std::string path = temp_path("odlp_obsf_trunc.obsf");
  write_all_types(path, 90, /*block_rows=*/16);
  const std::vector<unsigned char> bytes = slurp(path);
  const std::string cut = temp_path("odlp_obsf_trunc_cut.obsf");
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    spit(cut, {bytes.begin(), bytes.begin() + keep});
    EXPECT_THROW(
        {
          io::ObsfReader r(cut);
          while (r.next_block()) {
          }
        },
        util::CorruptionError)
        << "keep=" << keep << " of " << bytes.size();
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(ObsfFaultMatrix, BitFlipAnywhereThrows) {
  const std::string path = temp_path("odlp_obsf_flip.obsf");
  write_all_types(path, 60, /*block_rows=*/16);
  const std::vector<unsigned char> bytes = slurp(path);
  const std::string flip = temp_path("odlp_obsf_flip_mut.obsf");
  std::mt19937 rng(4242);
  // Every byte for small offsets (header/schema region), then a random
  // sample across the rest of the file; 3 random bits each.
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    if (pos > 64 && pos % 7 != 0) continue;
    std::vector<unsigned char> mut = bytes;
    mut[pos] ^= static_cast<unsigned char>(1u << (rng() % 8));
    spit(flip, mut);
    EXPECT_THROW(
        {
          io::ObsfReader r(flip);
          while (r.next_block()) {
          }
        },
        util::CorruptionError)
        << "pos=" << pos;
  }
  std::remove(path.c_str());
  std::remove(flip.c_str());
}

TEST(ObsfFaultMatrix, TrailingGarbageAfterSentinelThrows) {
  const std::string path = temp_path("odlp_obsf_tail.obsf");
  write_all_types(path, 20, /*block_rows=*/16);
  std::vector<unsigned char> bytes = slurp(path);
  bytes.push_back(0xAB);
  spit(path, bytes);
  EXPECT_THROW(
      {
        io::ObsfReader r(path);
        while (r.next_block()) {
        }
      },
      util::CorruptionError);
  std::remove(path.c_str());
}

// Data blocks are always framed per column (block_codec 1); block_codec 0
// belongs to the sentinel. A data block in the plain layout is rejected even
// under a correct CRC: strict mode throws, recover mode stops before it.
TEST(ObsfFaultMatrix, UnframedDataBlockIsRejected) {
  const std::string path = temp_path("odlp_obsf_unframed.obsf");
  io::Schema schema;
  schema.columns = {{"x", io::ColumnType::kU64, io::ColumnCodec::kFlat}};
  io::ObsfWriter::Options wo;
  wo.block_rows = 1;
  {
    io::ObsfWriter w(path, schema, wo);
    for (const std::uint64_t v : {7u, 9u}) {
      w.append_u64(v);
      w.end_row();
    }
    w.finish();
  }
  const std::vector<unsigned char> bytes = slurp(path);
  const auto u32_at = [&bytes](std::size_t at) {
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  // Header: five u32 fields, column "x" (type, codec, u16 name_len, name),
  // CRC. A block frame is 17 header bytes + stored_len + a u32 CRC.
  const std::size_t first = 5 * 4 + (1 + 1 + 2 + 1) + 4;
  ASSERT_EQ(u32_at(first), io::kBlockMagic);
  const std::size_t second = first + 21 + u32_at(first + 12);
  ASSERT_EQ(u32_at(second), io::kBlockMagic);
  const std::size_t sentinel = second + 21 + u32_at(second + 12);

  // The second row (9) as a plain block: varint(run length) + run.
  std::vector<unsigned char> block;
  const auto put_u32 = [&block](std::uint32_t v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    block.insert(block.end(), p, p + sizeof(v));
  };
  const std::vector<unsigned char> payload = {1, 9};
  put_u32(io::kBlockMagic);
  put_u32(1);  // rows
  put_u32(static_cast<std::uint32_t>(payload.size()));  // raw_len
  put_u32(static_cast<std::uint32_t>(payload.size()));  // stored_len
  block.push_back(0);                                   // block_codec
  block.insert(block.end(), payload.begin(), payload.end());
  put_u32(util::crc32(block.data() + 4, block.size() - 4));

  std::vector<unsigned char> mut(bytes.begin(), bytes.begin() + second);
  mut.insert(mut.end(), block.begin(), block.end());
  mut.insert(mut.end(), bytes.begin() + sentinel, bytes.end());
  spit(path, mut);

  EXPECT_THROW(
      {
        io::ObsfReader r(path);
        while (r.next_block()) {
        }
      },
      util::CorruptionError);
  io::ObsfReader::Options ro;
  ro.recover = true;
  io::ObsfReader r(path, ro);
  ASSERT_TRUE(r.next_block());
  EXPECT_EQ(r.col_u64(0), std::vector<std::uint64_t>{7});
  EXPECT_FALSE(r.next_block());
  EXPECT_TRUE(r.truncated());
  EXPECT_EQ(r.blocks_read(), 1u);
  std::remove(path.c_str());
}

TEST(ObsfFaultMatrix, RecoverModeKeepsIntactPrefix) {
  const std::string path = temp_path("odlp_obsf_recover.obsf");
  write_all_types(path, 100, /*block_rows=*/20);
  const std::vector<unsigned char> bytes = slurp(path);

  // Torn final data block: cut into the middle of the file body.
  const std::size_t cut_at = bytes.size() - bytes.size() / 4;
  spit(path, {bytes.begin(), bytes.begin() + cut_at});
  io::ObsfReader::Options ro;
  ro.recover = true;
  std::size_t rows = 0, blocks = 0;
  {
    io::ObsfReader r(path, ro);
    while (r.next_block()) {
      rows += r.rows();
      ++blocks;
    }
    EXPECT_TRUE(r.truncated());
  }
  EXPECT_GT(blocks, 0u);
  EXPECT_LT(rows, 100u);
  EXPECT_EQ(rows % 20, 0u);  // whole blocks only

  // Header damage is not recoverable: without an intact schema there is
  // nothing to decode blocks against.
  std::vector<unsigned char> mut = bytes;
  mut[10] ^= 0x01;
  spit(path, mut);
  EXPECT_THROW(io::ObsfReader r(path, ro), util::CorruptionError);
  std::remove(path.c_str());
}

// --- stream capture record/replay ---

data::GeneratedDataset small_dataset(std::uint64_t seed) {
  const auto& dict = lexicon::builtin_dictionary();
  data::UserOracle oracle(seed * 2654435761ull + 1, dict);
  data::Generator gen(data::profile_by_name("MedDialog"), oracle,
                      util::Rng(seed));
  return gen.generate(60, 40);
}

void expect_sets_equal(const data::DialogueSet& a, const data::DialogueSet& b) {
  EXPECT_EQ(a.question, b.question);
  EXPECT_EQ(a.answer, b.answer);
  EXPECT_EQ(a.reference, b.reference);
  EXPECT_EQ(a.true_domain, b.true_domain);
  EXPECT_EQ(a.true_subtopic, b.true_subtopic);
  EXPECT_EQ(a.is_noise, b.is_noise);
  EXPECT_EQ(a.stream_position, b.stream_position);
}

TEST(StreamCapture, RecordThenReplayIsBitIdentical) {
  const std::string path = temp_path("odlp_traffic.obsf");
  const data::GeneratedDataset original = small_dataset(77);
  const io::ObsfWriter::Stats stats = io::record_dataset(original, path);
  EXPECT_EQ(stats.rows, 100u);
  EXPECT_LT(stats.stored_bytes, stats.raw_bytes);  // dialogue text compresses

  const data::GeneratedDataset replayed = io::replay_dataset(path);
  ASSERT_EQ(replayed.stream.size(), original.stream.size());
  ASSERT_EQ(replayed.test.size(), original.test.size());
  for (std::size_t i = 0; i < original.stream.size(); ++i) {
    expect_sets_equal(replayed.stream[i], original.stream[i]);
  }
  for (std::size_t i = 0; i < original.test.size(); ++i) {
    expect_sets_equal(replayed.test[i], original.test[i]);
  }
  std::remove(path.c_str());
}

TEST(StreamCapture, RejectsForeignContainers) {
  const std::string path = temp_path("odlp_traffic_foreign.obsf");
  io::Schema s;
  s.columns = {{"x", io::ColumnType::kU64, io::ColumnCodec::kFlat}};
  {
    io::ObsfWriter w(path, s);
    w.finish();
  }
  EXPECT_THROW(io::ReplayStream rep(path), util::CorruptionError);
  std::remove(path.c_str());
}

// --- buffer v3 + recovery ---

core::BufferEntry make_entry(std::size_t i) {
  core::BufferEntry e;
  e.set.question = "q" + std::to_string(i);
  e.set.answer = "a" + std::to_string(i);
  e.set.reference = "r" + std::to_string(i);
  e.set.true_domain = static_cast<int>(i % 3);
  e.set.true_subtopic = static_cast<int>(i % 2);
  e.set.stream_position = i;
  e.inserted_at = i;
  if (i % 4 != 0) e.dominant_domain = i % 3;
  e.scores = {0.5, 0.25 * static_cast<double>(i), 1.0};
  e.embedding = tensor::Tensor(1, 6, static_cast<float>(i) * 0.125f);
  return e;
}

TEST(BufferV3, SaveWritesObsfAndRoundTrips) {
  const std::string path = temp_path("odlp_buffer_v3.bin");
  core::DataBuffer buf(16);
  for (std::size_t i = 0; i < 9; ++i) buf.add(make_entry(i));

  core::save_buffer(buf, path);
  std::uint32_t magic = 0;
  std::memcpy(&magic, slurp(path).data(), 4);
  EXPECT_EQ(magic, io::kObsfMagic);

  core::DataBuffer loaded = core::load_buffer(path);
  EXPECT_EQ(loaded.capacity(), 16u);
  ASSERT_EQ(loaded.size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    const auto& a = buf.entry(i);
    const auto& b = loaded.entry(i);
    EXPECT_EQ(b.set.question, a.set.question);
    EXPECT_EQ(b.dominant_domain, a.dominant_domain);
    EXPECT_DOUBLE_EQ(b.scores.dss, a.scores.dss);
    ASSERT_EQ(b.embedding.cols(), a.embedding.cols());
    for (std::size_t j = 0; j < a.embedding.size(); ++j) {
      EXPECT_FLOAT_EQ(b.embedding.data()[j], a.embedding.data()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(BufferV3, RecoverWalksBackToLastIntactBlock) {
  const std::string path = temp_path("odlp_buffer_recover.bin");
  core::DataBuffer buf(4096);
  for (std::size_t i = 0; i < 2000; ++i) buf.add(make_entry(i));
  core::save_buffer(buf, path);

  // Undamaged: full recovery.
  {
    const core::BufferRecovery rec = core::recover_buffer(path);
    EXPECT_FALSE(rec.truncated);
    EXPECT_EQ(rec.rows_recovered, 2000u);
    EXPECT_EQ(rec.rows_expected, 2000u);
  }

  // Torn tail: strict load throws, recovery keeps an intact prefix.
  const std::vector<unsigned char> bytes = slurp(path);
  spit(path, {bytes.begin(), bytes.begin() + bytes.size() * 3 / 5});
  EXPECT_THROW(core::load_buffer(path), util::CorruptionError);
  const core::BufferRecovery rec = core::recover_buffer(path);
  EXPECT_TRUE(rec.truncated);
  EXPECT_GT(rec.rows_recovered, 0u);
  EXPECT_LT(rec.rows_recovered, 2000u);
  EXPECT_EQ(rec.rows_recovered % 256, 0u);  // whole checkpoint blocks only
  EXPECT_EQ(rec.rows_expected, 2000u);
  for (std::size_t i = 0; i < rec.rows_recovered; ++i) {
    EXPECT_EQ(rec.buffer.entry(i).set.question, "q" + std::to_string(i));
  }
  std::remove(path.c_str());
}

// Every lane of a pool region checkpoints at once (the fleet's per-user
// chunks do this). Writes run on the caller's thread, so no save waits on
// a lane that is itself busy inside the region.
TEST(BufferV3, SaveFromEveryLaneOfARegionCompletes) {
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t saved_lanes = pool.lanes();
  pool.resize(4);
  constexpr std::size_t kChunks = 4;
  std::vector<std::string> paths;
  for (std::size_t c = 0; c < kChunks; ++c) {
    paths.push_back(temp_path("odlp_buffer_lane" + std::to_string(c) + ".bin"));
  }
  pool.parallel_for_slotted(
      0, kChunks, 1, [&](std::size_t b, std::size_t, std::size_t) {
        core::DataBuffer buf(8);
        for (std::size_t i = 0; i < b; ++i) buf.add(make_entry(i));
        core::save_buffer(buf, paths[b]);
      });
  pool.resize(saved_lanes);
  for (std::size_t c = 0; c < kChunks; ++c) {
    const core::DataBuffer loaded = core::load_buffer(paths[c]);
    EXPECT_EQ(loaded.capacity(), 8u);
    EXPECT_EQ(loaded.size(), c);
    std::remove(paths[c].c_str());
  }
}

// --- obs binary sinks ---

TEST(ObsSinks, MetricsObsfRoundTrip) {
  obs::MetricsSnapshot snap;
  {
    obs::MetricSample c;
    c.kind = obs::MetricSample::Kind::kCounter;
    c.name = "test.counter";
    c.counter = 12345;
    snap.samples.push_back(c);
    obs::MetricSample g;
    g.kind = obs::MetricSample::Kind::kGauge;
    g.name = "test.gauge";
    g.gauge = -2.5;
    snap.samples.push_back(g);
    obs::MetricSample h;
    h.kind = obs::MetricSample::Kind::kHistogram;
    h.name = "test.hist";
    h.bounds = {1.0, 10.0, 100.0};
    h.buckets = {4, 3, 2, 1};
    h.hist.count = 10;
    h.hist.sum = 250.0;
    h.hist.min = 0.5;
    h.hist.max = 120.0;
    h.hist.mean = 25.0;
    snap.samples.push_back(h);
  }
  const std::string path = temp_path("odlp_metrics_sink.bin");
  obs::save_metrics(snap, path);
  const obs::MetricsSnapshot back = obs::load_metrics(path);
  ASSERT_EQ(back.samples.size(), 3u);
  EXPECT_EQ(back.counter_value("test.counter"), 12345u);
  EXPECT_DOUBLE_EQ(back.gauge_value("test.gauge"), -2.5);
  const obs::MetricSample* h = back.find("test.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->buckets, (std::vector<std::uint64_t>{4, 3, 2, 1}));
  EXPECT_DOUBLE_EQ(h->hist.sum, 250.0);
  EXPECT_DOUBLE_EQ(h->hist.mean, 25.0);
  std::remove(path.c_str());
}

TEST(ObsSinks, MetricsObsfBitFlipThrows) {
  obs::MetricsSnapshot snap;
  obs::MetricSample c;
  c.kind = obs::MetricSample::Kind::kCounter;
  c.name = "test.flip";
  c.counter = 99;
  snap.samples.push_back(c);
  const std::string path = temp_path("odlp_metrics_flip.bin");
  obs::save_metrics(snap, path);
  std::vector<unsigned char> bytes = slurp(path);
  bytes[bytes.size() / 2] ^= 0x10;
  spit(path, bytes);
  EXPECT_THROW(obs::load_metrics(path), util::CorruptionError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace odlp
