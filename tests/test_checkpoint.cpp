// Crash-safe checkpointing: CRC32, atomic replacement, fault injection,
// checksummed formats, and CheckpointManager recovery.
//
// The fault matrix required by the durability story: round-trips,
// truncation at every byte boundary, single-bit flips across
// header/payload/footer, a crash between one generation's component files,
// and retired file formats — every scenario must either restore the newest
// fully-valid state or raise a typed error; none may crash or silently
// accept corrupt state.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>

#include "core/buffer_io.h"
#include "core/checkpoint.h"
#include "io/obsf.h"
#include "llm/minillm.h"
#include "obs/metrics.h"
#include "text/vocab_io.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/log.h"

namespace fs = std::filesystem;

namespace odlp {
namespace {

// --- helpers -------------------------------------------------------------

std::string temp_path(const std::string& name) { return "/tmp/" + name; }

std::vector<unsigned char> slurp(const std::string& path) {
  return util::read_file(path);
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

core::BufferEntry sample_entry(std::size_t i) {
  core::BufferEntry e;
  e.set.question = "question " + std::to_string(i);
  e.set.answer = "answer " + std::to_string(i);
  e.set.reference = "reference " + std::to_string(i);
  e.set.true_domain = static_cast<int>(i % 3);
  e.set.stream_position = 100 + i;
  e.inserted_at = 10 + i;
  e.annotated = true;
  e.dominant_domain = i % 3;
  e.scores = {0.5, 0.25, 0.75};
  e.embedding = tensor::Tensor(1, 8, static_cast<float>(i) + 0.5f);
  return e;
}

core::DataBuffer sample_buffer(std::size_t entries = 3,
                               std::size_t capacity = 8) {
  core::DataBuffer buf(capacity);
  for (std::size_t i = 0; i < entries; ++i) buf.add(sample_entry(i));
  return buf;
}

llm::ModelConfig tiny_model_config() {
  llm::ModelConfig mc;
  mc.vocab_size = 32;
  mc.dim = 8;
  mc.heads = 2;
  mc.layers = 1;
  mc.ff_hidden = 16;
  mc.max_seq_len = 16;
  return mc;
}

// Raw little-endian writer for hand-building files in retired formats.
struct RawWriter {
  std::vector<unsigned char> bytes;
  template <typename T>
  void pod(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(T));
  }
  void str(const std::string& s) {
    pod<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
  }
  // Appends the whole-file CRC footer (util/atomic_file.h).
  void footer() {
    const std::uint32_t crc = util::crc32(bytes.data(), bytes.size());
    pod(util::kFooterMagic);
    pod(crc);
  }
};

// A complete "ODBF" buffer file of the retired v1 (no footer) or v2 (CRC
// footer) layout, holding one entry.
std::vector<unsigned char> odbf_buffer_file_bytes(std::uint32_t version) {
  RawWriter w;
  w.pod<std::uint32_t>(0x4642444fu);  // "ODBF"
  w.pod<std::uint32_t>(version);
  w.pod<std::uint64_t>(4u);           // capacity
  w.pod<std::uint64_t>(1u);           // count
  w.str("legacy question");
  w.str("legacy answer");
  w.str("legacy reference");
  w.pod<std::int32_t>(1);
  w.pod<std::int32_t>(0);
  w.pod<std::uint8_t>(0);
  w.pod<std::uint64_t>(7u);    // stream_position
  w.pod<std::uint64_t>(3u);    // inserted_at
  w.pod<std::uint8_t>(1);      // annotated
  w.pod<std::int64_t>(-1);     // dominant_domain: none
  w.pod<double>(0.1);
  w.pod<double>(0.2);
  w.pod<double>(0.3);
  w.pod<std::uint64_t>(4u);    // embedding cols
  for (int i = 0; i < 4; ++i) w.pod<float>(1.25f * static_cast<float>(i));
  if (version == 2) w.footer();
  return w.bytes;
}

// Writes a v3 (OBSF) buffer file with the real column schema but
// hand-chosen header metadata, holding `rows` entries whose embedding cell
// is `embedding` raw bytes — inputs save_buffer itself can never produce.
void write_buffer_v3(const std::string& path, const std::string& meta,
                     std::size_t rows, const std::string& embedding) {
  core::save_buffer(sample_buffer(1), path);
  io::Schema schema = io::ObsfReader(path).schema();
  schema.meta = meta;
  io::ObsfWriter w(path, schema);
  for (std::size_t i = 0; i < rows; ++i) {
    w.append_bytes("question");
    w.append_bytes("answer");
    w.append_bytes("reference");
    w.append_i64(0);   // true_domain
    w.append_i64(0);   // true_subtopic
    w.append_u8(0);    // is_noise
    w.append_u64(i);   // position
    w.append_u64(i);   // inserted_at
    w.append_u8(1);    // annotated
    w.append_i64(-1);  // dominant_domain
    w.append_f64(0.1);
    w.append_f64(0.2);
    w.append_f64(0.3);
    w.append_bytes(embedding);
    w.end_row();
  }
  w.finish();
}

// A schedule holding one scripted fault.
util::fault::FaultSchedule one_fault(const util::fault::FaultEvent& event) {
  util::fault::FaultSchedule schedule;
  schedule.events.push_back(event);
  return schedule;
}

// --- CRC32 ---------------------------------------------------------------

TEST(Crc32, MatchesKnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(util::crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  util::Crc32 acc;
  acc.update(data.data(), 10);
  acc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(acc.value(), util::crc32(data.data(), data.size()));
  EXPECT_EQ(util::crc32(data.data(), data.size(), 0), acc.value());
}

// --- atomic replacement --------------------------------------------------

TEST(AtomicFile, CommitReplacesDestination) {
  const std::string path = temp_path("odlp_atomic_commit.bin");
  spit(path, {'o', 'l', 'd'});
  {
    util::AtomicFileWriter out(path);
    out.write("new!", 4);
    out.commit();
  }
  const auto bytes = slurp(path);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "new!");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFile, UncommittedWriterLeavesDestinationIntact) {
  const std::string path = temp_path("odlp_atomic_uncommitted.bin");
  spit(path, {'o', 'l', 'd'});
  {
    util::AtomicFileWriter out(path);
    out.write("half-written", 12);
    // no commit: simulated crash before rename
  }
  const auto bytes = slurp(path);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "old");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicFile, InjectedWriteFaultLeavesDestinationIntact) {
  const std::string path = temp_path("odlp_atomic_fault.bin");
  spit(path, {'o', 'l', 'd'});
  {
    util::fault::ScopedSchedule fault(
        one_fault({util::fault::FaultKind::kWriteFail, "odlp_atomic_fault",
                   /*at=*/1, /*param=*/0, /*once=*/true}));
    auto torn_write = [&] {
      util::AtomicFileWriter out(path);
      out.write("first", 5);
      out.write("second", 6);  // dies here
      out.commit();
    };
    EXPECT_THROW(torn_write(), util::fault::InjectedFault);
  }
  const auto bytes = slurp(path);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "old");
  std::remove(path.c_str());
}

TEST(AtomicFile, CommitFaultCorruptionIsDetectedByFooter) {
  const std::string path = temp_path("odlp_atomic_bitrot.bin");
  {
    util::fault::ScopedSchedule fault(
        one_fault({util::fault::FaultKind::kBitFlip, "odlp_atomic_bitrot",
                   /*at=*/0, /*param=*/5 * 8 + 2,  // byte 5, bit 2
                   /*once=*/false}));
    util::AtomicFileWriter out(path);
    out.write("payload payload payload", 23);
    out.write_footer();
    out.commit();
  }
  const auto bytes = slurp(path);
  EXPECT_THROW(util::check_footer(bytes, "test"), util::CorruptionError);
  std::remove(path.c_str());
}

// --- buffer format v2 ----------------------------------------------------

TEST(BufferIoV2, TruncationAtEveryByteFailsCleanly) {
  const std::string path = temp_path("odlp_buf_trunc_matrix.bin");
  core::save_buffer(sample_buffer(), path);
  const auto full = slurp(path);
  ASSERT_GT(full.size(), 16u);
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    spit(path, std::vector<unsigned char>(full.begin(), full.begin() + keep));
    EXPECT_THROW(core::load_buffer(path), std::runtime_error)
        << "truncation to " << keep << " bytes was silently accepted";
  }
  std::remove(path.c_str());
}

TEST(BufferIoV2, SingleBitFlipAnywhereFailsCleanly) {
  const std::string path = temp_path("odlp_buf_flip_matrix.bin");
  core::save_buffer(sample_buffer(), path);
  const auto full = slurp(path);
  // Header, payload, and footer bytes all flip; stride keeps runtime low
  // while still covering every region (footer = last 8 bytes).
  for (std::size_t byte = 0; byte < full.size();
       byte += (byte < 16 || byte + 9 > full.size()) ? 1 : 7) {
    auto corrupt = full;
    corrupt[byte] ^= 0x10;
    spit(path, corrupt);
    EXPECT_THROW(core::load_buffer(path), std::runtime_error)
        << "bit flip at byte " << byte << " was silently accepted";
  }
  std::remove(path.c_str());
}

TEST(BufferIoV2, TrailingGarbageFailsCleanly) {
  const std::string path = temp_path("odlp_buf_trailing.bin");
  core::save_buffer(sample_buffer(), path);
  auto bytes = slurp(path);
  bytes.push_back(0xAB);
  spit(path, bytes);
  EXPECT_THROW(core::load_buffer(path), util::CorruptionError);
  std::remove(path.c_str());
}

// Each case below feeds one inconsistency through a v3 container whose
// blocks and CRCs are all valid, so only the loader's own checks stand
// between the input and a bad allocation or a bogus buffer.

TEST(BufferIoLegacy, CountBeyondCapacityRejected) {
  const std::string path = temp_path("odlp_buf_badcount.bin");
  const std::string emb(8 * sizeof(float), '\0');
  // The header claims more rows than the buffer can hold.
  write_buffer_v3(path, "odlp.buffer.v3;capacity=2;count=50", 0, emb);
  EXPECT_THROW(core::load_buffer(path), util::CorruptionError);
  EXPECT_THROW(core::recover_buffer(path), util::CorruptionError);
  // The header is consistent, but the blocks hold more rows than capacity.
  write_buffer_v3(path, "odlp.buffer.v3;capacity=2;count=2", 3, emb);
  EXPECT_THROW(core::load_buffer(path), util::CorruptionError);
  EXPECT_THROW(core::recover_buffer(path), util::CorruptionError);
  std::remove(path.c_str());
}

TEST(BufferIoLegacy, CorruptLengthPrefixFailsWithoutHugeAllocation) {
  const std::string path = temp_path("odlp_buf_badlen.bin");
  // A capacity of 2^40 bins would reserve terabytes if trusted. Must be a
  // clean typed error, not bad_alloc.
  write_buffer_v3(path, "odlp.buffer.v3;capacity=1099511627776;count=1", 1,
                  std::string(8 * sizeof(float), '\0'));
  EXPECT_THROW(core::load_buffer(path), util::CorruptionError);
  EXPECT_THROW(core::recover_buffer(path), util::CorruptionError);
  std::remove(path.c_str());
}

TEST(BufferIoLegacy, EmbeddingWiderThanFileRejected) {
  const std::string path = temp_path("odlp_buf_badcols.bin");
  const std::string meta = "odlp.buffer.v3;capacity=4;count=1";
  // A byte length that is not a whole number of floats.
  write_buffer_v3(path, meta, 1, std::string(4 * sizeof(float) + 3, '\0'));
  EXPECT_THROW(core::load_buffer(path), util::CorruptionError);
  EXPECT_THROW(core::recover_buffer(path), util::CorruptionError);
  // One float wider than the embedding-width cap (2^20 columns).
  write_buffer_v3(path, meta, 1,
                  std::string(((1u << 20) + 1) * sizeof(float), '\0'));
  EXPECT_THROW(core::load_buffer(path), util::CorruptionError);
  EXPECT_THROW(core::recover_buffer(path), util::CorruptionError);
  std::remove(path.c_str());
}

// --- vocab format --------------------------------------------------------

TEST(VocabIoV2, ChecksumTrailerRoundTripsAndDetectsCorruption) {
  const std::string path = temp_path("odlp_vocab_v2.txt");
  text::Vocab vocab;
  vocab.add("dose");
  vocab.add("vial");
  text::save_vocab(vocab, path);

  const text::Vocab loaded = text::load_vocab(path);
  EXPECT_EQ(loaded.id("vial"), vocab.id("vial"));

  // Corrupt one word byte: the trailer CRC must catch it.
  auto bytes = slurp(path);
  const std::string content(bytes.begin(), bytes.end());
  const std::size_t pos = content.find("dose");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = 'x';
  spit(path, bytes);
  EXPECT_THROW(text::load_vocab(path), util::CorruptionError);
  std::remove(path.c_str());
}

TEST(VocabIo, TruncationAtEveryByteIsRejected) {
  const std::string path = temp_path("odlp_vocab_trunc_matrix.txt");
  text::Vocab vocab;
  vocab.add("dose");
  vocab.add("vial");
  vocab.add("rash");
  text::save_vocab(vocab, path);
  const auto full = slurp(path);
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    spit(path, std::vector<unsigned char>(full.begin(), full.begin() + keep));
    EXPECT_THROW(text::load_vocab(path), util::CorruptionError)
        << "truncation to " << keep << " of " << full.size()
        << " bytes was silently accepted";
  }
  std::remove(path.c_str());
}

TEST(VocabIo, SingleBitFlipAnywhereIsRejected) {
  const std::string path = temp_path("odlp_vocab_flip_matrix.txt");
  text::Vocab vocab;
  vocab.add("dose");
  vocab.add("vial");
  vocab.add("rash");
  text::save_vocab(vocab, path);
  const auto full = slurp(path);
  for (std::size_t bit = 0; bit < 8 * full.size(); ++bit) {
    auto corrupt = full;
    corrupt[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    spit(path, corrupt);
    EXPECT_THROW(text::load_vocab(path), util::CorruptionError)
        << "flip of bit " << bit << " was silently accepted";
  }
  std::remove(path.c_str());
}

// --- model format --------------------------------------------------------

TEST(ModelIoV2, CorruptionDetectedAndModelLeftUntouched) {
  const std::string path = temp_path("odlp_model_v2.bin");
  llm::MiniLlm model(tiny_model_config(), 42);
  model.save(path);

  auto bytes = slurp(path);
  bytes[bytes.size() / 2] ^= 0x01;  // payload bit flip
  spit(path, bytes);

  llm::MiniLlm other(tiny_model_config(), 43);
  const float before = other.parameters()[0]->value.data()[0];
  EXPECT_THROW(other.load(path), util::CorruptionError);
  EXPECT_FLOAT_EQ(other.parameters()[0]->value.data()[0], before);

  // Truncation is also typed, never UB.
  spit(path, std::vector<unsigned char>(bytes.begin(),
                                        bytes.begin() + bytes.size() / 3));
  EXPECT_THROW(other.load(path), util::CorruptionError);
  std::remove(path.c_str());
}

TEST(ModelIoV2, RoundTripRestoresParameters) {
  const std::string path = temp_path("odlp_model_rt.bin");
  llm::MiniLlm model(tiny_model_config(), 42);
  model.save(path);
  llm::MiniLlm other(tiny_model_config(), 1234);
  other.load(path);
  const auto a = model.parameters();
  const auto b = other.parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i]->value.size(), b[i]->value.size());
    for (std::size_t j = 0; j < a[i]->value.size(); ++j) {
      ASSERT_FLOAT_EQ(a[i]->value.data()[j], b[i]->value.data()[j]);
    }
  }
  std::remove(path.c_str());
}

// --- retired formats -----------------------------------------------------

// Every file layout this repo no longer writes is rejected as corrupt, even
// when it is complete and its own checksum verifies.
TEST(RetiredFormats, HeadersAreRejected) {
  const std::string path = temp_path("odlp_retired_format.bin");

  spit(path, odbf_buffer_file_bytes(1));
  EXPECT_THROW(core::load_buffer(path), util::CorruptionError) << "ODBF v1";
  EXPECT_THROW(core::recover_buffer(path), util::CorruptionError);
  spit(path, odbf_buffer_file_bytes(2));
  EXPECT_THROW(core::load_buffer(path), util::CorruptionError) << "ODBF v2";
  EXPECT_THROW(core::recover_buffer(path), util::CorruptionError);

  {  // "ODMX" metrics snapshot: one counter.
    RawWriter w;
    w.pod<std::uint32_t>(0x584d444fu);  // "ODMX"
    w.pod<std::uint32_t>(1u);           // version
    w.pod<std::uint32_t>(1u);           // samples
    w.pod<std::uint8_t>(0);             // kind: counter
    w.str("test.counter");
    w.pod<std::uint64_t>(7u);
    w.footer();
    spit(path, w.bytes);
    EXPECT_THROW(obs::load_metrics(path), util::CorruptionError) << "ODMX";
  }

  {  // Unchecksummed "ODLP" model weights.
    llm::MiniLlm model(tiny_model_config(), 42);
    RawWriter w;
    w.pod<std::uint32_t>(0x4f444c50u);  // "ODLP"
    const auto params = model.parameters();
    w.pod<std::uint64_t>(params.size());
    for (const auto* p : params) {
      w.pod<std::uint64_t>(p->value.rows());
      w.pod<std::uint64_t>(p->value.cols());
      for (std::size_t j = 0; j < p->value.size(); ++j) {
        w.pod<float>(p->value.data()[j]);
      }
    }
    spit(path, w.bytes);
    llm::MiniLlm other(tiny_model_config(), 99);
    EXPECT_THROW(other.load(path), util::CorruptionError) << "ODLP";
  }

  {  // Engine stats version 1 (no finetune_skipped field).
    RawWriter w;
    w.pod<std::uint32_t>(0x5453444fu);  // "ODST"
    w.pod<std::uint32_t>(1u);
    for (int i = 0; i < 11; ++i) w.pod<std::uint64_t>(i);
    w.pod<double>(1.5);
    w.footer();
    spit(path, w.bytes);
    EXPECT_THROW(core::load_engine_stats(path), util::CorruptionError)
        << "stats v1";
  }
  std::remove(path.c_str());
}

// --- CheckpointManager ---------------------------------------------------

struct CheckpointFixture : ::testing::Test {
  std::string dir;
  llm::MiniLlm model{tiny_model_config(), 42};
  text::Vocab vocab;

  void SetUp() override {
    // Per-test directory: ctest runs gtest cases as separate parallel
    // processes, so a shared path would let one test's SetUp wipe another's
    // live checkpoint directory.
    dir = std::string("/tmp/odlp_ckpt_test_") +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir);
    vocab.add("alpha");
    vocab.add("beta");
    vocab.freeze();
    // The recovery tests deliberately corrupt generations; silence the
    // expected log_warn chatter.
    util::set_log_level(util::LogLevel::kError);
  }
  void TearDown() override {
    fs::remove_all(dir);
    util::set_log_level(util::LogLevel::kInfo);
  }

  core::EngineStats stats_with_seen(std::size_t seen) {
    core::EngineStats s;
    s.seen = seen;
    s.quarantined = 2;
    s.last_train_loss = 1.5;
    return s;
  }
};

TEST_F(CheckpointFixture, SaveRestoreRoundTrip) {
  core::CheckpointManager ckpt(dir, 3);
  const auto gen = ckpt.save(model, sample_buffer(), vocab, stats_with_seen(60));
  EXPECT_EQ(gen, 1u);
  EXPECT_GT(ckpt.generation_bytes(gen), 0u);

  llm::MiniLlm fresh(tiny_model_config(), 7);
  const auto restored = ckpt.restore(fresh);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->generation, 1u);
  EXPECT_EQ(restored->buffer.size(), 3u);
  EXPECT_EQ(restored->stats.seen, 60u);
  EXPECT_EQ(restored->stats.quarantined, 2u);
  EXPECT_TRUE(restored->vocab.contains("beta"));
  EXPECT_FLOAT_EQ(fresh.parameters()[0]->value.data()[0],
                  model.parameters()[0]->value.data()[0]);
}

TEST_F(CheckpointFixture, PruneKeepsNewestK) {
  core::CheckpointManager ckpt(dir, 2);
  for (int i = 0; i < 4; ++i) {
    ckpt.save(model, sample_buffer(), vocab, stats_with_seen(i));
  }
  const auto gens = ckpt.generations();
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 3u);
  EXPECT_EQ(gens[1], 4u);
}

TEST_F(CheckpointFixture, BitFlippedGenerationIsSkipped) {
  core::CheckpointManager ckpt(dir, 3);
  ckpt.save(model, sample_buffer(2), vocab, stats_with_seen(10));
  ckpt.save(model, sample_buffer(3), vocab, stats_with_seen(20));

  // Bit-rot the newest generation's buffer file.
  const std::string victim = dir + "/gen-000002/buffer.bin";
  auto bytes = slurp(victim);
  bytes[bytes.size() / 2] ^= 0x40;
  spit(victim, bytes);

  llm::MiniLlm fresh(tiny_model_config(), 7);
  const auto restored = ckpt.restore(fresh);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->generation, 1u);
  EXPECT_EQ(restored->stats.seen, 10u);
}

TEST_F(CheckpointFixture, TruncatedGenerationIsSkipped) {
  core::CheckpointManager ckpt(dir, 3);
  ckpt.save(model, sample_buffer(), vocab, stats_with_seen(10));
  ckpt.save(model, sample_buffer(), vocab, stats_with_seen(20));
  const std::string victim = dir + "/gen-000002/model.bin";
  const auto bytes = slurp(victim);
  spit(victim, std::vector<unsigned char>(bytes.begin(),
                                          bytes.begin() + bytes.size() / 2));
  llm::MiniLlm fresh(tiny_model_config(), 7);
  const auto restored = ckpt.restore(fresh);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->generation, 1u);
}

TEST_F(CheckpointFixture, CrashBetweenComponentFilesRollsBack) {
  core::CheckpointManager ckpt(dir, 3);
  ckpt.save(model, sample_buffer(), vocab, stats_with_seen(10));

  // Power loss while writing generation 2's buffer file: model.bin was
  // already committed, buffer.bin dies mid-write, the manifest is never
  // written — the generation must not become a restore target.
  {
    util::fault::ScopedSchedule fault(
        one_fault({util::fault::FaultKind::kWriteFail, "buffer.bin",
                   /*at=*/2, /*param=*/0, /*once=*/true}));
    EXPECT_THROW(
        ckpt.save(model, sample_buffer(), vocab, stats_with_seen(20)),
        util::fault::InjectedFault);
  }
  EXPECT_TRUE(fs::exists(dir + "/gen-000002/model.bin"));
  EXPECT_FALSE(fs::exists(dir + "/gen-000002/MANIFEST"));

  llm::MiniLlm fresh(tiny_model_config(), 7);
  const auto restored = ckpt.restore(fresh);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->generation, 1u);
  EXPECT_EQ(restored->stats.seen, 10u);

  // The next save after the crash still advances the generation counter and
  // becomes the restore target.
  const auto gen3 = ckpt.save(model, sample_buffer(), vocab,
                              stats_with_seen(30));
  EXPECT_EQ(gen3, 3u);
  const auto again = ckpt.restore(fresh);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->generation, 3u);
}

TEST_F(CheckpointFixture, TornCommitViaTruncateFaultIsSkipped) {
  core::CheckpointManager ckpt(dir, 3);
  ckpt.save(model, sample_buffer(), vocab, stats_with_seen(10));
  // Generation 2's stats file loses its tail *after* the rename (torn
  // sector persisted across power loss); the manifest CRC check catches it.
  std::uint64_t gen2 = 0;
  {
    util::fault::ScopedSchedule fault(
        one_fault({util::fault::FaultKind::kTruncate, "stats.bin",
                   /*at=*/0, /*param=*/10, /*once=*/false}));
    // The manifest is built from the already-truncated file contents only
    // if written afterwards — but save() reads files back when building the
    // manifest, so corrupt the file after the full save instead.
    gen2 = ckpt.save(model, sample_buffer(), vocab, stats_with_seen(20));
  }
  // truncate fires on commit of stats.bin, *before* the manifest records
  // sizes — so the manifest stored the truncated reality and generation 2
  // still verifies... unless loading the stats file fails. restore() must
  // then fall back to generation 1 via its parse-failure path.
  llm::MiniLlm fresh(tiny_model_config(), 7);
  const auto restored = ckpt.restore(fresh);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->generation, 1u);
  (void)gen2;
}

TEST_F(CheckpointFixture, FourEntryManifestGenerationIsSkipped) {
  core::CheckpointManager ckpt(dir, 3);
  ckpt.save(model, sample_buffer(), vocab, stats_with_seen(10));
  ckpt.save(model, sample_buffer(), vocab, stats_with_seen(20));

  // Rewrite generation 2 as a pre-metrics generation: a CRC-valid manifest
  // listing only the first four components, and no metrics.bin.
  const std::string gen2 = dir + "/gen-000002";
  RawWriter w;
  w.pod<std::uint32_t>(0x464d444fu);  // "ODMF"
  w.pod<std::uint32_t>(1u);           // version
  w.pod<std::uint64_t>(2u);           // generation
  w.pod<std::uint32_t>(4u);           // files
  for (const char* name : {"model.bin", "buffer.bin", "vocab.txt",
                           "stats.bin"}) {
    const auto file = slurp(gen2 + "/" + name);
    w.str(name);
    w.pod<std::uint64_t>(file.size());
    w.pod<std::uint32_t>(util::crc32(file.data(), file.size()));
  }
  w.footer();
  spit(gen2 + "/MANIFEST", w.bytes);
  fs::remove(gen2 + "/metrics.bin");

  const auto newest = ckpt.newest_valid();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->generation, 1u);
  llm::MiniLlm fresh(tiny_model_config(), 7);
  const auto restored = ckpt.restore(fresh);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->generation, 1u);
  EXPECT_EQ(restored->stats.seen, 10u);
}

TEST_F(CheckpointFixture, EmptyDirectoryRestoresNothing) {
  core::CheckpointManager ckpt(dir, 3);
  llm::MiniLlm fresh(tiny_model_config(), 7);
  EXPECT_FALSE(ckpt.newest_valid().has_value());
  EXPECT_FALSE(ckpt.restore(fresh).has_value());
}

}  // namespace
}  // namespace odlp
