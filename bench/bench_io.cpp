// OBSF container bench (DESIGN.md §14): binary columnar storage vs the
// text/JSON path, plus record-once/replay-many fleet traffic.
//
// Measures:
//   * crc32 (slice-by-8) and LZ4 block codec throughput on dialogue-shaped
//     payloads — the two primitives every OBSF byte passes through.
//   * OBSF vs JSONL on the same dialogue traffic: write MB/s, routing-scan
//     MB/s (projected read of the scheduler-visible columns), full
//     materialization MB/s, bytes at rest. The JSONL baseline is honest —
//     escape-correct writer and a real parser whose output is verified
//     equal to the input — not a strawman.
//   * Buffer checkpoint size: bytes at rest of a 1024-bin OBSF v3 buffer.
//   * Record-once/replay-many: the SAME fleet workload run twice through
//     exp::run_fleet with a traffic_dir — first run generates and records,
//     second run replays — verifying the replayed run's per-user results
//     are bit-identical to the generated run's.
//
// Exits non-zero — failing run_benches.sh — if the replayed fleet diverges,
// if OBSF stream read throughput is below 5x the JSONL path, or if OBSF
// bytes-at-rest exceed 0.5x the JSONL bytes. Writes results/BENCH_io.json
// (merged into BENCH_perf.json by run_benches.sh); override with --out.
//
// Flags: --quick, --seed N, --out PATH.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/buffer.h"
#include "core/buffer_io.h"
#include "data/generator.h"
#include "data/profiles.h"
#include "data/user_oracle.h"
#include "exp/fleet.h"
#include "io/lz4.h"
#include "io/obsf.h"
#include "io/stream_capture.h"
#include "lexicon/lexicon.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace odlp;

namespace {

// --- JSONL baseline -------------------------------------------------------

void json_escape(const std::string& s, std::string& out) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// One dialogue set per line, stream sets then test sets (split flag `t`).
std::size_t write_jsonl(const data::GeneratedDataset& ds,
                        const std::string& path) {
  std::string out;
  const auto emit = [&out](const data::DialogueSet& s, bool test) {
    out += "{\"q\":\"";
    json_escape(s.question, out);
    out += "\",\"a\":\"";
    json_escape(s.answer, out);
    out += "\",\"r\":\"";
    json_escape(s.reference, out);
    out += "\",\"d\":" + std::to_string(s.true_domain);
    out += ",\"s\":" + std::to_string(s.true_subtopic);
    out += ",\"n\":" + std::to_string(s.is_noise ? 1 : 0);
    out += ",\"p\":" + std::to_string(s.stream_position);
    out += ",\"t\":" + std::to_string(test ? 1 : 0);
    out += "}\n";
  };
  for (const auto& s : ds.stream) emit(s, false);
  for (const auto& s : ds.test) emit(s, true);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("bench_io: cannot open " + path);
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return out.size();
}

// Minimal escape-correct parser for the exact writer above: expects the
// fixed key order, unescapes strings, parses integers.
data::GeneratedDataset read_jsonl(const std::string& path) {
  const std::vector<unsigned char> bytes = util::read_file(path);
  const char* p = reinterpret_cast<const char*>(bytes.data());
  const char* end = p + bytes.size();
  data::GeneratedDataset ds;

  const auto expect = [&p, end](const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end - p) < n || std::memcmp(p, lit, n) != 0) {
      throw std::runtime_error("bench_io: malformed JSONL");
    }
    p += n;
  };
  const auto parse_string = [&p, end](std::string& out) {
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        if (++p >= end) throw std::runtime_error("bench_io: bad escape");
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end - p < 5) throw std::runtime_error("bench_io: bad \\u");
            out += static_cast<char>(std::strtol(
                std::string(p + 1, p + 5).c_str(), nullptr, 16));
            p += 4;
            break;
          }
          default: throw std::runtime_error("bench_io: bad escape");
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    ++p;  // closing quote
  };
  const auto parse_int = [&p]() {
    char* after = nullptr;
    const long long v = std::strtoll(p, &after, 10);
    p = after;
    return v;
  };

  while (p < end && *p == '{') {
    data::DialogueSet s;
    expect("{\"q\":\"");
    parse_string(s.question);
    expect(",\"a\":\"");
    parse_string(s.answer);
    expect(",\"r\":\"");
    parse_string(s.reference);
    expect(",\"d\":");
    s.true_domain = static_cast<int>(parse_int());
    expect(",\"s\":");
    s.true_subtopic = static_cast<int>(parse_int());
    expect(",\"n\":");
    s.is_noise = parse_int() != 0;
    expect(",\"p\":");
    s.stream_position = static_cast<std::size_t>(parse_int());
    expect(",\"t\":");
    const bool test = parse_int() != 0;
    expect("}\n");
    (test ? ds.test : ds.stream).push_back(std::move(s));
  }
  if (p != end) throw std::runtime_error("bench_io: trailing JSONL bytes");
  return ds;
}

// --- scan consumers -------------------------------------------------------
// The gated read path is a *routing scan*: the per-record metadata the fleet
// scheduler inspects on every stream step (position, split, domain,
// subtopic, noise flag) without materializing the dialogue text. Both
// storage paths feed the same FNV-style aggregate over those fields, and
// the aggregates must match exactly. This is where the columnar layout
// earns its keep: OBSF decodes only the five narrow columns it touches
// (the per-column LZ4 runs for the text are never decompressed), while the
// row-major JSONL side has no choice but to walk every byte of every line
// — escape-aware string skipping is the cheapest correct thing a text
// format can do.

std::uint64_t mix_routing(std::uint64_t h, std::uint64_t pos,
                          std::int64_t dom, std::int64_t sub, bool test,
                          bool noise) {
  h ^= pos + static_cast<std::uint64_t>(dom) * 3 +
       static_cast<std::uint64_t>(sub) * 5 + (test ? 7 : 0) +
       (noise ? 11 : 0) + 0x9e3779b97f4a7c15ull;
  h *= 1099511628211ull;
  return h;
}

std::uint64_t scan_obsf(const std::string& path, std::size_t& rows_out) {
  io::ObsfReader r(path);
  std::uint64_t h = 1469598103934665603ull;
  rows_out = 0;
  while (r.next_block()) {
    const auto& pos = r.col_u64(0);
    const auto& split = r.col_u8(1);
    const auto& dom = r.col_i64(5);
    const auto& sub = r.col_i64(6);
    const auto& noise = r.col_u8(7);
    for (std::size_t k = 0; k < r.rows(); ++k) {
      h = mix_routing(h, pos[k], dom[k], sub[k], split[k] != 0,
                      noise[k] != 0);
    }
    rows_out += r.rows();
  }
  return h;
}

std::uint64_t scan_jsonl(const std::string& path, std::size_t& rows_out) {
  const std::vector<unsigned char> bytes = util::read_file(path);
  const char* p = reinterpret_cast<const char*>(bytes.data());
  const char* end = p + bytes.size();
  std::uint64_t h = 1469598103934665603ull;
  rows_out = 0;

  const auto expect = [&p, end](const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end - p) < n || std::memcmp(p, lit, n) != 0) {
      throw std::runtime_error("bench_io: malformed JSONL");
    }
    p += n;
  };
  // Escape-aware skip without unescaping: the scan needs only the numeric
  // fields, so the string values are stepped over, not decoded.
  const auto skip_string = [&p, end]() {
    while (p < end && *p != '"') {
      if (*p == '\\') {
        if (++p >= end) throw std::runtime_error("bench_io: bad escape");
      }
      ++p;
    }
    if (p >= end) throw std::runtime_error("bench_io: unterminated string");
    ++p;  // closing quote
  };
  const auto parse_int = [&p]() {
    char* after = nullptr;
    const long long v = std::strtoll(p, &after, 10);
    p = after;
    return v;
  };

  while (p < end && *p == '{') {
    expect("{\"q\":\"");
    skip_string();
    expect(",\"a\":\"");
    skip_string();
    expect(",\"r\":\"");
    skip_string();
    expect(",\"d\":");
    const std::int64_t dom = parse_int();
    expect(",\"s\":");
    const std::int64_t sub = parse_int();
    expect(",\"n\":");
    const bool noise = parse_int() != 0;
    expect(",\"p\":");
    const std::uint64_t pos = static_cast<std::uint64_t>(parse_int());
    expect(",\"t\":");
    const bool test = parse_int() != 0;
    expect("}\n");
    h = mix_routing(h, pos, dom, sub, test, noise);
    ++rows_out;
  }
  return h;
}

// --- helpers --------------------------------------------------------------

bool sets_equal(const data::DialogueSet& a, const data::DialogueSet& b) {
  return a.question == b.question && a.answer == b.answer &&
         a.reference == b.reference && a.true_domain == b.true_domain &&
         a.true_subtopic == b.true_subtopic && a.is_noise == b.is_noise &&
         a.stream_position == b.stream_position;
}

bool datasets_equal(const data::GeneratedDataset& a,
                    const data::GeneratedDataset& b) {
  if (a.stream.size() != b.stream.size() || a.test.size() != b.test.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.stream.size(); ++i) {
    if (!sets_equal(a.stream[i], b.stream[i])) return false;
  }
  for (std::size_t i = 0; i < a.test.size(); ++i) {
    if (!sets_equal(a.test[i], b.test[i])) return false;
  }
  return true;
}

// Logical payload: the bytes a consumer actually receives. Both storage
// paths are rated in MB/s of THIS, so framing overhead hurts, never helps.
std::size_t logical_bytes(const data::GeneratedDataset& ds) {
  std::size_t n = 0;
  const auto add = [&n](const data::DialogueSet& s) {
    n += s.question.size() + s.answer.size() + s.reference.size() +
         2 * sizeof(int) + sizeof(std::size_t) + 1;
  };
  for (const auto& s : ds.stream) add(s);
  for (const auto& s : ds.test) add(s);
  return n;
}

bool fleet_users_identical(const std::vector<exp::ExperimentResult>& a,
                           const std::vector<exp::ExperimentResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t u = 0; u < a.size(); ++u) {
    if (a[u].final_rouge != b[u].final_rouge) return false;
    if (a[u].final_per_set != b[u].final_per_set) return false;
    if (a[u].curve.seen() != b[u].curve.seen()) return false;
    if (a[u].curve.rouge() != b[u].curve.rouge()) return false;
    if (a[u].engine_stats.seen != b[u].engine_stats.seen) return false;
    if (a[u].annotation_requests != b[u].annotation_requests) return false;
  }
  return true;
}

double mbps(std::size_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  std::string out_path = "results/BENCH_io.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  bench::print_header(
      "io / OBSF container",
      "columnar blocks + LZ4 vs the JSONL text path; record/replay fleet",
      opt);

  const std::string scratch =
      "/tmp/odlp_bench_io_" + std::to_string(::getpid());
  std::filesystem::create_directories(scratch);
  int exit_code = 0;

  // --- primitive throughput ----------------------------------------------
  // crc32 over a buffer sized so it streams from memory, not L1.
  const std::size_t crc_bytes = opt.quick ? (8u << 20) : (64u << 20);
  std::vector<unsigned char> crc_buf(crc_bytes);
  util::Rng crc_rng(opt.seed);
  for (auto& b : crc_buf) b = static_cast<unsigned char>(crc_rng.next_u64());
  std::uint32_t crc_sink = 0;
  util::Stopwatch crc_sw;
  const int crc_passes = 5;
  for (int i = 0; i < crc_passes; ++i) {
    crc_sink ^= util::crc32(crc_buf.data(), crc_buf.size(), crc_sink);
  }
  const double crc_gbps =
      static_cast<double>(crc_bytes) * crc_passes / 1e9 /
      crc_sw.elapsed_seconds();
  // PCLMUL folding when the host supports it, slice-by-8 tables otherwise.
  std::printf("crc32:                %7.2f GB/s   (sink %08x)\n", crc_gbps,
              crc_sink);

  // LZ4 on dialogue-shaped text (the payload the container actually sees).
  const auto& dict = lexicon::builtin_dictionary();
  data::UserOracle lz_oracle(opt.seed * 2654435761ull + 1, dict);
  data::Generator lz_gen(data::profile_by_name("MedDialog"), lz_oracle,
                         util::Rng(opt.seed));
  std::string corpus;
  while (corpus.size() < (opt.quick ? (1u << 20) : (8u << 20))) {
    const data::DialogueSet s = lz_gen.make_informative(
        corpus.size() % dict.num_domains(), 0);
    corpus += s.question;
    corpus += ' ';
    corpus += s.reference;
    corpus += '\n';
  }
  std::vector<std::uint8_t> lz_dst(io::lz4_max_compressed_size(corpus.size()));
  util::Stopwatch comp_sw;
  const int lz_passes = opt.quick ? 3 : 5;
  std::size_t lz_csize = 0;
  for (int i = 0; i < lz_passes; ++i) {
    lz_csize = io::lz4_compress(
        reinterpret_cast<const std::uint8_t*>(corpus.data()), corpus.size(),
        lz_dst.data());
  }
  const double lz_comp_mbps =
      mbps(corpus.size() * lz_passes, comp_sw.elapsed_seconds());
  std::vector<std::uint8_t> lz_back(corpus.size());
  util::Stopwatch dec_sw;
  for (int i = 0; i < lz_passes; ++i) {
    io::lz4_decompress(lz_dst.data(), lz_csize, lz_back.data(),
                       lz_back.size());
  }
  const double lz_dec_mbps =
      mbps(corpus.size() * lz_passes, dec_sw.elapsed_seconds());
  const double lz_ratio =
      static_cast<double>(corpus.size()) / static_cast<double>(lz_csize);
  std::printf("lz4 compress:         %7.1f MB/s   (%.2fx on dialogue text)\n",
              lz_comp_mbps, lz_ratio);
  std::printf("lz4 decompress:       %7.1f MB/s\n\n", lz_dec_mbps);

  // --- OBSF vs JSONL on the same traffic ---------------------------------
  const std::size_t traffic_sets = opt.quick ? 4000 : 20000;
  data::UserOracle oracle(opt.seed * 6364136223846793005ull + 3, dict);
  data::Generator gen(data::profile_by_name("MedDialog"), oracle,
                      util::Rng(opt.seed ^ 0x10u));
  const data::GeneratedDataset traffic =
      gen.generate(traffic_sets, traffic_sets / 10);
  const std::size_t payload = logical_bytes(traffic);
  std::printf("traffic: %zu sets, %.1f MB logical payload\n",
              traffic.stream.size() + traffic.test.size(),
              static_cast<double>(payload) / 1e6);

  const std::string obsf_path = scratch + "/traffic.obsf";
  const std::string jsonl_path = scratch + "/traffic.jsonl";

  util::Stopwatch obsf_w_sw;
  const io::ObsfWriter::Stats ostats = io::record_dataset(traffic, obsf_path);
  const double obsf_write_s = obsf_w_sw.elapsed_seconds();
  util::Stopwatch jsonl_w_sw;
  const std::size_t jsonl_bytes = write_jsonl(traffic, jsonl_path);
  const double jsonl_write_s = jsonl_w_sw.elapsed_seconds();

  // Routing scan (the gated read path): aggregate the scheduler-visible
  // metadata of every record. OBSF projects the five narrow columns and
  // skips decompressing the text runs; JSONL must walk every byte.
  const int scan_passes = 10;
  std::size_t obsf_rows = 0, jsonl_rows = 0;
  std::uint64_t obsf_hash = 0, jsonl_hash = 0;
  util::Stopwatch obsf_scan_sw;
  for (int i = 0; i < scan_passes; ++i) {
    obsf_hash = scan_obsf(obsf_path, obsf_rows);
  }
  const double obsf_scan_s = obsf_scan_sw.elapsed_seconds() / scan_passes;
  util::Stopwatch jsonl_scan_sw;
  for (int i = 0; i < scan_passes; ++i) {
    jsonl_hash = scan_jsonl(jsonl_path, jsonl_rows);
  }
  const double jsonl_scan_s = jsonl_scan_sw.elapsed_seconds() / scan_passes;
  if (obsf_hash != jsonl_hash || obsf_rows != jsonl_rows) {
    std::fprintf(stderr,
                 "bench_io: FAIL — scan aggregates diverge (OBSF %016llx/%zu "
                 "vs JSONL %016llx/%zu)\n",
                 static_cast<unsigned long long>(obsf_hash), obsf_rows,
                 static_cast<unsigned long long>(jsonl_hash), jsonl_rows);
    exit_code = 1;
  }

  // Full materialization: rebuild owning GeneratedDataset structures.
  const int read_passes = opt.quick ? 3 : 5;
  util::Stopwatch obsf_r_sw;
  data::GeneratedDataset obsf_back;
  for (int i = 0; i < read_passes; ++i) obsf_back = io::replay_dataset(obsf_path);
  const double obsf_read_s = obsf_r_sw.elapsed_seconds() / read_passes;
  util::Stopwatch jsonl_r_sw;
  data::GeneratedDataset jsonl_back;
  for (int i = 0; i < read_passes; ++i) jsonl_back = read_jsonl(jsonl_path);
  const double jsonl_read_s = jsonl_r_sw.elapsed_seconds() / read_passes;

  // Both paths must actually reproduce the traffic; a baseline that skipped
  // work (or a container that lost data) would be an unfair comparison.
  const bool obsf_exact = datasets_equal(traffic, obsf_back);
  const bool jsonl_exact = datasets_equal(traffic, jsonl_back);
  if (!obsf_exact || !jsonl_exact) {
    std::fprintf(stderr, "bench_io: FAIL — %s round trip is not exact\n",
                 obsf_exact ? "JSONL" : "OBSF");
    exit_code = 1;
  }

  const double obsf_write_mbps = mbps(payload, obsf_write_s);
  const double obsf_scan_mbps = mbps(payload, obsf_scan_s);
  const double obsf_read_mbps = mbps(payload, obsf_read_s);
  const double jsonl_write_mbps = mbps(payload, jsonl_write_s);
  const double jsonl_scan_mbps = mbps(payload, jsonl_scan_s);
  const double jsonl_read_mbps = mbps(payload, jsonl_read_s);
  const double read_speedup =
      jsonl_scan_mbps > 0.0 ? obsf_scan_mbps / jsonl_scan_mbps : 0.0;
  const double materialize_speedup =
      jsonl_read_mbps > 0.0 ? obsf_read_mbps / jsonl_read_mbps : 0.0;
  const double bytes_ratio =
      static_cast<double>(ostats.file_bytes) /
      static_cast<double>(jsonl_bytes);

  std::printf("                      %10s %10s\n", "OBSF", "JSONL");
  std::printf("write MB/s            %10.1f %10.1f\n", obsf_write_mbps,
              jsonl_write_mbps);
  std::printf("scan MB/s             %10.1f %10.1f   (%.1fx)\n",
              obsf_scan_mbps, jsonl_scan_mbps, read_speedup);
  std::printf("materialize MB/s      %10.1f %10.1f   (%.1fx)\n",
              obsf_read_mbps, jsonl_read_mbps, materialize_speedup);
  std::printf("bytes at rest         %10zu %10zu   (%.2fx)\n",
              static_cast<std::size_t>(ostats.file_bytes), jsonl_bytes,
              bytes_ratio);
  std::printf("container: %llu blocks, %.2fx block compression\n\n",
              static_cast<unsigned long long>(ostats.blocks),
              ostats.stored_bytes > 0
                  ? static_cast<double>(ostats.raw_bytes) /
                        static_cast<double>(ostats.stored_bytes)
                  : 1.0);

  // --- buffer checkpoint size --------------------------------------------
  core::DataBuffer buffer(1024);
  for (std::size_t i = 0; i < 1024 && i < traffic.stream.size(); ++i) {
    core::BufferEntry e;
    e.set = traffic.stream[i];
    e.inserted_at = i;
    e.dominant_domain = static_cast<std::size_t>(
        traffic.stream[i].true_domain < 0 ? 0 : traffic.stream[i].true_domain);
    e.scores = {0.5, 0.5, 0.5};
    e.embedding = tensor::Tensor(1, 64, static_cast<float>(i) * 0.01f);
    buffer.add(std::move(e));
  }
  const std::string v3_path = scratch + "/buffer_v3.bin";
  core::save_buffer(buffer, v3_path);
  const std::size_t v3_bytes = util::read_file(v3_path).size();
  std::printf("buffer checkpoint (%zu bins): v3 %zu bytes\n\n",
              buffer.size(), v3_bytes);

  // --- record-once / replay-many fleet -----------------------------------
  exp::FleetConfig fleet;
  fleet.num_devices = opt.quick ? 3 : 4;
  exp::ExperimentConfig& c = fleet.device_template;
  c.dataset = "MedDialog";
  c.buffer_bins = 8;
  c.stream_size = opt.quick ? 4 : 6;
  c.finetune_interval = opt.quick ? 2 : 3;
  c.test_size = 32;
  c.eval_subset = 6;
  c.eval_repeats = 2;
  c.epochs = 1;
  c.synth_per_set = 1;
  c.pretrain_examples = 16;
  c.pretrain_epochs = 1;
  c.record_curve = true;
  c.cache_dir = scratch + "/cache";
  fleet.seed_base = opt.seed;
  fleet.shared_base_seed = opt.seed * 7919 + 17;
  fleet.traffic_dir = scratch + "/traffic_dir";
  std::filesystem::create_directories(fleet.traffic_dir);
  std::filesystem::create_directories(c.cache_dir);

  util::Stopwatch gen_sw;
  const exp::FleetResult generated = exp::run_fleet(fleet, "Ours");
  const double gen_s = gen_sw.elapsed_seconds();
  util::Stopwatch rep_sw;
  const exp::FleetResult replayed = exp::run_fleet(fleet, "Ours");
  const double rep_s = rep_sw.elapsed_seconds();
  const bool fleet_identical =
      fleet_users_identical(generated.devices, replayed.devices);
  const double fleet_speedup = rep_s > 0.0 ? gen_s / rep_s : 0.0;
  std::printf("fleet %zu users: generated+recorded %.2fs, replayed %.2fs "
              "(%.2fx)  bit-identical: %s\n\n",
              fleet.num_devices, gen_s, rep_s, fleet_speedup,
              fleet_identical ? "yes" : "NO");
  if (!fleet_identical) {
    std::fprintf(stderr,
                 "bench_io: FAIL — replayed fleet diverges from the "
                 "generated run\n");
    exit_code = 1;
  }

  // --- acceptance gates ---------------------------------------------------
  if (read_speedup < 5.0) {
    std::fprintf(stderr,
                 "bench_io: FAIL — OBSF stream scan is %.2fx the JSONL path, "
                 "below the 5x floor\n",
                 read_speedup);
    exit_code = 1;
  }
  if (bytes_ratio > 0.5) {
    std::fprintf(stderr,
                 "bench_io: FAIL — OBSF bytes-at-rest are %.2fx JSONL, above "
                 "the 0.5x ceiling\n",
                 bytes_ratio);
    exit_code = 1;
  }

  bench::JsonWriter json;
  json.text("bench", "io_obsf");
  json.text("mode", opt.quick ? "quick" : "full");
  json.number("crc32_gbps", crc_gbps);
  json.raw("lz4", bench::json_object({{"compress_mbps", lz_comp_mbps},
                                      {"decompress_mbps", lz_dec_mbps},
                                      {"dialogue_ratio", lz_ratio}}));
  json.raw("stream",
           bench::json_object(
               {{"sets", static_cast<double>(traffic.stream.size() +
                                             traffic.test.size())},
                {"payload_bytes", static_cast<double>(payload)},
                {"obsf_write_mbps", obsf_write_mbps},
                {"obsf_scan_mbps", obsf_scan_mbps},
                {"obsf_read_mbps", obsf_read_mbps},
                {"jsonl_write_mbps", jsonl_write_mbps},
                {"jsonl_scan_mbps", jsonl_scan_mbps},
                {"jsonl_read_mbps", jsonl_read_mbps},
                {"read_speedup", read_speedup},
                {"materialize_speedup", materialize_speedup},
                {"obsf_bytes", static_cast<double>(ostats.file_bytes)},
                {"jsonl_bytes", static_cast<double>(jsonl_bytes)},
                {"bytes_ratio", bytes_ratio},
                {"blocks", static_cast<double>(ostats.blocks)}}));
  json.raw("buffer_checkpoint",
           bench::json_object({{"v3_bytes", static_cast<double>(v3_bytes)}}));
  json.raw("fleet_replay",
           bench::json_object(
               {{"users", static_cast<double>(fleet.num_devices)},
                {"generated_seconds", gen_s},
                {"replayed_seconds", rep_s},
                {"speedup", fleet_speedup},
                {"bit_identical", fleet_identical ? 1.0 : 0.0}}));
  json.integer("gates_passed", exit_code == 0 ? 1 : 0);
  const std::string body = json.finish();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_io: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  std::filesystem::remove_all(scratch);
  return exit_code;
}
