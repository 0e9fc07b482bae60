#include "text/vocab_io.h"

#include <cstdio>
#include <string>
#include <vector>

#include "util/atomic_file.h"
#include "util/crc32.h"

namespace odlp::text {

namespace {

// Trailer line appended by save_vocab: "#odlp-vocab-crc32 <8 hex digits>".
// The CRC covers every byte before the trailer line. '#' cannot start a
// real vocabulary word (the tokenizer strips punctuation).
constexpr const char* kTrailerPrefix = "#odlp-vocab-crc32 ";
constexpr std::size_t kTrailerBytes = 18 + 8 + 1;  // prefix, digits, '\n'

std::string trailer_line(std::uint32_t crc) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%08x", kTrailerPrefix, crc);
  return buf;
}

}  // namespace

void save_vocab(const Vocab& vocab, const std::string& path) {
  std::string body;
  for (std::size_t id = 0; id < vocab.size(); ++id) {
    body += vocab.word(static_cast<int>(id));
    body += '\n';
  }
  const std::uint32_t crc = util::crc32(body.data(), body.size());
  util::AtomicFileWriter out(path);
  out.write(body.data(), body.size());
  const std::string trailer = trailer_line(crc) + "\n";
  out.write(trailer.data(), trailer.size());
  out.commit();
}

Vocab load_vocab(const std::string& path) {
  const std::vector<unsigned char> raw = util::read_file(path);
  std::string content(raw.begin(), raw.end());

  // The last line must be the checksum trailer, byte for byte as
  // save_vocab writes it for the preceding content.
  if (content.size() < kTrailerBytes) {
    throw util::CorruptionError("vocab_io: missing checksum trailer");
  }
  const std::size_t trailer_pos = content.size() - kTrailerBytes;
  if (trailer_pos != 0 && content[trailer_pos - 1] != '\n') {
    throw util::CorruptionError("vocab_io: missing checksum trailer");
  }
  if (content.compare(trailer_pos, std::string::npos,
                      trailer_line(util::crc32(content.data(), trailer_pos)) +
                          "\n") != 0) {
    throw util::CorruptionError("vocab_io: CRC mismatch (corrupt file)");
  }
  content.erase(trailer_pos);

  Vocab vocab;  // constructs the specials at ids 0..4
  std::size_t index = 0;
  std::size_t start = 0;
  while (start < content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    const std::string line = content.substr(start, end - start);
    start = end + 1;
    if (index < vocab.size()) {
      // The first five lines must be the reserved specials in order.
      if (line != vocab.word(static_cast<int>(index))) {
        throw util::CorruptionError(
            "vocab_io: reserved token mismatch at line " +
            std::to_string(index));
      }
    } else {
      if (line.empty()) continue;
      vocab.add(line);
    }
    ++index;
  }
  if (index < 5) {
    throw util::CorruptionError("vocab_io: truncated vocabulary file");
  }
  vocab.freeze();
  return vocab;
}

}  // namespace odlp::text
