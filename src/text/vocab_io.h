// Vocabulary persistence: a deployed device ships a frozen vocabulary with
// its model checkpoint; these helpers write/read it as a plain text file
// (one word per line, in id order) so checkpoints stay inspectable. The
// file ends with a "#odlp-vocab-crc32 <hex>" trailer covering all preceding
// bytes (DESIGN.md §7).
#pragma once

#include <string>

#include "text/vocab.h"

namespace odlp::text {

// Atomically writes all words (including the reserved specials) in id
// order, followed by the CRC trailer. Throws std::runtime_error on I/O
// failure.
void save_vocab(const Vocab& vocab, const std::string& path);

// Reads a vocabulary written by save_vocab; the result is frozen. The last
// line must be the CRC trailer, exactly "#odlp-vocab-crc32 " + 8 lowercase
// hex digits + '\n'. Throws util::CorruptionError if the trailer is
// missing or malformed, on a CRC mismatch, or if the reserved special
// tokens are missing / out of order; std::runtime_error on I/O failure.
Vocab load_vocab(const std::string& path);

}  // namespace odlp::text
