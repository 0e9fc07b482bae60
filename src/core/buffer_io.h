// Buffer persistence: save/restore the data-selection buffer across device
// reboots. The buffer is the framework's only training state besides the
// LoRA adapter weights, so together with MiniLlm::save/load this gives a
// complete on-device checkpoint.
//
// Format (v3, the only one read or written): OBSF columnar container (see
// io/obsf.h and DESIGN.md §14) — LZ4-compressed blocks of column-coded
// entries, per-block CRC-32, header metadata carrying capacity/count.
// Independently checksummed blocks make *partial* recovery possible:
// recover_buffer() walks back to the last intact block instead of
// discarding the whole file. The retired v1/v2 "ODBF" files are rejected
// as corrupt. See DESIGN.md §7 and §14.
#pragma once

#include <cstddef>
#include <string>

#include "core/buffer.h"

namespace odlp::core {

// Atomically writes the buffer to `path` in the current (v3 OBSF) format.
// Throws std::runtime_error on I/O failure.
void save_buffer(const DataBuffer& buffer, const std::string& path);

// Reads a buffer written by save_buffer, verifying every block's CRC.
// Throws util::CorruptionError on corrupt/malformed content or any other
// format, std::runtime_error on I/O failure. Header fields are validated
// against hard caps and every length against the bytes actually present,
// so corrupt files fail cleanly instead of over-allocating.
DataBuffer load_buffer(const std::string& path);

// Best-effort load of a damaged file: keeps every entry up to the last
// intact block and reports what was lost. Header damage still throws.
struct BufferRecovery {
  DataBuffer buffer;
  std::size_t rows_recovered = 0;
  std::size_t rows_expected = 0;  // count recorded in the header
  bool truncated = false;         // damage was detected and cut off
};
BufferRecovery recover_buffer(const std::string& path);

}  // namespace odlp::core
