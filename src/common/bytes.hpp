// Byte-buffer utilities shared by every module.
//
// The wire formats in this project (NDN TLV, IP-lite headers, DAPES
// metadata) are all built on top of a plain `std::vector<uint8_t>`; this
// header provides the alias plus the small helpers (hex, big-endian
// integer packing, appends) that the encoders need.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dapes::common {

/// Owned byte buffer used for all wire encodings.
using Bytes = std::vector<uint8_t>;

/// Non-owning view over encoded bytes.
using BytesView = std::span<const uint8_t>;

/// Encode @p data as lowercase hex ("deadbeef").
std::string to_hex(BytesView data);

/// Decode lowercase/uppercase hex into bytes.
/// @throws std::invalid_argument on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Append @p value in big-endian order using exactly @p width bytes
/// (width in [1,8]). Most-significant truncation is the caller's problem;
/// values must fit.
void append_be(Bytes& out, uint64_t value, size_t width);

/// Read a big-endian integer of @p width bytes starting at @p offset.
/// @throws std::out_of_range if the buffer is too short.
uint64_t read_be(BytesView data, size_t offset, size_t width);

/// Minimal number of bytes needed to represent @p value (>=1).
size_t be_width(uint64_t value);

/// Byte-wise equality between a view and a buffer.
bool equal(BytesView a, BytesView b);

/// Build a Bytes from a string literal / std::string content.
Bytes bytes_of(std::string_view str);

}  // namespace dapes::common
