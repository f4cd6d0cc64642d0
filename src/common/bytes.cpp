#include "common/bytes.hpp"

#include <stdexcept>

namespace dapes::common {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string to_hex(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_value(hex[i]);
    int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

void append_be(Bytes& out, uint64_t value, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    size_t shift = 8 * (width - 1 - i);
    out.push_back(static_cast<uint8_t>((value >> shift) & 0xff));
  }
}

uint64_t read_be(BytesView data, size_t offset, size_t width) {
  if (offset + width > data.size()) {
    throw std::out_of_range("read_be: buffer too short");
  }
  uint64_t value = 0;
  for (size_t i = 0; i < width; ++i) {
    value = (value << 8) | data[offset + i];
  }
  return value;
}

size_t be_width(uint64_t value) {
  size_t width = 1;
  while (value > 0xff) {
    value >>= 8;
    ++width;
  }
  return width;
}

bool equal(BytesView a, BytesView b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

Bytes bytes_of(std::string_view str) {
  return Bytes(str.begin(), str.end());
}

}  // namespace dapes::common
