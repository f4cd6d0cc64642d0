#include "dapes/bitmap.hpp"

#include <bit>
#include <stdexcept>

namespace dapes::core {

CollectionLayout::CollectionLayout(std::vector<FileEntry> files)
    : files_(std::move(files)) {
  offsets_.reserve(files_.size());
  for (const auto& f : files_) {
    offsets_.push_back(total_);
    total_ += f.packet_count;
  }
}

std::optional<size_t> CollectionLayout::index_of(const std::string& file_name,
                                                 uint64_t seq) const {
  for (size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].name == file_name) {
      if (seq >= files_[i].packet_count) return std::nullopt;
      return offsets_[i] + seq;
    }
  }
  return std::nullopt;
}

CollectionLayout::Location CollectionLayout::locate(size_t global_index) const {
  if (global_index >= total_) {
    throw std::out_of_range("CollectionLayout::locate: index out of range");
  }
  // Linear scan: collections have tens of files at most.
  for (size_t i = files_.size(); i-- > 0;) {
    if (global_index >= offsets_[i]) {
      return Location{files_[i].name, global_index - offsets_[i]};
    }
  }
  throw std::out_of_range("CollectionLayout::locate: unreachable");
}

namespace {

/// @p b with its bit order reversed: the wire packs bits MSB first,
/// while a word holds bit i at position i % 64 (LSB first).
uint8_t reverse_bits(uint8_t b) {
  b = static_cast<uint8_t>((b & 0xF0) >> 4 | (b & 0x0F) << 4);
  b = static_cast<uint8_t>((b & 0xCC) >> 2 | (b & 0x33) << 2);
  return static_cast<uint8_t>((b & 0xAA) >> 1 | (b & 0x55) << 1);
}

}  // namespace

Bitmap::Bitmap(size_t size) : size_(size), words_((size + 63) / 64, 0) {}

void Bitmap::throw_out_of_range(const char* what) {
  throw std::out_of_range(what);
}

size_t Bitmap::count() const {
  size_t total = 0;
  for (uint64_t w : words_) total += static_cast<size_t>(std::popcount(w));
  return total;
}

size_t Bitmap::count_set_and_missing_from(const Bitmap& other) const {
  size_t total = 0;
  size_t words = std::min(words_.size(), other.words_.size());
  for (size_t i = 0; i < words; ++i) {
    total += static_cast<size_t>(std::popcount(words_[i] & ~other.words_[i]));
  }
  for (size_t i = words; i < words_.size(); ++i) {
    total += static_cast<size_t>(std::popcount(words_[i]));
  }
  return total;
}

std::vector<size_t> Bitmap::missing_indices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < size_; ++i) {
    if (!test(i)) out.push_back(i);
  }
  return out;
}

void Bitmap::or_with(const Bitmap& other) {
  size_t words = std::min(words_.size(), other.words_.size());
  for (size_t i = 0; i < words; ++i) {
    words_[i] |= other.words_[i];
  }
  // Bits beyond our size would be spurious; mask the tail word.
  if (size_ % 64 != 0 && !words_.empty()) {
    uint64_t tail_mask = (uint64_t{1} << (size_ % 64)) - 1;
    words_.back() &= tail_mask;
  }
}

common::Bytes Bitmap::encode() const {
  common::Bytes out;
  size_t bytes = (size_ + 7) / 8;
  out.reserve(4 + bytes);
  common::append_be(out, size_, 4);
  // Byte k holds bits 8k..8k+7, bit 8k in its MSB. Bits past size_ are
  // always clear in words_, so the last byte's padding encodes as zeros.
  for (size_t byte = 0; byte < bytes; ++byte) {
    out.push_back(reverse_bits(
        static_cast<uint8_t>(words_[byte / 8] >> (8 * (byte % 8)))));
  }
  return out;
}

std::optional<Bitmap> Bitmap::decode(common::BytesView wire) {
  if (wire.size() < 4) return std::nullopt;
  size_t size = static_cast<size_t>(common::read_be(wire, 0, 4));
  size_t bytes = (size + 7) / 8;
  if (wire.size() != 4 + bytes) return std::nullopt;
  Bitmap bm(size);
  for (size_t byte = 0; byte < bytes; ++byte) {
    bm.words_[byte / 8] |= uint64_t{reverse_bits(wire[4 + byte])}
                           << (8 * (byte % 8));
  }
  // The last byte's padding bits are not part of the bitmap: drop them.
  if (size % 64 != 0) {
    bm.words_.back() &= (uint64_t{1} << (size % 64)) - 1;
  }
  return bm;
}

}  // namespace dapes::core
