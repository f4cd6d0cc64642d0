/// @file
/// Compact data advertisements (paper §IV-D).
///
/// A Bitmap has one bit per packet in a collection, ordered by the relative
/// position of files in the metadata and of packets within each file: for
/// the Fig. 4 example, bit 0 is bridge-picture/0 ... bit 99 is
/// bridge-picture/99, bit 100 is bridge-location/0, bit 101 is
/// bridge-location/1. CollectionLayout owns that global-index <-> (file,
/// seq) mapping; Bitmap is the bit vector plus the set/rarity operations
/// the RPF strategies need.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace dapes::core {

/// Maps between global packet indices and (file, sequence) pairs using the
/// file order fixed by the collection metadata.
class CollectionLayout {
 public:
  /// One file's slot in the layout: its name and packet count.
  struct FileEntry {
    std::string name;           ///< file name within the collection
    size_t packet_count = 0;    ///< packets the file segments into
  };

  /// Empty layout (no files, no packets).
  CollectionLayout() = default;
  /// Layout over @p files in metadata order.
  explicit CollectionLayout(std::vector<FileEntry> files);

  /// Total packets across all files.
  size_t total_packets() const { return total_; }
  /// Number of files.
  size_t file_count() const { return files_.size(); }
  /// Entry of the @p i th file; @throws std::out_of_range past the end.
  const FileEntry& file(size_t i) const { return files_.at(i); }
  /// All file entries in metadata order.
  const std::vector<FileEntry>& files() const { return files_; }

  /// Global index of (file_name, seq); nullopt for unknown file / range.
  std::optional<size_t> index_of(const std::string& file_name,
                                 uint64_t seq) const;

  /// A global index resolved back to its (file, sequence) coordinates.
  struct Location {
    std::string file_name;  ///< owning file's name
    uint64_t seq = 0;       ///< packet sequence within the file
  };
  /// Inverse mapping. @throws std::out_of_range for bad indices.
  Location locate(size_t global_index) const;

 private:
  std::vector<FileEntry> files_;
  std::vector<size_t> offsets_;  // cumulative start index per file
  size_t total_ = 0;
};

/// One bit per packet: 1 = have, 0 = missing.
class Bitmap {
 public:
  /// Empty bitmap (zero bits).
  Bitmap() = default;
  /// All-clear bitmap of @p size bits.
  explicit Bitmap(size_t size);

  /// Number of bits (== packets in the collection).
  size_t size() const { return size_; }
  /// True for a zero-bit bitmap.
  bool empty() const { return size_ == 0; }

  /// Value of bit @p i. Throws std::out_of_range when i >= size().
  bool test(size_t i) const {
    if (i >= size_) throw_out_of_range("Bitmap::test");
    return (words_[i / 64] >> (i % 64)) & 1;
  }
  /// Set (or clear) bit @p i. Throws std::out_of_range when i >= size().
  void set(size_t i, bool value = true) {
    if (i >= size_) throw_out_of_range("Bitmap::set");
    const uint64_t mask = uint64_t{1} << (i % 64);
    if (value) {
      words_[i / 64] |= mask;
    } else {
      words_[i / 64] &= ~mask;
    }
  }

  /// Number of set bits.
  size_t count() const;
  /// True when every bit is set (complete collection).
  bool full() const { return count() == size_; }
  /// True when no bit is set.
  bool none() const { return count() == 0; }
  /// Fraction of bits set, 0.0 for an empty bitmap.
  double completeness() const {
    return size_ == 0 ? 0.0 : static_cast<double>(count()) / size_;
  }

  /// Indices set in *this but clear in @p other ("packets I have that are
  /// missing from other") — the §IV-F prioritization metric.
  size_t count_set_and_missing_from(const Bitmap& other) const;

  /// Indices clear in *this ("packets I am missing").
  std::vector<size_t> missing_indices() const;

  /// Bitwise OR-accumulate (used to union previously transmitted bitmaps).
  void or_with(const Bitmap& other);

  /// Wire form: 4-byte big-endian bit count then packed bits (MSB first).
  common::Bytes encode() const;
  /// Parse the `encode()` wire form; nullopt on malformed input.
  static std::optional<Bitmap> decode(common::BytesView wire);

  /// Bit-for-bit equality (size and every word).
  bool operator==(const Bitmap&) const = default;

 private:
  /// The range checks' cold path, kept out of line so the inline bit
  /// accessors stay small.
  [[noreturn]] static void throw_out_of_range(const char* what);

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace dapes::core
