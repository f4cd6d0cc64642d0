/// @file
/// File collections (paper §II-C): the unit of sharing.
///
/// A producer groups files, segments each into fixed-size packets, names
/// them under the collection prefix, signs every packet, and publishes
/// signed metadata. Collection is the producer-side content oracle: it can
/// emit any packet as a signed ndn::Data on demand.
///
/// Two payload modes:
///   * explicit — real file bytes are stored (examples, small tests);
///   * synthetic — payloads are generated deterministically from the packet
///     name. Simulations with tens of megabytes of nominal content use this
///     so per-node memory stays flat; digests/Merkle roots are computed
///     over the same synthetic bytes, so integrity verification is real.
///
/// Every packet the collection serves is one shared handle, the packet's
/// own decode (ndn::Data::shared_decode), so each frame that carries it
/// and each cache that keeps it shares that one object. Collection
/// packets are built on their first serve and kept; the metadata
/// segments are built at publish. The lazy packet cache belongs to one
/// trial's Collection: every peer of that trial holds the same Collection
/// and uses it from the trial's thread only, so it takes no lock (the
/// crypto::VerifyCache contract).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crypto/keychain.hpp"
#include "dapes/metadata.hpp"

namespace dapes::core {

/// Producer-side content oracle: a signed, segmented group of files that
/// can emit any packet (or metadata segment) as a signed ndn::Data.
class Collection {
 public:
  /// One real file to publish (explicit payload mode).
  struct FileInput {
    std::string name;       ///< file name within the collection
    common::Bytes content;  ///< the file's bytes
  };

  /// One synthetic file to publish (deterministic generated payloads).
  struct SyntheticFileInput {
    std::string name;        ///< file name within the collection
    size_t size_bytes = 0;   ///< nominal file size
  };

  /// Build from real file contents.
  static std::shared_ptr<Collection> create(
      Name collection_name, std::vector<FileInput> files, size_t packet_size,
      MetadataFormat format, const crypto::PrivateKey& producer_key);

  /// Build with deterministic synthetic payloads of the given sizes.
  static std::shared_ptr<Collection> create_synthetic(
      Name collection_name, std::vector<SyntheticFileInput> files,
      size_t packet_size, MetadataFormat format,
      const crypto::PrivateKey& producer_key);

  /// The collection's name prefix.
  const Name& name() const { return metadata_.collection(); }
  /// The signed metadata describing the collection.
  const Metadata& metadata() const { return metadata_; }
  /// The global-index <-> (file, seq) mapping.
  const CollectionLayout& layout() const { return layout_; }
  /// Total packets across all files.
  size_t total_packets() const { return layout_.total_packets(); }
  /// Fixed payload size each file is segmented into.
  size_t packet_size() const { return packet_size_; }

  /// The signed Data packet for a global packet index: a copy of
  /// shared_packet(). @throws std::out_of_range for a bad index.
  ndn::Data packet(size_t global_index) const;

  /// The signed Data packet for a global packet index as the shared
  /// handle every serve puts (see file comment): built on the first call,
  /// the same object afterwards. @throws std::out_of_range for a bad
  /// index.
  ndn::DataPtr shared_packet(size_t global_index) const;

  /// Raw payload bytes for a packet (same bytes `packet()` carries).
  common::Bytes payload(size_t global_index) const;

  /// Signed metadata segments ready to serve: each one's own decode,
  /// built once at creation and shared, handle and all, by every serve of
  /// every holder.
  const std::vector<ndn::DataPtr>& metadata_packets() const {
    return metadata_packets_;
  }

  /// Key id of the producer that signed the collection.
  const crypto::KeyId& producer() const { return producer_id_; }

  /// Deterministic synthetic payload for a packet name — exposed so tests
  /// can cross-check what producers generate.
  static common::Bytes synthetic_payload(const Name& packet_name,
                                         size_t size);

 private:
  /// Shared prologue of the factories: throws std::invalid_argument on a
  /// zero packet size.
  Collection(size_t packet_size, bool synthetic,
             const crypto::PrivateKey& producer_key);

  /// Shared epilogue of the factories: builds the metadata from the file
  /// names and `file_sizes_`, fills each file's packet digests or Merkle
  /// root from `payload()`, and signs the metadata segments.
  void publish(Name collection_name, const std::vector<std::string>& file_names,
               MetadataFormat format);

  Metadata metadata_;
  CollectionLayout layout_;
  size_t packet_size_ = 0;
  bool synthetic_ = false;
  std::vector<size_t> file_sizes_;              // bytes per file
  std::vector<common::Bytes> explicit_files_;   // explicit mode only
  crypto::PrivateKey producer_key_;
  crypto::KeyId producer_id_;
  std::vector<ndn::DataPtr> metadata_packets_;
  /// shared_packet()'s cache, one slot per packet; sized on first use.
  mutable std::vector<ndn::DataPtr> packets_;
};

}  // namespace dapes::core
