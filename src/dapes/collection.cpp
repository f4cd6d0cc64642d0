#include "dapes/collection.hpp"

#include <stdexcept>

namespace dapes::core {

namespace {

constexpr size_t kMetadataSegmentSize = 1024;

size_t packets_for(size_t file_bytes, size_t packet_size) {
  if (file_bytes == 0) return 1;  // empty file still occupies one packet
  return (file_bytes + packet_size - 1) / packet_size;
}

// The metadata segments are shared by reference across every node that
// holds the collection, and both the wire encoding and the name's prefix
// hashes are lazily cached `mutable` state. Fill those caches once at
// creation, so world building pays for them and the trial itself only
// ever reads the shared objects.
void warm_packet_caches(std::vector<ndn::Data>& packets) {
  for (const ndn::Data& segment : packets) {
    segment.wire();
    segment.name().hash();
    segment.content_digest();
  }
}

}  // namespace

common::Bytes Collection::synthetic_payload(const Name& packet_name,
                                            size_t size) {
  // Counter-mode SHA-256 stream keyed by the packet name: deterministic,
  // unique per name, and incompressible (so nothing accidentally relies on
  // content regularity).
  common::Bytes out;
  out.reserve(size);
  uint64_t counter = 0;
  std::string uri = packet_name.to_uri();
  while (out.size() < size) {
    crypto::Sha256 ctx;
    ctx.update(uri);
    common::Bytes ctr;
    common::append_be(ctr, counter++, 8);
    ctx.update(common::BytesView(ctr.data(), ctr.size()));
    crypto::Digest block = ctx.final_digest();
    size_t take = std::min<size_t>(32, size - out.size());
    out.insert(out.end(), block.bytes.begin(), block.bytes.begin() + take);
  }
  return out;
}

std::shared_ptr<Collection> Collection::create(
    Name collection_name, std::vector<FileInput> files, size_t packet_size,
    MetadataFormat format, const crypto::PrivateKey& producer_key) {
  if (packet_size == 0) {
    throw std::invalid_argument("Collection: packet_size must be > 0");
  }
  auto col = std::shared_ptr<Collection>(new Collection());
  col->packet_size_ = packet_size;
  col->synthetic_ = false;
  col->producer_key_ = producer_key;
  col->producer_id_ = producer_key.id();

  std::vector<FileMetadata> file_meta;
  for (auto& f : files) {
    size_t count = packets_for(f.content.size(), packet_size);
    col->file_sizes_.push_back(f.content.size());
    col->explicit_files_.push_back(std::move(f.content));

    FileMetadata fm;
    fm.name = f.name;
    fm.packet_count = count;
    file_meta.push_back(std::move(fm));
  }
  col->metadata_ = Metadata(std::move(collection_name), format,
                            std::move(file_meta));
  col->layout_ = col->metadata_.layout();

  // Fill digests / Merkle roots now that names are fixed.
  std::vector<FileMetadata> enriched = col->metadata_.files();
  for (size_t fi = 0; fi < enriched.size(); ++fi) {
    std::vector<crypto::Digest> digests;
    digests.reserve(enriched[fi].packet_count);
    for (uint64_t seq = 0; seq < enriched[fi].packet_count; ++seq) {
      size_t idx = *col->layout_.index_of(enriched[fi].name, seq);
      common::Bytes payload = col->payload(idx);
      digests.push_back(
          crypto::Sha256::hash(common::BytesView(payload.data(), payload.size())));
    }
    if (format == MetadataFormat::kPacketDigest) {
      enriched[fi].packet_digests = std::move(digests);
    } else {
      enriched[fi].merkle_root = crypto::MerkleTree::compute_root(digests);
    }
  }
  col->metadata_ = Metadata(col->metadata_.collection(), format,
                            std::move(enriched));
  col->metadata_packets_ =
      col->metadata_.to_packets(producer_key, kMetadataSegmentSize);
  warm_packet_caches(col->metadata_packets_);
  return col;
}

std::shared_ptr<Collection> Collection::create_synthetic(
    Name collection_name, std::vector<SyntheticFileInput> files,
    size_t packet_size, MetadataFormat format,
    const crypto::PrivateKey& producer_key) {
  std::vector<FileInput> inputs;
  inputs.reserve(files.size());
  // Reuse the explicit path for metadata bookkeeping but with empty
  // buffers; mark synthetic afterwards so payloads are generated on
  // demand. Packet counts must come from the nominal sizes.
  auto col = std::shared_ptr<Collection>(new Collection());
  if (packet_size == 0) {
    throw std::invalid_argument("Collection: packet_size must be > 0");
  }
  col->packet_size_ = packet_size;
  col->synthetic_ = true;
  col->producer_key_ = producer_key;
  col->producer_id_ = producer_key.id();

  std::vector<FileMetadata> file_meta;
  for (const auto& f : files) {
    col->file_sizes_.push_back(f.size_bytes);
    FileMetadata fm;
    fm.name = f.name;
    fm.packet_count = packets_for(f.size_bytes, packet_size);
    file_meta.push_back(std::move(fm));
  }
  col->metadata_ = Metadata(std::move(collection_name), format,
                            std::move(file_meta));
  col->layout_ = col->metadata_.layout();

  std::vector<FileMetadata> enriched = col->metadata_.files();
  for (size_t fi = 0; fi < enriched.size(); ++fi) {
    std::vector<crypto::Digest> digests;
    digests.reserve(enriched[fi].packet_count);
    for (uint64_t seq = 0; seq < enriched[fi].packet_count; ++seq) {
      size_t idx = *col->layout_.index_of(enriched[fi].name, seq);
      common::Bytes payload = col->payload(idx);
      digests.push_back(crypto::Sha256::hash(
          common::BytesView(payload.data(), payload.size())));
    }
    if (format == MetadataFormat::kPacketDigest) {
      enriched[fi].packet_digests = std::move(digests);
    } else {
      enriched[fi].merkle_root = crypto::MerkleTree::compute_root(digests);
    }
  }
  col->metadata_ = Metadata(col->metadata_.collection(), format,
                            std::move(enriched));
  col->metadata_packets_ =
      col->metadata_.to_packets(producer_key, kMetadataSegmentSize);
  warm_packet_caches(col->metadata_packets_);
  return col;
}

common::Bytes Collection::payload(size_t global_index) const {
  CollectionLayout::Location loc = layout_.locate(global_index);
  // Find the file index for size bookkeeping.
  size_t file_index = 0;
  for (size_t i = 0; i < metadata_.files().size(); ++i) {
    if (metadata_.files()[i].name == loc.file_name) {
      file_index = i;
      break;
    }
  }
  size_t file_bytes = file_sizes_[file_index];
  size_t begin = static_cast<size_t>(loc.seq) * packet_size_;
  size_t len = begin >= file_bytes ? 0 : std::min(packet_size_, file_bytes - begin);

  if (synthetic_) {
    Name pname = packet_name(metadata_.collection(), loc.file_name, loc.seq);
    return synthetic_payload(pname, len);
  }
  const common::Bytes& file = explicit_files_[file_index];
  return common::Bytes(file.begin() + begin, file.begin() + begin + len);
}

ndn::Data Collection::packet(size_t global_index) const {
  CollectionLayout::Location loc = layout_.locate(global_index);
  ndn::Data data(packet_name(metadata_.collection(), loc.file_name, loc.seq));
  data.set_content(payload(global_index));
  // Collection content is immutable; let caches hold it for a long time.
  data.set_freshness(common::Duration::seconds(3600.0));
  data.sign(producer_key_);
  return data;
}

ndn::Data Collection::packet(const std::string& file_name, uint64_t seq) const {
  auto idx = layout_.index_of(file_name, seq);
  if (!idx) {
    throw std::out_of_range("Collection::packet: unknown file/seq");
  }
  return packet(*idx);
}

}  // namespace dapes::core
