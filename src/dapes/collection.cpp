#include "dapes/collection.hpp"

#include <stdexcept>

namespace dapes::core {

namespace {

constexpr size_t kMetadataSegmentSize = 1024;

size_t packets_for(size_t file_bytes, size_t packet_size) {
  if (file_bytes == 0) return 1;  // empty file still occupies one packet
  return (file_bytes + packet_size - 1) / packet_size;
}

}  // namespace

common::Bytes Collection::synthetic_payload(const Name& packet_name,
                                            size_t size) {
  // Counter-mode SHA-256 stream keyed by the packet name: deterministic,
  // unique per name, and incompressible (so nothing accidentally relies on
  // content regularity).
  common::Bytes out;
  out.reserve(size);
  std::string uri = packet_name.to_uri();
  for (uint64_t counter = 0; out.size() < size; ++counter) {
    crypto::Sha256 ctx;
    ctx.update(uri);
    uint8_t ctr[8];  // the counter, 8 bytes big-endian
    for (size_t i = 0; i < 8; ++i) {
      ctr[i] = static_cast<uint8_t>(counter >> (8 * (7 - i)));
    }
    ctx.update(common::BytesView(ctr, sizeof(ctr)));
    crypto::Digest block = ctx.final_digest();
    size_t take = std::min<size_t>(32, size - out.size());
    out.insert(out.end(), block.bytes.begin(), block.bytes.begin() + take);
  }
  return out;
}

Collection::Collection(size_t packet_size, bool synthetic,
                       const crypto::PrivateKey& producer_key)
    : packet_size_(packet_size),
      synthetic_(synthetic),
      producer_key_(producer_key),
      producer_id_(producer_key.id()) {
  if (packet_size == 0) {
    throw std::invalid_argument("Collection: packet_size must be > 0");
  }
}

std::shared_ptr<Collection> Collection::create(
    Name collection_name, std::vector<FileInput> files, size_t packet_size,
    MetadataFormat format, const crypto::PrivateKey& producer_key) {
  auto col = std::shared_ptr<Collection>(
      new Collection(packet_size, /*synthetic=*/false, producer_key));
  std::vector<std::string> names;
  for (auto& f : files) {
    names.push_back(std::move(f.name));
    col->file_sizes_.push_back(f.content.size());
    col->explicit_files_.push_back(std::move(f.content));
  }
  col->publish(std::move(collection_name), names, format);
  return col;
}

std::shared_ptr<Collection> Collection::create_synthetic(
    Name collection_name, std::vector<SyntheticFileInput> files,
    size_t packet_size, MetadataFormat format,
    const crypto::PrivateKey& producer_key) {
  // Packet counts come from the nominal sizes; payloads are generated on
  // demand from the packet names.
  auto col = std::shared_ptr<Collection>(
      new Collection(packet_size, /*synthetic=*/true, producer_key));
  std::vector<std::string> names;
  for (auto& f : files) {
    names.push_back(std::move(f.name));
    col->file_sizes_.push_back(f.size_bytes);
  }
  col->publish(std::move(collection_name), names, format);
  return col;
}

void Collection::publish(Name collection_name,
                         const std::vector<std::string>& file_names,
                         MetadataFormat format) {
  std::vector<FileMetadata> file_meta;
  for (size_t fi = 0; fi < file_names.size(); ++fi) {
    FileMetadata fm;
    fm.name = file_names[fi];
    fm.packet_count = packets_for(file_sizes_[fi], packet_size_);
    file_meta.push_back(std::move(fm));
  }
  metadata_ =
      Metadata(std::move(collection_name), format, std::move(file_meta));
  layout_ = metadata_.layout();

  // Fill digests / Merkle roots now that names are fixed.
  std::vector<FileMetadata> enriched = metadata_.files();
  for (size_t fi = 0; fi < enriched.size(); ++fi) {
    std::vector<crypto::Digest> digests;
    digests.reserve(enriched[fi].packet_count);
    for (uint64_t seq = 0; seq < enriched[fi].packet_count; ++seq) {
      size_t idx = *layout_.index_of(enriched[fi].name, seq);
      common::Bytes payload = this->payload(idx);
      digests.push_back(crypto::Sha256::hash(
          common::BytesView(payload.data(), payload.size())));
    }
    if (format == MetadataFormat::kPacketDigest) {
      enriched[fi].packet_digests = std::move(digests);
    } else {
      enriched[fi].merkle_root = crypto::MerkleTree::compute_root(digests);
    }
  }
  metadata_ = Metadata(metadata_.collection(), format, std::move(enriched));
  // Each segment's own decode carries every lazily cached field already
  // (its wire, its name's prefix hashes, the digest memo sign() filled),
  // so the trial only ever reads these shared objects.
  for (const ndn::Data& segment :
       metadata_.to_packets(producer_key_, kMetadataSegmentSize)) {
    metadata_packets_.push_back(segment.shared_decode());
  }
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
  return *shared_packet(global_index);
}

ndn::DataPtr Collection::shared_packet(size_t global_index) const {
  if (packets_.empty()) packets_.resize(total_packets());
  ndn::DataPtr& slot = packets_.at(global_index);
  if (slot == nullptr) {
    // Deterministic: the same payload, signature and bytes on every
    // build, so building once and sharing changes nothing a receiver sees.
    CollectionLayout::Location loc = layout_.locate(global_index);
    ndn::Data data(packet_name(metadata_.collection(), loc.file_name, loc.seq));
    data.set_content(payload(global_index));
    // Collection content is immutable; let caches hold it for a long time.
    data.set_freshness(common::Duration::seconds(3600.0));
    data.sign(producer_key_);
    slot = data.shared_decode();
  }
  return slot;
}

}  // namespace dapes::core
