#include "dapes/namespace.hpp"

#include <cstdio>

namespace dapes::core {

namespace {

/// True if component @p i of @p name is exactly @p text.
bool component_is(const Name& name, size_t i, std::string_view text) {
  return name[i] == ndn::Component(text);
}

}  // namespace

const Name& discovery_prefix() {
  static const Name prefix{kAppPrefix, kDiscoveryComponent};
  return prefix;
}

Name discovery_query_name(uint64_t query_id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "q-%016llx",
                static_cast<unsigned long long>(query_id));
  return discovery_prefix().appended(buf);
}

Name discovery_response_name(const Name& query, const std::string& peer_id) {
  return query.appended(peer_id);
}

bool is_discovery_query(const Name& name) {
  if (name.size() != 3) return false;
  if (!discovery_prefix().is_prefix_of(name)) return false;
  const common::BytesView last = name[2].value();
  return last.size() > 2 && last[0] == 'q' && last[1] == '-';
}

Name bitmap_prefix(const Name& collection) {
  Name n{kAppPrefix, kBitmapComponent};
  for (size_t i = 0; i < collection.size(); ++i) n.append(collection[i]);
  return n;
}

bool is_bitmap_name_for(const Name& name, const Name& collection) {
  if (name.size() < 2 + collection.size() ||
      !component_is(name, 0, kAppPrefix) ||
      !component_is(name, 1, kBitmapComponent)) {
    return false;
  }
  for (size_t i = 0; i < collection.size(); ++i) {
    if (name[2 + i] != collection[i]) return false;
  }
  return true;
}

Name bitmap_data_name(const Name& collection, const std::string& peer_id,
                      uint64_t round) {
  return bitmap_prefix(collection).appended(peer_id).appended_number(round);
}

Name metadata_prefix(const Name& collection, const std::string& digest8) {
  return collection.appended(kMetadataComponent).appended(digest8);
}

Name metadata_segment_name(const Name& prefix, uint64_t segment) {
  return prefix.appended_number(segment);
}

Name packet_name(const Name& collection, const std::string& file_name,
                 uint64_t seq) {
  return collection.appended(file_name).appended_number(seq);
}

std::optional<PacketNameParts> parse_packet_name(const Name& name,
                                                 size_t collection_size) {
  if (name.size() != collection_size + 2) return std::nullopt;
  auto seq = name[name.size() - 1].to_number();
  if (!seq) return std::nullopt;
  PacketNameParts parts;
  parts.collection = name.prefix(collection_size);
  parts.file_name = name[collection_size].to_string();
  parts.seq = *seq;
  return parts;
}

bool is_control_name(const Name& name) {
  return !name.empty() && component_is(name, 0, kAppPrefix);
}

bool is_metadata_name(const Name& name) {
  for (size_t i = 0; i < name.size(); ++i) {
    if (component_is(name, i, kMetadataComponent)) return i > 0;
  }
  return false;
}

std::optional<Name> collection_of_metadata_name(const Name& name) {
  for (size_t i = 1; i < name.size(); ++i) {
    if (component_is(name, i, kMetadataComponent)) {
      return name.prefix(i);
    }
  }
  return std::nullopt;
}

}  // namespace dapes::core
