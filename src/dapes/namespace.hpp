/// @file
/// DAPES namespace design (paper §IV-A).
///
/// Hierarchical, semantically meaningful names:
///   collection:       /damaged-bridge-1533783192
///   packet in a file: /damaged-bridge-1533783192/bridge-picture/0
///   metadata:         /damaged-bridge-1533783192/metadata-file/<digest8>/<seg>
///   discovery:        /dapes/discovery
///   bitmap exchange:  /dapes/bitmap/<collection...>
///
/// These helpers centralize construction/parsing so the rest of the code
/// never hand-assembles name strings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "ndn/name.hpp"

namespace dapes::core {

using ndn::Name;

/// Reserved top-level application component ("/dapes/...").
inline constexpr std::string_view kAppPrefix = "dapes";
/// Discovery subtree component ("/dapes/discovery").
inline constexpr std::string_view kDiscoveryComponent = "discovery";
/// Bitmap-exchange subtree component ("/dapes/bitmap").
inline constexpr std::string_view kBitmapComponent = "bitmap";
/// Metadata marker component ("<collection>/metadata-file/...").
inline constexpr std::string_view kMetadataComponent = "metadata-file";

/// "/dapes/discovery" — built once and shared (safe to use from any
/// thread).
const Name& discovery_prefix();

/// "/dapes/discovery/q-<id>" — one peer's discovery query. Queries carry
/// a unique component so that concurrent queries from different peers
/// occupy distinct PIT entries (a shared name would aggregate and starve
/// responders whose own query is still pending).
Name discovery_query_name(uint64_t query_id);

/// "<query>/<peer>" — a peer's response to a specific discovery query.
Name discovery_response_name(const Name& query, const std::string& peer_id);

/// True if @p name is a discovery query ("/dapes/discovery/q-...").
bool is_discovery_query(const Name& name);

/// "/dapes/bitmap/<collection components...>" — bitmap exchange prefix for
/// one collection.
Name bitmap_prefix(const Name& collection);

/// True if @p name lies under bitmap_prefix(@p collection), without
/// building that prefix.
bool is_bitmap_name_for(const Name& name, const Name& collection);

/// "/dapes/bitmap/<collection...>/<peer>/<round>" — a specific peer's
/// bitmap data under a collection.
Name bitmap_data_name(const Name& collection, const std::string& peer_id,
                      uint64_t round);

/// "/<collection...>/metadata-file/<digest8>" — metadata file prefix; the
/// digest component is the first 8 hex chars of the metadata digest
/// (paper Fig. 4 shows "/damaged-bridge-1533783192/metadata-file/A23D1F9B").
Name metadata_prefix(const Name& collection, const std::string& digest8);

/// ".../<segment>" — one metadata segment.
Name metadata_segment_name(const Name& metadata_prefix, uint64_t segment);

/// "/<collection...>/<file>/<seq>" — one collection data packet.
Name packet_name(const Name& collection, const std::string& file_name,
                 uint64_t seq);

/// Parsed form of a packet name.
struct PacketNameParts {
  Name collection;        ///< collection prefix
  std::string file_name;  ///< file component
  uint64_t seq = 0;       ///< packet sequence within the file
};

/// Parse "/<collection...>/<file>/<seq>" given the collection prefix
/// length. Returns nullopt if the final component is not numeric or the
/// shape is wrong.
std::optional<PacketNameParts> parse_packet_name(const Name& name,
                                                 size_t collection_size);

/// True if @p name is under "/dapes" (control traffic, not collection
/// data).
bool is_control_name(const Name& name);

/// True if @p name looks like collection metadata
/// ("<collection...>/metadata-file/...").
bool is_metadata_name(const Name& name);

/// Extract the collection prefix from a metadata name (components before
/// "metadata-file"), or nullopt.
std::optional<Name> collection_of_metadata_name(const Name& name);

}  // namespace dapes::core
