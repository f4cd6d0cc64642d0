// Unit tests for DAPES control messages and namespace helpers.
#include <gtest/gtest.h>

#include "dapes/messages.hpp"
#include "dapes/namespace.hpp"

namespace dapes::core {
namespace {

using common::BytesView;

TEST(Namespace, DiscoveryNames) {
  EXPECT_EQ(discovery_prefix().to_uri(), "/dapes/discovery");
  Name query = discovery_query_name(0xabcd);
  EXPECT_TRUE(is_discovery_query(query));
  EXPECT_TRUE(discovery_prefix().is_prefix_of(query));
  EXPECT_EQ(discovery_response_name(query, "peer-3").to_uri(),
            query.to_uri() + "/peer-3");
  EXPECT_FALSE(is_discovery_query(discovery_prefix()));
  EXPECT_FALSE(is_discovery_query(discovery_response_name(query, "p")));
  EXPECT_FALSE(is_discovery_query(Name("/dapes/discovery/notquery")));
}

TEST(Namespace, BitmapNames) {
  Name coll("/damaged-bridge-1533783192");
  EXPECT_EQ(bitmap_prefix(coll).to_uri(),
            "/dapes/bitmap/damaged-bridge-1533783192");
  EXPECT_EQ(bitmap_data_name(coll, "A", 4).to_uri(),
            "/dapes/bitmap/damaged-bridge-1533783192/A/4");
  // is_bitmap_name_for answers bitmap_prefix(coll).is_prefix_of(name).
  Name multi("/region/site");
  for (const Name& name :
       {bitmap_prefix(coll), bitmap_data_name(coll, "A", 4),
        bitmap_data_name(multi, "B", 1), Name("/dapes/bitmap"),
        Name("/dapes/discovery/damaged-bridge-1533783192"),
        Name("/dapes/bitmap/region"), Name("/dapes/bitmap/region/other")}) {
    for (const Name& collection : {coll, multi}) {
      EXPECT_EQ(is_bitmap_name_for(name, collection),
                bitmap_prefix(collection).is_prefix_of(name))
          << name.to_uri() << " under " << collection.to_uri();
    }
  }
  EXPECT_TRUE(is_bitmap_name_for(bitmap_data_name(multi, "B", 1), multi));
  EXPECT_FALSE(is_bitmap_name_for(bitmap_data_name(multi, "B", 1), coll));
}

TEST(Namespace, MetadataNames) {
  Name coll("/c");
  Name prefix = metadata_prefix(coll, "a23d1f9b");
  EXPECT_EQ(prefix.to_uri(), "/c/metadata-file/a23d1f9b");
  EXPECT_EQ(metadata_segment_name(prefix, 2).to_uri(),
            "/c/metadata-file/a23d1f9b/2");
  EXPECT_TRUE(is_metadata_name(prefix));
  EXPECT_FALSE(is_metadata_name(Name("/c/file/0")));
  EXPECT_EQ(collection_of_metadata_name(prefix)->to_uri(), "/c");
  EXPECT_FALSE(collection_of_metadata_name(Name("/c/file/0")).has_value());
}

TEST(Namespace, PacketNames) {
  Name coll("/c");
  Name pkt = packet_name(coll, "bridge-picture", 7);
  EXPECT_EQ(pkt.to_uri(), "/c/bridge-picture/7");
  auto parts = parse_packet_name(pkt, 1);
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(parts->collection.to_uri(), "/c");
  EXPECT_EQ(parts->file_name, "bridge-picture");
  EXPECT_EQ(parts->seq, 7u);
}

TEST(Namespace, ParsePacketNameRejectsBadShapes) {
  EXPECT_FALSE(parse_packet_name(Name("/c/file/x"), 1).has_value());
  EXPECT_FALSE(parse_packet_name(Name("/c/file"), 1).has_value());
  EXPECT_FALSE(parse_packet_name(Name("/c/a/b/0"), 1).has_value());
}

TEST(Namespace, ControlNames) {
  EXPECT_TRUE(is_control_name(Name("/dapes/discovery")));
  EXPECT_TRUE(is_control_name(Name("/dapes/bitmap/c/A/1")));
  EXPECT_FALSE(is_control_name(Name("/collection/file/0")));
  EXPECT_FALSE(is_control_name(Name("")));
}

TEST(DiscoveryMessage, RoundTrip) {
  DiscoveryMessage msg;
  msg.peer_id = "resident-A";
  msg.metadata_names.push_back(Name("/damaged-bridge/metadata-file/ab12cd34"));
  msg.metadata_names.push_back(Name("/flood-map/metadata-file/99887766"));
  auto wire = msg.encode();
  auto decoded = DiscoveryMessage::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(DiscoveryMessage, EmptyCollectionsAllowed) {
  DiscoveryMessage msg;
  msg.peer_id = "lonely";
  auto wire = msg.encode();
  auto decoded = DiscoveryMessage::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->metadata_names.empty());
}

TEST(DiscoveryMessage, RejectsMissingPeerId) {
  common::Bytes junk;  // no kPeerId element
  EXPECT_FALSE(DiscoveryMessage::decode(BytesView(junk.data(), junk.size()))
                   .has_value());
}

TEST(BitmapMessage, RoundTrip) {
  BitmapMessage msg;
  msg.peer_id = "B";
  msg.collection = Name("/damaged-bridge-1533783192");
  msg.round = 3;
  msg.layout = {{"bridge-picture", 100}, {"bridge-location", 2}};
  msg.bitmap = Bitmap(102);
  msg.bitmap.set(0);
  msg.bitmap.set(101);
  auto wire = msg.encode();
  auto decoded = BitmapMessage::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->peer_id, "B");
  EXPECT_EQ(decoded->collection, msg.collection);
  EXPECT_EQ(decoded->round, 3u);
  ASSERT_EQ(decoded->layout.size(), 2u);
  EXPECT_EQ(decoded->layout[1].name, "bridge-location");
  EXPECT_EQ(decoded->layout[1].packet_count, 2u);
  EXPECT_EQ(decoded->bitmap, msg.bitmap);
}

TEST(BitmapMessage, RejectsMissingBitmap) {
  BitmapMessage msg;
  msg.peer_id = "B";
  msg.collection = Name("/c");
  msg.bitmap = Bitmap(4);
  auto wire = msg.encode();
  // Truncate the bitmap TLV off the end.
  wire.resize(wire.size() - (msg.bitmap.encode().size() + 2));
  EXPECT_FALSE(BitmapMessage::decode(BytesView(wire.data(), wire.size()))
                   .has_value());
}

TEST(BitmapMessage, RejectsGarbage) {
  common::Bytes junk = common::bytes_of("garbage garbage garbage");
  EXPECT_FALSE(
      BitmapMessage::decode(BytesView(junk.data(), junk.size())).has_value());
}

TEST(BitmapMessage, LayoutSupportsForeignMapping) {
  // An intermediate node without the metadata can still map packet names
  // to bit positions using the carried layout.
  BitmapMessage msg;
  msg.peer_id = "B";
  msg.collection = Name("/c");
  msg.layout = {{"f0", 10}, {"f1", 5}};
  msg.bitmap = Bitmap(15);
  msg.bitmap.set(12);  // f1 seq 2
  auto wire = msg.encode();
  auto decoded = BitmapMessage::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  CollectionLayout layout(decoded->layout);
  auto idx = layout.index_of("f1", 2);
  ASSERT_TRUE(idx.has_value());
  EXPECT_TRUE(decoded->bitmap.test(*idx));
}

}  // namespace
}  // namespace dapes::core
