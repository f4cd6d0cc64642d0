// Unit tests for Collection: naming, segmentation, payload modes,
// signatures.
#include <gtest/gtest.h>

#include "dapes/collection.hpp"

namespace dapes::core {
namespace {

using common::Bytes;
using common::BytesView;
using common::bytes_of;

TEST(Collection, ExplicitContentRoundTrips) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  Bytes content = bytes_of("The quick brown fox jumps over the lazy dog!!");
  auto col = Collection::create(ndn::Name("/c"), {{"fox", content}}, 10,
                                MetadataFormat::kPacketDigest, key);
  ASSERT_EQ(col->total_packets(), 5u);  // 46 bytes / 10
  Bytes reassembled;
  for (size_t i = 0; i < col->total_packets(); ++i) {
    Bytes p = col->payload(i);
    reassembled.insert(reassembled.end(), p.begin(), p.end());
  }
  EXPECT_EQ(reassembled, content);
}

TEST(Collection, PacketNamesFollowNamespace) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto col = Collection::create(
      ndn::Name("/damaged-bridge-1533783192"),
      {{"bridge-picture", bytes_of("0123456789")}}, 5,
      MetadataFormat::kPacketDigest, key);
  EXPECT_EQ(col->packet(0).name().to_uri(),
            "/damaged-bridge-1533783192/bridge-picture/0");
  EXPECT_EQ(col->packet(1).name().to_uri(),
            "/damaged-bridge-1533783192/bridge-picture/1");
}

TEST(Collection, PacketsSignedByProducer) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto col = Collection::create(ndn::Name("/c"), {{"f", bytes_of("abc")}}, 4,
                                MetadataFormat::kPacketDigest, key);
  ndn::Data packet = col->packet(0);
  EXPECT_TRUE(packet.verify(kc));
  EXPECT_EQ(col->producer(), key.id());
}

TEST(Collection, DigestsMatchPayloads) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto col = Collection::create(ndn::Name("/c"), {{"f", bytes_of("0123456789")}},
                                4, MetadataFormat::kPacketDigest, key);
  const auto& digests = col->metadata().files()[0].packet_digests;
  ASSERT_EQ(digests.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    Bytes p = col->payload(i);
    EXPECT_EQ(crypto::Sha256::hash(BytesView(p.data(), p.size())), digests[i]);
  }
}

TEST(Collection, SyntheticPayloadsDeterministic) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto a = Collection::create_synthetic(ndn::Name("/c"), {{"f", 4096}}, 1024,
                                        MetadataFormat::kPacketDigest, key);
  auto b = Collection::create_synthetic(ndn::Name("/c"), {{"f", 4096}}, 1024,
                                        MetadataFormat::kPacketDigest, key);
  EXPECT_EQ(a->payload(2), b->payload(2));
  EXPECT_EQ(a->metadata().digest(), b->metadata().digest());
}

TEST(Collection, SyntheticPayloadsDifferPerPacket) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto col = Collection::create_synthetic(ndn::Name("/c"), {{"f", 4096}}, 1024,
                                          MetadataFormat::kPacketDigest, key);
  EXPECT_NE(col->payload(0), col->payload(1));
}

TEST(Collection, SyntheticSizesAndTailPacket) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  // 2500 bytes at 1024 -> packets of 1024, 1024, 452.
  auto col = Collection::create_synthetic(ndn::Name("/c"), {{"f", 2500}}, 1024,
                                          MetadataFormat::kPacketDigest, key);
  ASSERT_EQ(col->total_packets(), 3u);
  EXPECT_EQ(col->payload(0).size(), 1024u);
  EXPECT_EQ(col->payload(2).size(), 452u);
}

TEST(Collection, MultiFileLayoutOrder) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto col = Collection::create_synthetic(
      ndn::Name("/c"), {{"first", 2048}, {"second", 1024}}, 1024,
      MetadataFormat::kPacketDigest, key);
  EXPECT_EQ(col->total_packets(), 3u);
  EXPECT_EQ(col->packet(2).name().to_uri(), "/c/second/0");
}

TEST(Collection, EmptyFileStillOnePacket) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto col = Collection::create(ndn::Name("/c"), {{"empty", {}}}, 1024,
                                MetadataFormat::kPacketDigest, key);
  EXPECT_EQ(col->total_packets(), 1u);
  EXPECT_TRUE(col->payload(0).empty());
}

TEST(Collection, ZeroPacketSizeRejected) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  EXPECT_THROW(Collection::create(ndn::Name("/c"), {{"f", bytes_of("x")}}, 0,
                                  MetadataFormat::kPacketDigest, key),
               std::invalid_argument);
}

TEST(Collection, MetadataPacketsServable) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto col = Collection::create_synthetic(ndn::Name("/c"), {{"f", 65536}}, 256,
                                          MetadataFormat::kPacketDigest, key);
  // 256 packets x 33+ bytes of digest entries: several segments.
  EXPECT_GT(col->metadata_packets().size(), 1u);
  for (const auto& seg : col->metadata_packets()) {
    EXPECT_TRUE(seg->verify(kc));
    // Each segment is its own decode, so frames carrying it share it.
    EXPECT_TRUE(seg->is_wire_decode());
  }
}

/// The shared handle of every packet equals packet(i) field by field and
/// byte for byte, is the packet's own decode, and is one object however
/// often it is served.
void expect_shared_packets_match(const Collection& col,
                                 const crypto::KeyChain& kc) {
  for (size_t i = 0; i < col.total_packets(); ++i) {
    SCOPED_TRACE(i);
    const ndn::DataPtr shared = col.shared_packet(i);
    ASSERT_NE(shared, nullptr);
    const ndn::Data copy = col.packet(i);
    EXPECT_EQ(*shared, copy);
    EXPECT_TRUE(common::equal(shared->wire().view(), copy.wire().view()));
    EXPECT_TRUE(shared->is_wire_decode());
    EXPECT_EQ(*shared, *ndn::Data::decode(shared->wire().view()));
    EXPECT_TRUE(common::equal(shared->content(),
                              BytesView(col.payload(i).data(),
                                        col.payload(i).size())));
    EXPECT_TRUE(shared->verify(kc));
    // Two serves, one object.
    EXPECT_EQ(col.shared_packet(i).get(), shared.get());
  }
  EXPECT_THROW(col.shared_packet(col.total_packets()), std::out_of_range);
}

TEST(Collection, SharedPacketsMatchExplicitPackets) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto col = Collection::create(
      ndn::Name("/c"), {{"fox", bytes_of("The quick brown fox")}, {"e", {}}},
      8, MetadataFormat::kPacketDigest, key);
  ASSERT_EQ(col->total_packets(), 4u);  // 19 bytes / 8, plus the empty file
  expect_shared_packets_match(*col, kc);
}

TEST(Collection, SharedPacketsMatchSyntheticPackets) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto col = Collection::create_synthetic(
      ndn::Name("/c"), {{"first", 2500}, {"second", 1024}}, 1024,
      MetadataFormat::kMerkleTree, key);
  ASSERT_EQ(col->total_packets(), 4u);
  expect_shared_packets_match(*col, kc);
  // Building is deterministic: a second collection's packets have the
  // same bytes.
  auto twin = Collection::create_synthetic(
      ndn::Name("/c"), {{"first", 2500}, {"second", 1024}}, 1024,
      MetadataFormat::kMerkleTree, key);
  for (size_t i = 0; i < col->total_packets(); ++i) {
    EXPECT_TRUE(common::equal(col->shared_packet(i)->wire().view(),
                              twin->shared_packet(i)->wire().view()));
  }
}

TEST(Collection, MerkleFormatHasRootsNotDigests) {
  crypto::KeyChain kc;
  auto key = kc.generate_key("/p");
  auto col = Collection::create_synthetic(ndn::Name("/c"), {{"f", 4096}}, 1024,
                                          MetadataFormat::kMerkleTree, key);
  const auto& fm = col->metadata().files()[0];
  EXPECT_TRUE(fm.merkle_root.has_value());
  EXPECT_TRUE(fm.packet_digests.empty());
  // Metadata fits one segment.
  EXPECT_EQ(col->metadata_packets().size(), 1u);
}

}  // namespace
}  // namespace dapes::core
