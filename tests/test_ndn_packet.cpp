// Unit tests for TLV encoding and Interest/Data packets.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "crypto/keychain.hpp"
#include "ndn/packet.hpp"
#include "ndn/tlv.hpp"

namespace dapes::ndn {
namespace {

using common::Bytes;
using common::BytesView;
using common::bytes_of;

class VarNum : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarNum, RoundTrips) {
  Bytes out;
  tlv::append_varnum(out, GetParam());
  tlv::Reader reader(BytesView(out.data(), out.size()));
  EXPECT_EQ(reader.read_varnum(), GetParam());
  EXPECT_TRUE(reader.at_end());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarNum,
                         ::testing::Values(0, 1, 252, 253, 254, 0xffff,
                                           0x10000, 0xffffffffULL,
                                           0x100000000ULL,
                                           0xffffffffffffffffULL));

TEST(Tlv, ElementRoundTrip) {
  Bytes out;
  Bytes value = bytes_of("payload");
  tlv::append_tlv(out, 0x55, BytesView(value.data(), value.size()));
  tlv::Reader reader(BytesView(out.data(), out.size()));
  auto e = reader.read_element();
  EXPECT_EQ(e.type, 0x55u);
  EXPECT_TRUE(common::equal(e.value, BytesView(value.data(), value.size())));
}

TEST(Tlv, NumberEncodingWidths) {
  for (uint64_t v : {0ull, 0xffull, 0x100ull, 0xffffull, 0x10000ull,
                     0xffffffffull, 0x100000000ull}) {
    Bytes out;
    tlv::append_tlv_number(out, 7, v);
    tlv::Reader reader(BytesView(out.data(), out.size()));
    auto e = reader.expect(7);
    EXPECT_EQ(tlv::parse_number(e.value), v);
  }
}

TEST(Tlv, TruncatedElementThrows) {
  Bytes out;
  tlv::append_tlv(out, 1, BytesView());
  out.back() = 10;  // claims 10 bytes of value that do not exist
  tlv::Reader reader(BytesView(out.data(), out.size()));
  EXPECT_THROW(reader.read_element(), tlv::ParseError);
}

TEST(Tlv, ExpectRejectsWrongType) {
  Bytes out;
  tlv::append_tlv(out, 1, BytesView());
  tlv::Reader reader(BytesView(out.data(), out.size()));
  EXPECT_THROW(reader.expect(2), tlv::ParseError);
}

TEST(Tlv, FindSkipsToType) {
  Bytes out;
  tlv::append_tlv(out, 1, BytesView());
  tlv::append_tlv(out, 2, BytesView());
  tlv::append_tlv(out, 3, BytesView());
  tlv::Reader reader(BytesView(out.data(), out.size()));
  auto found = reader.find(3);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->type, 3u);
  EXPECT_FALSE(reader.find(99).has_value());
}

TEST(Interest, EncodeDecodeRoundTrip) {
  Interest interest(Name("/dapes/discovery"));
  interest.set_nonce(0xdeadbeef);
  interest.set_can_be_prefix(true);
  interest.set_lifetime(common::Duration::milliseconds(1500));
  interest.set_hop_limit(3);
  Bytes wire = interest.encode();
  auto decoded = Interest::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, interest);
}

TEST(Interest, AppParametersRoundTrip) {
  Interest interest(Name("/dapes/bitmap/coll/peer/1"));
  interest.set_app_parameters(bytes_of("opaque-bitmap-payload"));
  Bytes wire = interest.encode();
  auto decoded = Interest::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(common::equal(decoded->app_parameters(),
                            bytes_of("opaque-bitmap-payload")));
  EXPECT_TRUE(decoded->has_app_parameters());
}

TEST(Interest, DecodeRejectsNonInterest) {
  Data data(Name("/x"));
  Bytes wire = data.encode();
  EXPECT_FALSE(Interest::decode(BytesView(wire.data(), wire.size())));
}

TEST(Data, EncodeDecodeRoundTrip) {
  Data data(Name("/coll/file/0"));
  data.set_content(bytes_of("content-bytes"));
  data.set_freshness(common::Duration::milliseconds(750));
  Bytes wire = data.encode();
  auto decoded = Data::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
  EXPECT_EQ(decoded->freshness().us, 750000);
}

TEST(Data, SignatureSurvivesRoundTrip) {
  crypto::KeyChain kc;
  crypto::PrivateKey key = kc.generate_key("/producer");
  Data data(Name("/coll/file/1"));
  data.set_content(bytes_of("x"));
  data.sign(key);
  Bytes wire = data.encode();
  auto decoded = Data::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->signature().has_value());
  EXPECT_TRUE(decoded->verify(kc));
}

TEST(Data, TamperedContentFailsVerify) {
  crypto::KeyChain kc;
  crypto::PrivateKey key = kc.generate_key("/producer");
  Data data(Name("/coll/file/1"));
  data.set_content(bytes_of("original"));
  data.sign(key);
  Bytes wire = data.encode();
  auto decoded = Data::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  decoded->set_content(bytes_of("tampered"));
  EXPECT_FALSE(decoded->verify(kc));
}

TEST(Data, UnsignedNeverVerifies) {
  crypto::KeyChain kc;
  Data data(Name("/x"));
  EXPECT_FALSE(data.verify(kc));
}

TEST(Data, ContentDigestMatchesSha) {
  Data data(Name("/x"));
  data.set_content(bytes_of("abc"));
  EXPECT_EQ(data.content_digest(), crypto::Sha256::hash("abc"));
}

TEST(Data, EmptyContentAllowed) {
  Data data(Name("/x"));
  Bytes wire = data.encode();
  auto decoded = Data::decode(BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->content().empty());
}

// Data::is_wire_decode() marks a packet that is exactly decode(wire()):
// only such a packet may stand in for a receiver's decode.
TEST(Data, DecodeSetsWireDecodeBit) {
  Data data(Name("/coll/file/2"));
  data.set_content(bytes_of("bits"));
  auto decoded = Data::decode(data.wire());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->is_wire_decode());
}

TEST(Data, BuiltAndEncodedDataNeverHasWireDecodeBit) {
  crypto::KeyChain kc;
  Data data(Name("/coll/file/3"));
  EXPECT_FALSE(data.is_wire_decode());
  data.set_content(bytes_of("built"));
  data.sign(kc.generate_key("/producer"));
  (void)data.wire();
  EXPECT_TRUE(data.has_wire());
  EXPECT_FALSE(data.is_wire_decode());
  EXPECT_FALSE(Data(data).is_wire_decode());
}

TEST(Data, CopiesKeepWireDecodeBit) {
  Data data(Name("/coll/file/4"));
  data.set_content(bytes_of("copied"));
  const Data decoded = *Data::decode(data.wire());
  Data copy = decoded;
  EXPECT_TRUE(copy.is_wire_decode());
  Data assigned;
  assigned = decoded;
  EXPECT_TRUE(assigned.is_wire_decode());
}

TEST(Data, EveryMutatorClearsWireDecodeBit) {
  crypto::KeyChain kc;
  crypto::PrivateKey key = kc.generate_key("/producer");
  Data data(Name("/coll/file/5"));
  data.set_content(bytes_of("mutable"));
  data.sign(key);
  const Data decoded = *Data::decode(data.wire());
  ASSERT_TRUE(decoded.is_wire_decode());
  const std::vector<std::pair<const char*, std::function<void(Data&)>>>
      mutators = {
          {"set_content(Bytes)", [](Data& d) { d.set_content(bytes_of("x")); }},
          {"set_content(BufferSlice)",
           [](Data& d) { d.set_content(d.content_slice()); }},
          {"set_freshness", [](Data& d) { d.set_freshness(d.freshness()); }},
          {"sign", [&key](Data& d) { d.sign(key); }},
      };
  for (const auto& [what, mutate] : mutators) {
    Data copy = decoded;
    mutate(copy);
    EXPECT_FALSE(copy.is_wire_decode()) << what;
  }
}

TEST(Data, SharedDecodeIsTheDecodeOfTheWire) {
  crypto::KeyChain kc;
  Data data(Name("/coll/file/6"));
  data.set_content(bytes_of("shared"));
  data.set_freshness(common::Duration::milliseconds(750));
  data.sign(kc.generate_key("/producer"));
  DataPtr shared = data.shared_decode();
  EXPECT_TRUE(shared->is_wire_decode());
  EXPECT_EQ(*shared, data);
  EXPECT_EQ(*shared, *Data::decode(data.wire()));
  // A view into the built packet's one encoding, digest memo kept.
  EXPECT_EQ(shared->wire().data(), data.wire().data());
  EXPECT_EQ(shared->content_digest(), crypto::Sha256::hash("shared"));
  EXPECT_TRUE(shared->verify(kc));
}

TEST(Data, SharedDecodeReadsWhatTheWireCarries) {
  // The wire carries whole milliseconds, so the shared decode of a
  // 1.5 ms freshness reads 1 ms, as every receiver would.
  Data data(Name("/coll/file/7"));
  data.set_freshness(common::Duration::microseconds(1500));
  EXPECT_EQ(data.shared_decode()->freshness().us, 1000);
}

TEST(Packets, UnknownTlvElementsIgnored) {
  // Forward compatibility: an unknown element inside an Interest is
  // skipped, not fatal.
  Interest interest(Name("/a"));
  Bytes wire = interest.encode();
  // Append an unknown TLV inside the Interest body: rebuild manually.
  tlv::Reader outer(BytesView(wire.data(), wire.size()));
  auto packet = outer.expect(tlv::kInterest);
  Bytes inner(packet.value.begin(), packet.value.end());
  tlv::append_tlv(inner, 0x70, BytesView());
  Bytes rebuilt;
  tlv::append_tlv(rebuilt, tlv::kInterest, BytesView(inner.data(), inner.size()));
  auto decoded = Interest::decode(BytesView(rebuilt.data(), rebuilt.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->name(), interest.name());
}

}  // namespace
}  // namespace dapes::ndn
