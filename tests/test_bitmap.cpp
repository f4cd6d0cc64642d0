// Unit tests for CollectionLayout and Bitmap (paper §IV-D data
// advertisements).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dapes/bitmap.hpp"

namespace dapes::core {
namespace {

CollectionLayout two_file_layout() {
  // Mirrors the paper's Fig. 4 example: bridge-picture has 100 packets,
  // bridge-location has 2; bit 100 is bridge-location/0.
  return CollectionLayout({{"bridge-picture", 100}, {"bridge-location", 2}});
}

TEST(CollectionLayout, PaperFigureExample) {
  CollectionLayout layout = two_file_layout();
  EXPECT_EQ(layout.total_packets(), 102u);
  EXPECT_EQ(layout.index_of("bridge-picture", 0), 0u);
  EXPECT_EQ(layout.index_of("bridge-picture", 99), 99u);
  EXPECT_EQ(layout.index_of("bridge-location", 0), 100u);
  EXPECT_EQ(layout.index_of("bridge-location", 1), 101u);
}

TEST(CollectionLayout, UnknownFileOrSeq) {
  CollectionLayout layout = two_file_layout();
  EXPECT_FALSE(layout.index_of("nope", 0).has_value());
  EXPECT_FALSE(layout.index_of("bridge-picture", 100).has_value());
  EXPECT_FALSE(layout.index_of("bridge-location", 2).has_value());
}

TEST(CollectionLayout, LocateInverse) {
  CollectionLayout layout = two_file_layout();
  for (size_t i : {0u, 1u, 99u, 100u, 101u}) {
    auto loc = layout.locate(i);
    EXPECT_EQ(layout.index_of(loc.file_name, loc.seq), i);
  }
  EXPECT_THROW(layout.locate(102), std::out_of_range);
}

class LayoutRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(LayoutRoundTrip, IndexLocateBijection) {
  // Property: locate(index_of(f, s)) == (f, s) across many shapes.
  common::Rng rng(GetParam());
  std::vector<CollectionLayout::FileEntry> files;
  size_t n = 1 + rng.next_below(8);
  for (size_t i = 0; i < n; ++i) {
    files.push_back({"f" + std::to_string(i), 1 + (size_t)rng.next_below(50)});
  }
  CollectionLayout layout(files);
  for (size_t i = 0; i < layout.total_packets(); ++i) {
    auto loc = layout.locate(i);
    ASSERT_EQ(layout.index_of(loc.file_name, loc.seq), i);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, LayoutRoundTrip,
                         ::testing::Range<size_t>(1, 12));

TEST(Bitmap, SetTestCount) {
  Bitmap bm(130);
  EXPECT_EQ(bm.count(), 0u);
  EXPECT_TRUE(bm.none());
  bm.set(0);
  bm.set(64);
  bm.set(129);
  EXPECT_EQ(bm.count(), 3u);
  EXPECT_TRUE(bm.test(64));
  EXPECT_FALSE(bm.test(1));
  bm.set(64, false);
  EXPECT_EQ(bm.count(), 2u);
}

TEST(Bitmap, OutOfRangeThrows) {
  Bitmap bm(10);
  EXPECT_THROW(bm.test(10), std::out_of_range);
  EXPECT_THROW(bm.set(10), std::out_of_range);
}

TEST(Bitmap, FullAndCompleteness) {
  Bitmap bm(4);
  for (size_t i = 0; i < 4; ++i) bm.set(i);
  EXPECT_TRUE(bm.full());
  EXPECT_DOUBLE_EQ(bm.completeness(), 1.0);
  bm.set(1, false);
  EXPECT_DOUBLE_EQ(bm.completeness(), 0.75);
}

TEST(Bitmap, CountSetAndMissingFrom) {
  Bitmap mine(8), theirs(8);
  mine.set(0);
  mine.set(1);
  mine.set(2);
  theirs.set(1);
  // I have {0,1,2}; they miss {0,2} of those.
  EXPECT_EQ(mine.count_set_and_missing_from(theirs), 2u);
  EXPECT_EQ(theirs.count_set_and_missing_from(mine), 0u);
}

TEST(Bitmap, MissingIndices) {
  Bitmap bm(5);
  bm.set(1);
  bm.set(3);
  EXPECT_EQ(bm.missing_indices(), (std::vector<size_t>{0, 2, 4}));
}

TEST(Bitmap, OrWith) {
  Bitmap a(70), b(70);
  a.set(0);
  b.set(69);
  a.or_with(b);
  EXPECT_TRUE(a.test(0));
  EXPECT_TRUE(a.test(69));
  EXPECT_EQ(a.count(), 2u);
}

class BitmapSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(BitmapSizes, EncodeDecodeRoundTrip) {
  size_t n = GetParam();
  common::Rng rng(n * 31 + 1);
  Bitmap bm(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.chance(0.5)) bm.set(i);
  }
  auto decoded = Bitmap::decode(common::BytesView(bm.encode().data(),
                                                  bm.encode().size()));
  // encode() is called twice above; take a stable copy instead.
  common::Bytes wire = bm.encode();
  decoded = Bitmap::decode(common::BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, bm);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitmapSizes,
                         ::testing::Values(0, 1, 7, 8, 9, 63, 64, 65, 100,
                                           1024, 10240));

// Round trips cannot see a bit-order change that encode and decode make
// alike, so these pin the wire layout itself: a 4-byte big-endian bit
// count, then bit 8k+j in byte k at mask 0x80 >> j (MSB first).
TEST(Bitmap, WireLayoutIsMsbFirst) {
  Bitmap bm(10);
  bm.set(0);
  bm.set(2);
  bm.set(9);
  EXPECT_EQ(bm.encode(), (common::Bytes{0, 0, 0, 10, 0xA0, 0x40}));

  // Across a word boundary: bits 63, 64 and 69 of 70.
  Bitmap wide(70);
  wide.set(63);
  wide.set(64);
  wide.set(69);
  EXPECT_EQ(wide.encode(), (common::Bytes{0, 0, 0, 70, 0, 0, 0, 0, 0, 0, 0,
                                          0x01, 0x84}));
  common::Bytes wire = wide.encode();
  auto decoded = Bitmap::decode(common::BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, wide);
}

TEST(Bitmap, DecodeIgnoresPaddingBits) {
  // 0x7F sets bit 9 and the six padding bits after bit 9: the padding is
  // not part of the bitmap, so it decodes to {0, 2, 9} and re-encodes
  // with zero padding.
  common::Bytes wire = {0, 0, 0, 10, 0xA0, 0x7F};
  auto decoded = Bitmap::decode(common::BytesView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->count(), 3u);
  EXPECT_TRUE(decoded->test(0));
  EXPECT_TRUE(decoded->test(2));
  EXPECT_TRUE(decoded->test(9));
  EXPECT_EQ(decoded->encode(), (common::Bytes{0, 0, 0, 10, 0xA0, 0x40}));
}

TEST(Bitmap, DecodeRejectsWrongLength) {
  Bitmap bm(16);
  common::Bytes wire = bm.encode();
  wire.pop_back();
  EXPECT_FALSE(Bitmap::decode(common::BytesView(wire.data(), wire.size()))
                   .has_value());
  wire.push_back(0);
  wire.push_back(0);
  EXPECT_FALSE(Bitmap::decode(common::BytesView(wire.data(), wire.size()))
                   .has_value());
}

TEST(Bitmap, DecodeRejectsTruncatedHeader) {
  common::Bytes tiny = {0, 0};
  EXPECT_FALSE(Bitmap::decode(common::BytesView(tiny.data(), tiny.size()))
                   .has_value());
}

TEST(Bitmap, WireSizeIsCompact) {
  // The paper's point: 10240 packets advertise in ~1.3 KB.
  Bitmap bm(10240);
  EXPECT_EQ(bm.encode().size(), 4u + 1280u);
}

}  // namespace
}  // namespace dapes::core
