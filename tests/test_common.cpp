// Unit tests for common utilities: bytes, rng, time.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace dapes::common {
namespace {

TEST(Bytes, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(BytesView(data.data(), data.size())), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, HexUppercaseAccepted) {
  EXPECT_EQ(from_hex("ABCDEF"), (Bytes{0xab, 0xcd, 0xef}));
}

TEST(Bytes, HexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(Bytes, HexRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, BigEndianRoundTrip) {
  Bytes out;
  append_be(out, 0x0102030405060708ULL, 8);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(out[0], 0x01);
  EXPECT_EQ(out[7], 0x08);
  EXPECT_EQ(read_be(BytesView(out.data(), out.size()), 0, 8),
            0x0102030405060708ULL);
}

TEST(Bytes, BigEndianPartialWidths) {
  for (size_t width = 1; width <= 8; ++width) {
    Bytes out;
    uint64_t value = 0xdeadbeefcafebabeULL >> (8 * (8 - width));
    append_be(out, value, width);
    EXPECT_EQ(out.size(), width);
    EXPECT_EQ(read_be(BytesView(out.data(), out.size()), 0, width), value);
  }
}

TEST(Bytes, ReadBeOutOfRangeThrows) {
  Bytes out = {1, 2};
  EXPECT_THROW(read_be(BytesView(out.data(), out.size()), 1, 2),
               std::out_of_range);
}

TEST(Bytes, BeWidth) {
  EXPECT_EQ(be_width(0), 1u);
  EXPECT_EQ(be_width(0xff), 1u);
  EXPECT_EQ(be_width(0x100), 2u);
  EXPECT_EQ(be_width(0xffffffffffffffffULL), 8u);
}

TEST(Bytes, Equal) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2};
  EXPECT_TRUE(equal(BytesView(a.data(), a.size()), BytesView(b.data(), b.size())));
  EXPECT_FALSE(equal(BytesView(a.data(), a.size()), BytesView(c.data(), c.size())));
  EXPECT_TRUE(equal({}, {}));
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, ForkIndependence) {
  Rng parent(29);
  Rng child = parent.fork();
  // Child stream should not equal continued parent stream.
  bool all_same = true;
  for (int i = 0; i < 16; ++i) {
    if (parent.next() != child.next()) all_same = false;
  }
  EXPECT_FALSE(all_same);
}

TEST(Time, DurationConstruction) {
  EXPECT_EQ(Duration::milliseconds(5).us, 5000);
  EXPECT_EQ(Duration::seconds(1.5).us, 1500000);
  EXPECT_EQ(Duration::microseconds(7).us, 7);
}

TEST(Time, DurationArithmetic) {
  Duration a = Duration::milliseconds(10);
  Duration b = Duration::milliseconds(4);
  EXPECT_EQ((a + b).us, 14000);
  EXPECT_EQ((a - b).us, 6000);
  EXPECT_EQ((a * 3).us, 30000);
  EXPECT_EQ((a / 2).us, 5000);
  EXPECT_LT(b, a);
}

TEST(Time, TimePointArithmetic) {
  TimePoint t{1000};
  TimePoint u = t + Duration{500};
  EXPECT_EQ(u.us, 1500);
  EXPECT_EQ((u - t).us, 500);
  EXPECT_EQ((u - Duration{500}).us, 1000);
}

}  // namespace
}  // namespace dapes::common
