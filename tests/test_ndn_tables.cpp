// Unit tests for the NFD-lite tables: Content Store, PIT, FIB.
#include <gtest/gtest.h>

#include "ndn/tables.hpp"

namespace dapes::ndn {
namespace {

using common::bytes_of;

Data make_data(const std::string& uri, const std::string& content = "x",
               common::Duration freshness = common::Duration::seconds(3600.0)) {
  Data d{Name(uri)};
  d.set_content(bytes_of(content));
  d.set_freshness(freshness);
  return d;
}

TEST(ContentStore, ExactMatch) {
  ContentStore cs;
  cs.insert(make_data("/a/b/0"));
  EXPECT_TRUE(cs.find(Name("/a/b/0")) != nullptr);
  EXPECT_FALSE(cs.find(Name("/a/b/1")) != nullptr);
}

TEST(ContentStore, PrefixMatch) {
  ContentStore cs;
  cs.insert(make_data("/a/b/3"));
  EXPECT_FALSE(cs.find(Name("/a/b")) != nullptr);
  auto hit = cs.find(Name("/a/b"), /*can_be_prefix=*/true);
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->name().to_uri(), "/a/b/3");
  EXPECT_FALSE(cs.find(Name("/a/c"), true) != nullptr);
}

TEST(ContentStore, LruEviction) {
  ContentStore cs(3);
  cs.insert(make_data("/n/0"));
  cs.insert(make_data("/n/1"));
  cs.insert(make_data("/n/2"));
  // Touch /n/0 so /n/1 becomes the LRU victim.
  EXPECT_TRUE(cs.find(Name("/n/0")) != nullptr);
  cs.insert(make_data("/n/3"));
  EXPECT_EQ(cs.size(), 3u);
  EXPECT_TRUE(cs.contains(Name("/n/0")));
  EXPECT_FALSE(cs.contains(Name("/n/1")));
  EXPECT_TRUE(cs.contains(Name("/n/3")));
}

TEST(ContentStore, FreshnessExpiry) {
  ContentStore cs;
  cs.insert(make_data("/f/0", "x", common::Duration::milliseconds(500)),
            TimePoint{0});
  EXPECT_TRUE(cs.find(Name("/f/0"), false, TimePoint{400000}) != nullptr);
  EXPECT_FALSE(cs.find(Name("/f/0"), false, TimePoint{600000}) != nullptr);
  // The expired entry was evicted on lookup.
  EXPECT_EQ(cs.size(), 0u);
}

TEST(ContentStore, PrefixLookupSkipsExpired) {
  ContentStore cs;
  cs.insert(make_data("/p/0", "x", common::Duration::milliseconds(100)),
            TimePoint{0});
  cs.insert(make_data("/p/1", "x", common::Duration::seconds(100.0)),
            TimePoint{0});
  auto hit = cs.find(Name("/p"), true, TimePoint{50000000});
  ASSERT_TRUE(hit != nullptr);
  EXPECT_EQ(hit->name().to_uri(), "/p/1");
}

TEST(ContentStore, ContentBytesTracked) {
  ContentStore cs(2);
  cs.insert(make_data("/c/0", "12345"));
  EXPECT_EQ(cs.content_bytes(), 5u);
  cs.insert(make_data("/c/1", "123"));
  EXPECT_EQ(cs.content_bytes(), 8u);
  cs.insert(make_data("/c/2", "1"));  // evicts /c/0
  EXPECT_EQ(cs.content_bytes(), 4u);
}

TEST(ContentStore, ReinsertRefreshesExpiry) {
  ContentStore cs;
  cs.insert(make_data("/r/0", "x", common::Duration::milliseconds(100)),
            TimePoint{0});
  cs.insert(make_data("/r/0", "x", common::Duration::milliseconds(100)),
            TimePoint{80000});
  EXPECT_TRUE(cs.find(Name("/r/0"), false, TimePoint{150000}) != nullptr);
}

TEST(Pit, InsertAndFind) {
  Pit pit;
  PitEntry& e = pit.insert(Name("/a/1"));
  e.in_faces.push_back(3);
  ASSERT_NE(pit.find(Name("/a/1")), nullptr);
  EXPECT_EQ(pit.find(Name("/a/1"))->in_faces.size(), 1u);
  EXPECT_EQ(pit.find(Name("/a/2")), nullptr);
}

TEST(Pit, MatchesForDataExact) {
  Pit pit;
  pit.insert(Name("/a/1"));
  auto matches = pit.matches_for_data(Name("/a/1"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].to_uri(), "/a/1");
}

TEST(Pit, MatchesForDataPrefix) {
  Pit pit;
  PitEntry& e = pit.insert(Name("/dapes/discovery"));
  e.can_be_prefix = true;
  auto matches = pit.matches_for_data(Name("/dapes/discovery/peer-7"));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].to_uri(), "/dapes/discovery");
}

TEST(Pit, PrefixEntryWithoutFlagDoesNotMatchLonger) {
  Pit pit;
  pit.insert(Name("/a"));  // can_be_prefix = false
  EXPECT_TRUE(pit.matches_for_data(Name("/a/b")).empty());
}

TEST(Pit, ExactAndPrefixBothMatch) {
  Pit pit;
  pit.insert(Name("/a/b"));
  PitEntry& p = pit.insert(Name("/a"));
  p.can_be_prefix = true;
  auto matches = pit.matches_for_data(Name("/a/b"));
  EXPECT_EQ(matches.size(), 2u);
}

TEST(Pit, NonceTracking) {
  Pit pit;
  PitEntry& e = pit.insert(Name("/n"));
  e.nonces.insert(111);
  EXPECT_TRUE(pit.has_nonce(Name("/n"), 111));
  EXPECT_FALSE(pit.has_nonce(Name("/n"), 222));
  EXPECT_FALSE(pit.has_nonce(Name("/other"), 111));
}

TEST(Pit, DeadNonceSurvivesErase) {
  Pit pit;
  PitEntry& e = pit.insert(Name("/n"));
  e.nonces.insert(111);
  pit.record_dead_nonce(Name("/n"), 111);
  pit.erase(Name("/n"));
  EXPECT_TRUE(pit.has_nonce(Name("/n"), 111));
}

TEST(Fib, LongestPrefixMatch) {
  Fib fib;
  fib.add_route(Name("/a"), 1);
  fib.add_route(Name("/a/b"), 2);
  EXPECT_EQ(fib.lookup(Name("/a/b/c")), std::vector<FaceId>{2});
  EXPECT_EQ(fib.lookup(Name("/a/x")), std::vector<FaceId>{1});
  EXPECT_TRUE(fib.lookup(Name("/z")).empty());
}

TEST(Fib, ExactNameRoute) {
  Fib fib;
  fib.add_route(Name("/only/this"), 5);
  EXPECT_EQ(fib.lookup(Name("/only/this")), std::vector<FaceId>{5});
  EXPECT_TRUE(fib.lookup(Name("/only")).empty());
}

TEST(Fib, MultipleFacesPerPrefix) {
  Fib fib;
  fib.add_route(Name("/m"), 1);
  fib.add_route(Name("/m"), 2);
  auto faces = fib.lookup(Name("/m/x"));
  EXPECT_EQ(faces.size(), 2u);
}

TEST(Fib, DefaultRouteViaEmptyPrefix) {
  Fib fib;
  fib.add_route(Name(""), 9);
  EXPECT_EQ(fib.lookup(Name("/anything/at/all")), std::vector<FaceId>{9});
}

}  // namespace
}  // namespace dapes::ndn
