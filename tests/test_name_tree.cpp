// Property tests: the hashed NameTree tables are observably *identical*
// to the std::map reference implementation (tests/oracles/tables_ref.hpp).
//
// Each case drives two full table sets — ContentStore/Pit/Fib sharing one
// NameTree, and ref::ContentStore/ref::Pit/ref::Fib — with the same
// randomized operation stream over a name pool dense in prefix relations
// (small alphabet, depths 0..4). Every observable is compared after every
// operation: find results (by name and content), CanBePrefix winners,
// matches_for_data vectors (order included), LPM face sets, LRU eviction
// state, freshness expiry, sizes and content-byte accounting,
// nonce/dead-nonce answers. Any divergence in probe logic, trie ordering,
// or eviction policy shows up as a mismatch at the first operation that
// exposes it. A second case replays the same comparison at DAPES
// discovery fan-out (one parent with over a thousand query children),
// PIT matches for the responses included.
//
// Direct NameTree structural tests (entry sharing, cleanup, unordered
// child lists) and the Name hash-cache tests live at the bottom / in
// test_ndn_name.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dapes/namespace.hpp"
#include "ndn/name_tree.hpp"
#include "ndn/tables.hpp"
#include "oracles/tables_ref.hpp"

namespace dapes::ndn {
namespace {

using common::bytes_of;
using common::Duration;

Data make_data(const Name& name, const std::string& content,
               Duration freshness) {
  Data d{name};
  d.set_content(bytes_of(content));
  d.set_freshness(freshness);
  return d;
}

/// Names dense in prefix relations: depth 0..4 over a 4-symbol alphabet.
Name random_name(common::Rng& rng) {
  static const char* kComps[] = {"a", "b", "coll", "file"};
  Name n;
  const size_t depth = rng.next_below(5);
  for (size_t i = 0; i < depth; ++i) {
    if (rng.chance(0.3)) {
      n.append_number(rng.next_below(4));
    } else {
      n.append(kComps[rng.next_below(4)]);
    }
  }
  return n;
}

std::vector<std::string> uris(const std::vector<Name>& names) {
  std::vector<std::string> out;
  for (const auto& n : names) out.push_back(n.to_uri());
  return out;
}

class TableEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TableEquivalence, NameTreeMatchesMapReference) {
  common::Rng rng(GetParam());
  const size_t cs_capacity = 2 + rng.next_below(48);

  auto tree = std::make_shared<NameTree>();
  ContentStore cs(cs_capacity, tree);
  Pit pit(tree);
  Fib fib(tree);
  ref::ContentStore rcs(cs_capacity);
  ref::Pit rpit;
  ref::Fib rfib;

  // Names seen so far — used for the end-of-run whole-state sweep.
  std::vector<Name> pool;

  TimePoint now{0};
  for (int op = 0; op < 4000; ++op) {
    SCOPED_TRACE(op);
    now = now + Duration::microseconds(
                    static_cast<int64_t>(rng.next_below(200'000)));
    Name name = random_name(rng);
    pool.push_back(name);

    switch (rng.next_below(11)) {
      case 0: {  // CS insert (short or long freshness; shared handle path)
        Duration fresh = rng.chance(0.3) ? Duration::milliseconds(300)
                                         : Duration::seconds(3600.0);
        std::string content(1 + rng.next_below(16), 'x');
        Data d = make_data(name, content, fresh);
        if (rng.chance(0.5)) {
          cs.insert(d, now);
          rcs.insert(d, now);
        } else {
          cs.insert(std::make_shared<const Data>(d), now);
          rcs.insert(std::make_shared<const Data>(d), now);
        }
        break;
      }
      case 1: {  // CS exact find
        DataPtr a = cs.find(name, false, now);
        DataPtr b = rcs.find(name, false, now);
        ASSERT_EQ(a != nullptr, b != nullptr);
        if (a) {
          ASSERT_EQ(*a, *b);
        }
        break;
      }
      case 2: {  // CS CanBePrefix find (also exercises expiry eviction)
        DataPtr a = cs.find(name, true, now);
        DataPtr b = rcs.find(name, true, now);
        ASSERT_EQ(a != nullptr, b != nullptr);
        if (a) {
          ASSERT_EQ(a->name().to_uri(), b->name().to_uri());
          ASSERT_EQ(*a, *b);
        }
        break;
      }
      case 3: {  // CS contains (expired entries still count)
        ASSERT_EQ(cs.contains(name), rcs.contains(name));
        break;
      }
      case 4: {  // PIT insert with random flags + nonces
        PitEntry& a = pit.insert(name);
        PitEntry& b = rpit.insert(name);
        if (rng.chance(0.4)) {
          a.can_be_prefix = b.can_be_prefix = true;
        }
        uint32_t nonce = static_cast<uint32_t>(rng.next());
        a.nonces.insert(nonce);
        b.nonces.insert(nonce);
        FaceId face = static_cast<FaceId>(1 + rng.next_below(4));
        a.in_faces.push_back(face);
        b.in_faces.push_back(face);
        break;
      }
      case 5: {  // PIT find
        PitEntry* a = pit.find(name);
        PitEntry* b = rpit.find(name);
        ASSERT_EQ(a != nullptr, b != nullptr);
        if (a) {
          ASSERT_EQ(a->name.to_uri(), b->name.to_uri());
          ASSERT_EQ(a->can_be_prefix, b->can_be_prefix);
          ASSERT_EQ(a->nonces, b->nonces);
          ASSERT_EQ(a->in_faces, b->in_faces);
        }
        break;
      }
      case 6: {  // PIT matches_for_data — order matters
        ASSERT_EQ(uris(pit.matches_for_data(name)),
                  uris(rpit.matches_for_data(name)));
        break;
      }
      case 7: {  // PIT erase
        pit.erase(name);
        rpit.erase(name);
        break;
      }
      case 8: {  // nonce bookkeeping incl. dead-nonce FIFO
        uint32_t nonce = static_cast<uint32_t>(rng.next_below(64));
        ASSERT_EQ(pit.has_nonce(name, nonce), rpit.has_nonce(name, nonce));
        if (rng.chance(0.5)) {
          pit.record_dead_nonce(name, nonce);
          rpit.record_dead_nonce(name, nonce);
          ASSERT_TRUE(pit.has_nonce(name, nonce));
        }
        break;
      }
      case 9: {  // FIB add
        FaceId face = static_cast<FaceId>(1 + rng.next_below(4));
        fib.add_route(name, face);
        rfib.add_route(name, face);
        break;
      }
      default: {  // FIB longest-prefix match
        ASSERT_EQ(fib.lookup(name), rfib.lookup(name));
        break;
      }
    }

    ASSERT_EQ(cs.size(), rcs.size());
    ASSERT_EQ(cs.content_bytes(), rcs.content_bytes());
    ASSERT_EQ(pit.size(), rpit.size());
    ASSERT_EQ(fib.size(), rfib.size());
  }

  // Whole-state sweep: every name ever touched answers identically, which
  // pins down LRU eviction victims and freshness expiry history.
  for (const Name& name : pool) {
    SCOPED_TRACE(name.to_uri());
    ASSERT_EQ(cs.contains(name), rcs.contains(name));
    DataPtr a = cs.find(name, false, now);
    DataPtr b = rcs.find(name, false, now);
    ASSERT_EQ(a != nullptr, b != nullptr);
    PitEntry* pa = pit.find(name);
    PitEntry* pb = rpit.find(name);
    ASSERT_EQ(pa != nullptr, pb != nullptr);
    ASSERT_EQ(fib.lookup(name), rfib.lookup(name));
    ASSERT_EQ(uris(pit.matches_for_data(name)),
              uris(rpit.matches_for_data(name)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

// The discovery shape (paper §IV-B): one /dapes/discovery parent with
// 2048 query children, named as peers name them. Even queries hold only a
// CanBePrefix PIT entry; odd ones collect responses <query>/peer-<k> with
// the 500 ms freshness of discovery replies. Each round opens with a reply
// burst larger than the CS, so inserts evict, then runs finds and PIT
// churn until every reply has expired. CanBePrefix finds on the parent
// walk the PIT-only subtrees ahead of the first live response, or all of
// them on a miss; every result, size and content-byte count must match
// the reference. The parent itself holds a CanBePrefix PIT entry and
// /dapes an exact-only one, so each response's PIT matches (the query,
// when pending, then the parent; never /dapes) take the parent-pointer
// walk above a leaf that may or may not exist.
TEST(DiscoveryFanOut, NameTreeMatchesMapReference) {
  constexpr size_t kQueries = 2048;
  constexpr size_t kCsCapacity = 128;
  const Duration kFresh = Duration::milliseconds(500);
  common::Rng rng(0xd15c);

  auto tree = std::make_shared<NameTree>();
  ContentStore cs(kCsCapacity, tree);
  Pit pit(tree);
  ref::ContentStore rcs(kCsCapacity);
  ref::Pit rpit;

  const Name& parent = core::discovery_prefix();
  pit.insert(parent).can_be_prefix = true;
  rpit.insert(parent).can_be_prefix = true;
  pit.insert(parent.prefix(1));
  rpit.insert(parent.prefix(1));
  std::vector<Name> queries;
  for (size_t n = 0; n < kQueries; ++n) {
    queries.push_back(core::discovery_query_name(rng.next()));
  }
  auto respond = [&](size_t n, TimePoint now) {
    Name name = core::discovery_response_name(
        queries[n], "peer-" + std::to_string(rng.next_below(4)));
    Data d = make_data(name, std::string(1 + rng.next_below(32), 'r'), kFresh);
    cs.insert(d, now);
    rcs.insert(d, now);
  };
  auto ask = [&](size_t n) {
    pit.insert(queries[n]).can_be_prefix = true;
    rpit.insert(queries[n]).can_be_prefix = true;
  };
  size_t parent_hits = 0, parent_misses = 0;
  auto compare_prefix_find = [&](const Name& name, TimePoint now) {
    DataPtr a = cs.find(name, true, now);
    DataPtr b = rcs.find(name, true, now);
    ASSERT_EQ(a != nullptr, b != nullptr);
    if (a) {
      ASSERT_EQ(a->name().to_uri(), b->name().to_uri());
      ASSERT_EQ(*a, *b);
    }
    if (name == parent) ++(a ? parent_hits : parent_misses);
  };
  size_t query_matches = 0;
  auto compare_matches = [&](const Name& name) {
    const std::vector<std::string> a = uris(pit.matches_for_data(name));
    ASSERT_EQ(a, uris(rpit.matches_for_data(name)));
    ASSERT_FALSE(a.empty());  // the parent's entry matches every response
    if (a.size() > 1) ++query_matches;
  };
  auto compare_sizes = [&] {
    ASSERT_EQ(cs.size(), rcs.size());
    ASSERT_EQ(cs.content_bytes(), rcs.content_bytes());
    ASSERT_EQ(pit.size(), rpit.size());
  };

  TimePoint now{0};
  for (size_t n = 0; n < kQueries; ++n) {
    if (n % 2 == 0) {
      ask(n);
    } else {
      respond(n, now);
    }
  }
  ASSERT_EQ(cs.size(), kCsCapacity);
  ASSERT_GT(tree->size(), 1024u);

  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(round);
    // Reply burst: 100 odd queries answered by up to four peers each,
    // about 250 responses within 100 ms.
    for (int i = 0; i < 100; ++i) {
      now = now + Duration::milliseconds(1);
      const size_t n = 2 * rng.next_below(kQueries / 2) + 1;
      for (uint64_t k = 1 + rng.next_below(4); k > 0; --k) respond(n, now);
      ASSERT_NO_FATAL_FAILURE(compare_sizes());
    }
    // Quiet: ~800 ms of finds and PIT churn, so the burst expires.
    for (int op = 0; op < 400; ++op) {
      SCOPED_TRACE(op);
      now = now + Duration::microseconds(
                      static_cast<int64_t>(rng.next_below(4000)));
      const size_t n = rng.next_below(kQueries);
      switch (rng.next_below(4)) {
        case 0:  // a pending query is satisfied; its peer asks anew
          if (n % 2 == 0) {
            pit.erase(queries[n]);
            rpit.erase(queries[n]);
            queries[n] = core::discovery_query_name(rng.next());
            ask(n);
          }
          break;
        case 1:
          ASSERT_NO_FATAL_FAILURE(compare_prefix_find(parent, now));
          break;
        case 2:
          ASSERT_NO_FATAL_FAILURE(compare_prefix_find(queries[n], now));
          break;
        default: {  // exact find and PIT matches of one peer's response
          Name name = core::discovery_response_name(
              queries[n], "peer-" + std::to_string(rng.next_below(4)));
          ASSERT_EQ(cs.find(name, false, now) != nullptr,
                    rcs.find(name, false, now) != nullptr);
          ASSERT_NO_FATAL_FAILURE(compare_matches(name));
          break;
        }
      }
      ASSERT_NO_FATAL_FAILURE(compare_sizes());
    }
  }
  // Both kinds of parent scan ran: stopped at a live reply, and walked
  // the whole fan-out to a miss.
  EXPECT_GT(parent_hits, 0u);
  EXPECT_GT(parent_misses, 0u);

  for (size_t n = 0; n < kQueries; ++n) {
    SCOPED_TRACE(n);
    ASSERT_NO_FATAL_FAILURE(compare_prefix_find(queries[n], now));
    ASSERT_EQ(pit.find(queries[n]) != nullptr,
              rpit.find(queries[n]) != nullptr);
    ASSERT_NO_FATAL_FAILURE(compare_matches(
        core::discovery_response_name(queries[n], "peer-0")));
  }
  ASSERT_NO_FATAL_FAILURE(compare_sizes());
  // Responses to pending queries matched the query and the parent.
  EXPECT_GT(query_matches, 0u);
}

// ------------------------------------------------- NameTree structurals

TEST(NameTree, SharedEntryAcrossTables) {
  auto tree = std::make_shared<NameTree>();
  ContentStore cs(16, tree);
  Pit pit(tree);
  Fib fib(tree);

  Name name("/coll/file/3");
  Data d{name};
  d.set_content(bytes_of("payload"));
  d.set_freshness(Duration::seconds(10.0));
  cs.insert(d, TimePoint{0});
  pit.insert(name);
  fib.add_route(name, 2);

  // One entry carries all three payloads (plus its ancestor chain:
  // root, /coll, /coll/file).
  NameTree::Entry* e = tree->find_exact(name);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->cs && e->pit && e->fib);
  EXPECT_EQ(tree->size(), 4u);
}

TEST(NameTree, CleanupPrunesEmptyAncestors) {
  auto tree = std::make_shared<NameTree>();
  Pit pit(tree);
  pit.insert(Name("/a/b/c/d"));
  EXPECT_EQ(tree->size(), 5u);  // root + 4 components
  pit.erase(Name("/a/b/c/d"));
  EXPECT_EQ(tree->size(), 0u);

  // Ancestors carrying payloads or siblings survive.
  pit.insert(Name("/a/b"));
  pit.insert(Name("/a/b/c"));
  pit.erase(Name("/a/b/c"));
  EXPECT_EQ(tree->size(), 3u);  // root, /a, /a/b
  EXPECT_NE(pit.find(Name("/a/b")), nullptr);
}

// Children arrive out of order and leave by swap-remove, so no child list
// is kept sorted; every CanBePrefix find must still return the reference's
// winner, the first live name in std::map order. Component strings make
// byte order differ from arrival order and from numeric order ("c10" <
// "c2"), some children carry a grandchild so the descent recurses, and
// staggered freshness moves the winner as entries expire and the scan
// erases them.
TEST(NameTree, UnorderedChildrenScanInMapOrder) {
  constexpr size_t kChildren = 40;
  auto tree = std::make_shared<NameTree>();
  ContentStore cs(256, tree);
  Pit pit(tree);
  ref::ContentStore rcs(256);
  common::Rng rng(0x5ca7);

  const Name parent("/p");
  std::vector<size_t> order(kChildren);
  for (size_t k = 0; k < kChildren; ++k) order[k] = k;
  rng.shuffle(order);
  std::vector<Name> pending;  // PIT-only children; half are erased below
  for (size_t k : order) {
    std::string component = "c";
    component += std::to_string(k);
    const Name child = parent.appended(component);
    if (k % 3 == 0) {
      pit.insert(child);
      pending.push_back(child);
      continue;
    }
    const Name name = k % 3 == 1 ? child : child.appended("x");
    Data d = make_data(name, std::string(1 + k % 5, 'd'),
                       Duration::milliseconds(
                           static_cast<int64_t>(10 + rng.next_below(400))));
    cs.insert(d, TimePoint{0});
    rcs.insert(d, TimePoint{0});
  }
  // Swap-remove half of the PIT-only children.
  rng.shuffle(pending);
  for (size_t i = 0; i < pending.size() / 2; ++i) pit.erase(pending[i]);

  TimePoint now{0};
  size_t hits = 0;
  for (int step = 0; step < 60; ++step) {
    SCOPED_TRACE(step);
    now = now + Duration::milliseconds(10);
    DataPtr a = cs.find(parent, true, now);
    DataPtr b = rcs.find(parent, true, now);
    ASSERT_EQ(a != nullptr, b != nullptr);
    if (a) {
      ++hits;
      ASSERT_EQ(a->name().to_uri(), b->name().to_uri());
    }
    ASSERT_EQ(cs.size(), rcs.size());
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(cs.size(), 0u);  // every entry expired and was erased

  // The surviving PIT-only children come back in std::map order.
  std::vector<Name> left(pending.begin() + pending.size() / 2, pending.end());
  std::sort(left.begin(), left.end());
  NameTree::Entry* p = tree->find_exact(parent);
  ASSERT_NE(p, nullptr);
  std::vector<std::string> got;
  for (const NameTree::Entry* e : NameTree::sorted_children(*p)) {
    got.push_back(e->name.to_uri());
  }
  EXPECT_EQ(got, uris(left));
}

TEST(NameTree, PrefixProbesUseCachedHashes) {
  NameTree tree;
  EXPECT_EQ(tree.find_longest_prefix(Name("/x")), nullptr);  // empty tree
  Name deep("/x/y/z");
  tree.lookup(deep);
  // find_longest_prefix never materializes a prefix Name; every prefix of
  // deep is present, so each one finds its own entry.
  for (size_t d = 0; d <= deep.size(); ++d) {
    NameTree::Entry* e = tree.find_longest_prefix(deep.prefix(d));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->name.to_uri(), deep.prefix(d).to_uri());
    EXPECT_EQ(e->hash, deep.prefix_hash(d));
  }
  // Absent names resolve to their deepest present prefix.
  for (const auto& [absent, found] :
       {std::pair{"/x/q/r", "/x"}, std::pair{"/w", "/"}}) {
    NameTree::Entry* e = tree.find_longest_prefix(Name(absent));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->name.to_uri(), found);
  }
}

TEST(NameTree, StableSizeUnderChurn) {
  // Rehash + cleanup churn: grow well past the initial bucket count,
  // then drain completely.
  auto tree = std::make_shared<NameTree>();
  Pit pit(tree);
  for (uint64_t i = 0; i < 500; ++i) {
    pit.insert(Name("/churn").appended_number(i));
  }
  EXPECT_EQ(pit.size(), 500u);
  EXPECT_EQ(tree->size(), 502u);  // root + /churn + 500 leaves
  for (uint64_t i = 0; i < 500; ++i) {
    pit.erase(Name("/churn").appended_number(i));
  }
  EXPECT_EQ(pit.size(), 0u);
  EXPECT_EQ(tree->size(), 0u);
}

}  // namespace
}  // namespace dapes::ndn
