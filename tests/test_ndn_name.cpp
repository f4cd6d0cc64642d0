// Unit tests for NDN names: the API, the allocation contract of the
// shared buffer, cross-thread sharing, a seeded equivalence suite against
// the per-component oracle (tests/name_oracle.hpp), and hostile Name
// decoding through Interest/Data.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <thread>
#include <unordered_set>

#include "common/rng.hpp"
#include "dapes/namespace.hpp"
#include "name_oracle.hpp"
#include "ndn/name.hpp"
#include "ndn/packet.hpp"
#include "ndn/tlv.hpp"

// Counts every global operator new in this binary, so tests can assert
// how many heap blocks a Name operation takes. (GCC flags free() on
// operator-new memory once the replacements inline; here they pair.)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dapes::ndn {
namespace {

using common::Bytes;
using common::BytesView;

/// Heap blocks allocated while running @p fn on this thread.
template <typename Fn>
uint64_t allocations_during(Fn&& fn) {
  const uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(Name, ParseAndPrint) {
  Name n("/damaged-bridge-1533783192/bridge-picture/0");
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0].to_string(), "damaged-bridge-1533783192");
  EXPECT_EQ(n[1].to_string(), "bridge-picture");
  EXPECT_EQ(n[2].to_string(), "0");
  EXPECT_EQ(n.to_uri(), "/damaged-bridge-1533783192/bridge-picture/0");
}

TEST(Name, EmptyForms) {
  EXPECT_TRUE(Name("").empty());
  EXPECT_TRUE(Name("/").empty());
  EXPECT_EQ(Name("").to_uri(), "/");
}

TEST(Name, SkipsEmptyComponents) {
  Name n("//a///b/");
  EXPECT_EQ(n.size(), 2u);
  EXPECT_EQ(n.to_uri(), "/a/b");
}

TEST(Name, InitializerList) {
  Name n{"a", "b", "c"};
  EXPECT_EQ(n.to_uri(), "/a/b/c");
}

TEST(Name, AppendChaining) {
  Name n;
  n.append("coll").append("file").append_number(42);
  EXPECT_EQ(n.to_uri(), "/coll/file/42");
  EXPECT_EQ(n[2].to_number(), 42u);
}

TEST(Name, AppendedDoesNotMutate) {
  Name base("/a");
  Name longer = base.appended("b");
  EXPECT_EQ(base.to_uri(), "/a");
  EXPECT_EQ(longer.to_uri(), "/a/b");
  EXPECT_EQ(base.appended_number(7).to_uri(), "/a/7");
}

TEST(Name, NumberParsing) {
  EXPECT_EQ(Component("123").to_number(), 123u);
  EXPECT_EQ(Component("0").to_number(), 0u);
  EXPECT_FALSE(Component("12a").to_number().has_value());
  EXPECT_FALSE(Component("").to_number().has_value());
  EXPECT_FALSE(Component("picture").to_number().has_value());
}

TEST(Name, PrefixOperations) {
  Name n("/a/b/c/d");
  EXPECT_EQ(n.prefix(2).to_uri(), "/a/b");
  EXPECT_EQ(n.prefix(0).to_uri(), "/");
  EXPECT_EQ(n.prefix(99).to_uri(), "/a/b/c/d");  // clamped
  EXPECT_EQ(n.get_prefix_dropping().to_uri(), "/a/b/c");
  EXPECT_EQ(n.get_prefix_dropping(3).to_uri(), "/a");
  EXPECT_EQ(n.get_prefix_dropping(99).to_uri(), "/");
}

TEST(Name, IsPrefixOf) {
  Name root("/a/b");
  EXPECT_TRUE(root.is_prefix_of(Name("/a/b")));
  EXPECT_TRUE(root.is_prefix_of(Name("/a/b/c")));
  EXPECT_FALSE(root.is_prefix_of(Name("/a")));
  EXPECT_FALSE(root.is_prefix_of(Name("/a/c/b")));
  EXPECT_TRUE(Name("").is_prefix_of(root));
  // "ab" is not a component-wise prefix of "abc".
  EXPECT_FALSE(Name("/ab").is_prefix_of(Name("/abc")));
}

TEST(Name, OrderingIsComponentWise) {
  EXPECT_LT(Name("/a"), Name("/a/b"));
  EXPECT_LT(Name("/a/b"), Name("/b"));
  // Map iteration groups names under their prefix.
  std::vector<Name> names = {Name("/b"), Name("/a/z"), Name("/a"), Name("/a/b")};
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names[0].to_uri(), "/a");
  EXPECT_EQ(names[1].to_uri(), "/a/b");
  EXPECT_EQ(names[2].to_uri(), "/a/z");
  EXPECT_EQ(names[3].to_uri(), "/b");
}

TEST(Name, HashConsistentWithEquality) {
  std::hash<Name> h;
  EXPECT_EQ(h(Name("/a/b/c")), h(Name("/a/b/c")));
  EXPECT_NE(h(Name("/a/b/c")), h(Name("/a/b/d")));
  // Component boundaries matter: /ab/c vs /a/bc.
  EXPECT_NE(h(Name("/ab/c")), h(Name("/a/bc")));
  std::unordered_set<Name> set;
  set.insert(Name("/x"));
  set.insert(Name("/x"));
  EXPECT_EQ(set.size(), 1u);
}

TEST(Name, ComponentComparison) {
  EXPECT_EQ(Component("abc"), Component("abc"));
  EXPECT_NE(Component("abc"), Component("abd"));
  EXPECT_LT(Component("abc"), Component("abd"));
  // Unsigned bytes, and a proper prefix sorts first.
  const uint8_t high[] = {0x80};
  EXPECT_LT(Component("z"), Component(BytesView(high)));
  EXPECT_LT(Component("ab"), Component("abc"));
  EXPECT_LT(Component(""), Component(BytesView(high)));
}

TEST(Name, AtIsBoundsChecked) {
  Name n("/a/b");
  EXPECT_EQ(n.at(1).to_string(), "b");
  EXPECT_THROW((void)n.at(2), std::out_of_range);
  EXPECT_THROW((void)n.prefix(1).at(1), std::out_of_range);
}

// ------------------------------------------------------- shared buffer

TEST(NameBuffer, CopyAndPrefixShareTheBuffer) {
  Name n("/coll/file/7");
  Name copy = n;
  Name p = n.prefix(2);
  EXPECT_EQ(copy[0].value().data(), n[0].value().data());
  EXPECT_EQ(p[1].value().data(), n[1].value().data());
  EXPECT_EQ(p.to_uri(), "/coll/file");
}

TEST(NameBuffer, CopyAndPrefixAllocateNothing) {
  const Name n("/damaged-bridge-1533783192/bridge-picture/0");
  uint64_t blocks = allocations_during([&] {
    Name copy = n;
    Name moved = std::move(copy);
    Name p = n.prefix(2);
    Name q = p.prefix(1);
    Name r = n.get_prefix_dropping();
    moved = p;
    (void)(q.hash() ^ r.hash() ^ moved.hash());
  });
  EXPECT_EQ(blocks, 0u);
}

TEST(NameBuffer, BuildingAllocatesOneBlockAtAnyLength) {
  for (size_t components : {1u, 3u, 50u, 1000u}) {
    oracle::Name o;
    for (size_t i = 0; i < components; ++i) o.append_number(i);
    const Bytes wire = oracle::encode_name(o);
    tlv::Reader reader{BytesView(wire)};
    const BytesView value = reader.expect(tlv::kName).value.view();
    const std::string uri = o.to_uri();

    Name decoded;
    EXPECT_EQ(allocations_during([&] { decoded = parse_name(value); }), 1u)
        << components;
    Name parsed;
    EXPECT_EQ(allocations_during([&] { parsed = Name(uri); }), 1u)
        << components;
    Name longer;
    EXPECT_EQ(allocations_during([&] { longer = parsed.appended("x"); }), 1u)
        << components;
    EXPECT_EQ(decoded.size(), components);
    EXPECT_EQ(decoded, parsed);
  }
}

TEST(NameBuffer, BuilderRejectsMoreThanReserved) {
  Name::Builder two(2, 3);
  two.add("ab");
  EXPECT_THROW(two.add("cd"), std::length_error);  // bytes exhausted
  two.add("c");
  EXPECT_THROW(two.add(""), std::length_error);  // components exhausted
  EXPECT_EQ(two.build().to_uri(), "/ab/c");
  Name::Builder none(0, 0);
  EXPECT_THROW(none.add(""), std::length_error);
  EXPECT_TRUE(none.build().empty());
  Name::Builder small(1, 1);
  EXPECT_THROW(small.add(Name("/a/b")), std::length_error);
}

TEST(NameBuffer, AppendLeavesSharedCopiesAlone) {
  Name base("/a/b");
  Name copy = base;
  base.append("c");
  EXPECT_EQ(copy.to_uri(), "/a/b");
  EXPECT_EQ(base.to_uri(), "/a/b/c");
  // Appending a view of the name's own component is safe.
  base.append(base[0]);
  EXPECT_EQ(base.to_uri(), "/a/b/c/a");
}

TEST(Name, ConstNameSharedAcrossThreads) {
  const Name shared("/damaged-bridge-1533783192/bridge-picture/0");
  const Name& discovery = core::discovery_prefix();
  const size_t want_hash = shared.hash();
  const size_t want_prefix_hash = shared.prefix(2).hash();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100000; ++i) {
        Name copy = shared;
        Name disc = core::discovery_prefix();
        Name p = copy.prefix(2);
        bool ok = copy == shared && copy.hash() == want_hash &&
                  p.hash() == want_prefix_hash && p.is_prefix_of(shared) &&
                  disc == discovery && disc.prefix(1).is_prefix_of(discovery) &&
                  !(disc < discovery) && (p < copy);
        if (!ok) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(shared.hash(), want_hash);
  EXPECT_EQ(discovery.to_uri(), "/dapes/discovery");
}

// ------------------------------------------------------------ hashes

// Reference FNV-1a matching the documented scheme, computed from scratch.
size_t reference_hash(const Name& name) {
  size_t h = 1469598103934665603ULL;
  auto mix = [&h](uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (size_t i = 0; i < name.size(); ++i) {
    mix(0xff);
    for (uint8_t b : name[i].value()) mix(b);
  }
  return h;
}

TEST(NameHash, MatchesReferenceScheme) {
  for (const char* uri : {"/", "/a", "/a/b/c", "/coll/file/123"}) {
    Name n = Name(uri);
    EXPECT_EQ(n.hash(), reference_hash(n)) << uri;
    EXPECT_EQ(std::hash<Name>{}(n), n.hash());
  }
}

TEST(NameHash, PrefixHashesMatchPrefixNames) {
  Name n("/damaged-bridge/bridge-picture/0/extra");
  for (size_t d = 0; d <= n.size(); ++d) {
    EXPECT_EQ(n.prefix_hash(d), n.prefix(d).hash()) << d;
  }
  // Clamped like prefix().
  EXPECT_EQ(n.prefix_hash(99), n.hash());
}

TEST(NameHash, AppendHashesLikeFreshName) {
  Name n("/a/b");
  (void)n.hash();
  n.append("c");
  EXPECT_EQ(n.hash(), Name("/a/b/c").hash());
  n.append_number(7);
  EXPECT_EQ(n.hash(), Name("/a/b/c/7").hash());
  EXPECT_EQ(n.hash(), reference_hash(n));
}

TEST(NameHash, AppendWithoutPriorHashIsCorrect) {
  // Appending to a name that was never hashed: the first hash() after the
  // append must see the final components.
  Name n("/a");
  n.append("b");
  EXPECT_EQ(n.hash(), Name("/a/b").hash());
  EXPECT_EQ(n.hash(), reference_hash(n));
}

TEST(NameHash, PrefixHashesLikeFreshName) {
  Name n("/x/y/z");
  (void)n.hash();
  Name p = n.prefix(2);
  EXPECT_EQ(p.hash(), Name("/x/y").hash());
  Name other("/x/y/z");
  EXPECT_EQ(other.prefix(2).hash(), p.hash());
}

TEST(NameHash, SharedAndSeparateBuffersCompareEqual) {
  Name first("/k/l");
  (void)first.hash();
  Name second("/k/l");
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first < second);
  EXPECT_FALSE(second < first);
  EXPECT_EQ(std::hash<Name>{}(first), std::hash<Name>{}(second));
  // A prefix handle into a longer name's buffer equals a separately
  // built name, both ways.
  Name longer("/k/l/m");
  EXPECT_EQ(longer.prefix(2), first);
  EXPECT_EQ(first, longer.prefix(2));
  EXPECT_EQ(longer.prefix(2).hash(), first.hash());
}

TEST(NameHash, ComponentBoundariesStillDistinct) {
  EXPECT_NE(Name("/ab/c").hash(), Name("/a/bc").hash());
  EXPECT_NE(Name("/a/b/c").hash(), Name("/a/b/d").hash());
}

// ------------------------------------------------- oracle equivalence

oracle::Name to_oracle(const Name& n) {
  oracle::Name out;
  for (size_t i = 0; i < n.size(); ++i) {
    const BytesView v = n[i].value();
    out.append(Bytes(v.begin(), v.end()));
  }
  return out;
}

Name from_oracle(const oracle::Name& o) {
  size_t bytes = 0;
  for (const auto& c : o.component_list()) bytes += c.value.size();
  Name::Builder b(o.size(), bytes);
  for (const auto& c : o.component_list()) b.add(BytesView(c.value));
  return b.build();
}

/// Same name, built by appending one component at a time.
Name from_oracle_by_append(const oracle::Name& o) {
  Name out;
  for (const auto& c : o.component_list()) {
    out.append(Component(BytesView(c.value)));
  }
  return out;
}

/// Components biased toward the bytes that break naive compares and
/// hashes: empty, 0x00, '/', 0x80, 0xff.
Bytes random_component(common::Rng& rng) {
  static const uint8_t kTricky[] = {0x00, '/', 0x80, 0xff, 'a', 'b', 0x7f};
  Bytes out(rng.next_below(7));
  for (auto& b : out) {
    b = rng.chance(0.6) ? kTricky[rng.next_below(sizeof(kTricky))]
                        : static_cast<uint8_t>(rng.next_below(256));
  }
  return out;
}

/// A batch of names, many sharing prefixes with earlier ones.
std::vector<oracle::Name> random_names(common::Rng& rng, size_t count) {
  std::vector<oracle::Name> out;
  out.reserve(count);
  while (out.size() < count) {
    oracle::Name o;
    if (!out.empty() && rng.chance(0.6)) {
      const oracle::Name& base = out[rng.next_below(out.size())];
      o = base.prefix(rng.next_below(base.size() + 1));
    }
    const size_t extra = rng.next_below(o.size() == 0 ? 7 : 4);
    for (size_t i = 0; i < extra; ++i) o.append(random_component(rng));
    out.push_back(std::move(o));
  }
  return out;
}

int sign(std::strong_ordering c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

bool uri_safe(const oracle::Name& o) {
  for (const auto& c : o.component_list()) {
    if (c.value.empty()) return false;
    for (uint8_t b : c.value) {
      if (b == '/') return false;
    }
  }
  return true;
}

/// The name of @p wire decoded as an Interest or Data (@p type), or
/// nullopt when the packet does not decode.
std::optional<Name> decode_name(const Bytes& wire, uint64_t type) {
  if (type == tlv::kInterest) {
    if (auto i = Interest::decode(BytesView(wire))) return i->name();
  } else {
    if (auto d = Data::decode(BytesView(wire))) return d->name();
  }
  return std::nullopt;
}

/// Interest/Data round trips of @p n, plus one corrupted variant of each,
/// checked against the oracle's decoder.
void check_wire(const Name& n, const oracle::Name& o, common::Rng& rng) {
  const Bytes name_tlv = oracle::encode_name(o);
  Interest interest(n);
  interest.set_nonce(static_cast<uint32_t>(rng.next()));
  Data data(n);
  data.set_content(Bytes{1, 2, 3});
  for (Bytes wire : {interest.encode(), data.encode()}) {
    const uint64_t type = wire[0];
    // The shipped encoder writes exactly the oracle's Name element.
    auto expect_name = oracle::decode_packet_name(BytesView(wire), type);
    ASSERT_TRUE(expect_name.has_value());
    ASSERT_EQ(*expect_name, o);
    ASSERT_NE(std::search(wire.begin(), wire.end(), name_tlv.begin(),
                          name_tlv.end()),
              wire.end());
    const std::optional<Name> decoded = decode_name(wire, type);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(*decoded, n);
    ASSERT_EQ(decoded->hash(), o.hash());
    ASSERT_EQ(to_oracle(*decoded), o);

    // Corrupt one byte or truncate: decode fails, or yields the name the
    // oracle reads from the same bytes.
    if (rng.chance(0.5)) {
      wire[rng.next_below(wire.size())] ^=
          static_cast<uint8_t>(1 + rng.next_below(255));
    } else {
      wire.resize(rng.next_below(wire.size()));
    }
    if (const std::optional<Name> got = decode_name(wire, type)) {
      auto want = oracle::decode_packet_name(BytesView(wire), type);
      ASSERT_TRUE(want.has_value());
      ASSERT_EQ(to_oracle(*got), *want);
      ASSERT_EQ(got->hash(), want->hash());
    }
  }
}

class NameEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NameEquivalence, MatchesOracle) {
  common::Rng rng(0x5EED0000 + GetParam());
  const std::vector<oracle::Name> oracles = random_names(rng, 10000);
  std::vector<Name> names;
  names.reserve(oracles.size());
  for (size_t i = 0; i < oracles.size(); ++i) {
    names.push_back(i % 2 == 0 ? from_oracle(oracles[i])
                               : from_oracle_by_append(oracles[i]));
  }

  for (size_t i = 0; i < names.size(); ++i) {
    const Name& n = names[i];
    const oracle::Name& o = oracles[i];
    SCOPED_TRACE(testing::Message() << "seed " << GetParam() << " name " << i
                                    << " " << o.to_uri());
    ASSERT_EQ(n.size(), o.size());
    ASSERT_EQ(to_oracle(n), o);
    ASSERT_EQ(n.to_uri(), o.to_uri());
    ASSERT_EQ(n.hash(), o.hash());
    ASSERT_EQ(std::hash<Name>{}(n), o.hash());
    for (size_t d = 0; d <= n.size() + 1; ++d) {
      ASSERT_EQ(n.prefix_hash(d), o.prefix_hash(d)) << "depth " << d;
    }
    if (uri_safe(o)) {
      ASSERT_EQ(Name(o.to_uri()), n);
    }

    const size_t d = rng.next_below(n.size() + 2);
    const Name p = n.prefix(d);
    ASSERT_EQ(to_oracle(p), o.prefix(d));
    ASSERT_EQ(p.hash(), o.prefix(d).hash());
    ASSERT_TRUE(p.is_prefix_of(n));
    ASSERT_EQ(n.is_prefix_of(p), o.is_prefix_of(o.prefix(d)));
    ASSERT_EQ(sign(p <=> n), sign(o.prefix(d) <=> o));

    const std::string extra = std::to_string(rng.next_below(1000));
    ASSERT_EQ(to_oracle(n.appended(extra)), o.appended(extra));
    const uint64_t number = rng.next();
    ASSERT_EQ(to_oracle(n.appended_number(number)), o.appended_number(number));
    ASSERT_EQ(n.appended_number(number).hash(),
              o.appended_number(number).hash());

    // Against another batch member, or a prefix of one (these share a
    // buffer with the member, or with nothing).
    const size_t j = rng.next_below(names.size());
    const size_t dj = rng.next_below(names[j].size() + 1);
    for (const auto& [m, om] :
         {std::pair<Name, oracle::Name>(names[j], oracles[j]),
          std::pair<Name, oracle::Name>(names[j].prefix(dj),
                                        oracles[j].prefix(dj))}) {
      ASSERT_EQ(n == m, o == om);
      ASSERT_EQ(sign(n <=> m), sign(o <=> om));
      ASSERT_EQ(sign(m <=> n), sign(om <=> o));
      ASSERT_EQ(n.is_prefix_of(m), o.is_prefix_of(om));
      ASSERT_EQ(m.is_prefix_of(n), om.is_prefix_of(o));
    }

    if (i % 4 == 0) check_wire(n, o, rng);
    if (HasFatalFailure()) return;
  }

  // std::map iteration order (and de-duplication) of the whole batch.
  std::map<Name, size_t> shipped;
  std::map<oracle::Name, size_t> reference;
  for (size_t i = 0; i < names.size(); ++i) {
    shipped.emplace(names[i], i);
    reference.emplace(oracles[i], i);
  }
  ASSERT_EQ(shipped.size(), reference.size());
  auto it = reference.begin();
  for (const auto& [name, index] : shipped) {
    ASSERT_EQ(to_oracle(name), it->first);
    ASSERT_EQ(index, it->second);
    ++it;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------- hostile decoding

/// Interest wire around a hand-built Name element @p name_tlv.
Bytes interest_around(const Bytes& name_tlv) {
  Bytes value = name_tlv;
  const Bytes nonce = oracle::tlv(tlv::kNonce, Bytes{1, 2, 3, 4});
  value.insert(value.end(), nonce.begin(), nonce.end());
  return oracle::tlv(tlv::kInterest, value);
}

/// Data wire around a hand-built Name element @p name_tlv.
Bytes data_around(const Bytes& name_tlv) {
  Bytes value = name_tlv;
  const Bytes content = oracle::tlv(tlv::kContent, Bytes{9, 9});
  value.insert(value.end(), content.begin(), content.end());
  return oracle::tlv(tlv::kData, value);
}

/// Wraps @p name_tlv in an Interest and in a Data, decodes both and checks
/// each against the oracle; returns whether either decoded.
bool decodes_like_oracle(const Bytes& name_tlv) {
  bool any = false;
  for (bool interest : {true, false}) {
    const Bytes wire =
        interest ? interest_around(name_tlv) : data_around(name_tlv);
    const uint64_t type = interest ? tlv::kInterest : tlv::kData;
    const std::optional<Name> got = decode_name(wire, type);
    auto want = oracle::decode_packet_name(BytesView(wire), type);
    if (got) {
      EXPECT_TRUE(want.has_value());
      if (want) {
        EXPECT_EQ(to_oracle(*got), *want);
        EXPECT_EQ(got->hash(), want->hash());
      }
    } else {
      EXPECT_FALSE(want.has_value());
    }
    any = any || got.has_value();
  }
  return any;
}

TEST(NameDecode, ZeroLengthComponents) {
  oracle::Name o;
  o.append(Bytes{}).append("a").append(Bytes{}).append(Bytes{});
  const Bytes name_tlv = oracle::encode_name(o);
  EXPECT_TRUE(decodes_like_oracle(name_tlv));
  auto i = Interest::decode(BytesView(interest_around(name_tlv)));
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(i->name().size(), 4u);
  EXPECT_EQ(i->name().to_uri(), "//a//");
  EXPECT_TRUE(i->name()[0].value().empty());
  // A Name element with no components at all is the empty name.
  EXPECT_TRUE(decodes_like_oracle(oracle::tlv(tlv::kName, Bytes{})));
}

TEST(NameDecode, ThousandComponentName) {
  oracle::Name o;
  for (uint64_t i = 0; i < 1000; ++i) o.append_number(i);
  const Bytes name_tlv = oracle::encode_name(o);
  EXPECT_TRUE(decodes_like_oracle(name_tlv));
  auto d = Data::decode(BytesView(data_around(name_tlv)));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->name().size(), 1000u);
  EXPECT_EQ(d->name()[999].to_number(), 999u);
  EXPECT_EQ(d->name().hash(), o.hash());
}

TEST(NameDecode, ComponentLengthPastNameEnd) {
  // The last component claims 9 bytes; the Name element holds 2 of them.
  const Bytes value = {tlv::kGenericNameComponent, 1, 'a',
                       tlv::kGenericNameComponent, 9, 'b', 'c'};
  EXPECT_FALSE(decodes_like_oracle(oracle::tlv(tlv::kName, value)));
  // Truncated inside the component's length field.
  const Bytes header_cut = {tlv::kGenericNameComponent, 0xfd, 0x01};
  EXPECT_FALSE(decodes_like_oracle(oracle::tlv(tlv::kName, header_cut)));
}

TEST(NameDecode, NonGenericComponentTypeInsideName) {
  const Bytes value = {tlv::kGenericNameComponent, 1, 'a', 0x01, 1, 'b'};
  EXPECT_FALSE(decodes_like_oracle(oracle::tlv(tlv::kName, value)));
}

TEST(NameDecode, NameElementLongerThanPacket) {
  // The Name element claims 200 bytes; the packet ends after 4.
  const Bytes name_tlv = {tlv::kName, 200, tlv::kGenericNameComponent, 2,
                          'a', 'b'};
  EXPECT_FALSE(decodes_like_oracle(name_tlv));
  // The outer packet length runs past the wire as well.
  Bytes wire =
      interest_around(oracle::encode_name(oracle::Name::from_uri("/a")));
  wire[1] = static_cast<uint8_t>(wire[1] + 40);
  EXPECT_FALSE(Interest::decode(BytesView(wire)).has_value());
}

}  // namespace
}  // namespace dapes::ndn
