// Test oracle for ndn::Name (tests/test_ndn_name.cpp).
//
// This is the representation ndn::Name had before it became one shared
// buffer: a std::vector of owned per-component byte vectors. Everything
// here is computed the obvious way, from scratch, on every call — the
// FNV-1a hash walks the components, comparison is std::vector's own
// lexicographic order, and the wire form is built and parsed by a naive
// varnum encoder that shares no code with src/ndn/tlv.hpp. The
// randomized equivalence suite checks the shipped Name against it.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace dapes::ndn::oracle {

using common::Bytes;
using common::BytesView;

/// One owned component.
struct Component {
  Bytes value;
  bool operator==(const Component&) const = default;
  auto operator<=>(const Component&) const = default;
};

/// Name as an owned component list.
class Name {
 public:
  Name() = default;
  explicit Name(std::vector<Component> components)
      : components_(std::move(components)) {}

  /// Same URI rules as ndn::Name: '/'-separated, empty segments skipped.
  static Name from_uri(std::string_view uri) {
    Name out;
    size_t pos = 0;
    while (pos < uri.size()) {
      size_t slash = uri.find('/', pos);
      if (slash == std::string_view::npos) slash = uri.size();
      if (slash > pos) out.append(uri.substr(pos, slash - pos));
      pos = slash + 1;
    }
    return out;
  }

  Name& append(Bytes value) {
    components_.push_back(Component{std::move(value)});
    return *this;
  }
  Name& append(std::string_view str) {
    return append(Bytes(str.begin(), str.end()));
  }
  Name& append_number(uint64_t number) {
    return append(std::to_string(number));
  }
  Name appended(std::string_view str) const {
    Name copy = *this;
    return copy.append(str);
  }
  Name appended_number(uint64_t number) const {
    Name copy = *this;
    return copy.append_number(number);
  }

  size_t size() const { return components_.size(); }
  const std::vector<Component>& component_list() const {
    return components_;
  }

  Name prefix(size_t n) const {
    if (n > components_.size()) n = components_.size();
    return Name(std::vector<Component>(components_.begin(),
                                       components_.begin() + n));
  }

  bool is_prefix_of(const Name& other) const {
    if (components_.size() > other.components_.size()) return false;
    for (size_t i = 0; i < components_.size(); ++i) {
      if (components_[i] != other.components_[i]) return false;
    }
    return true;
  }

  std::string to_uri() const {
    if (components_.empty()) return "/";
    std::string out;
    for (const auto& c : components_) {
      out.push_back('/');
      out.append(c.value.begin(), c.value.end());
    }
    return out;
  }

  /// FNV-1a over the first @p n components (clamped), 0xff before each.
  size_t prefix_hash(size_t n) const {
    size_t h = 1469598103934665603ULL;
    auto mix = [&h](uint8_t b) {
      h ^= b;
      h *= 1099511628211ULL;
    };
    for (size_t i = 0; i < n && i < components_.size(); ++i) {
      mix(0xff);
      for (uint8_t b : components_[i].value) mix(b);
    }
    return h;
  }
  size_t hash() const { return prefix_hash(components_.size()); }

  bool operator==(const Name&) const = default;
  auto operator<=>(const Name&) const = default;

 private:
  std::vector<Component> components_;
};

// ------------------------------------------------------------ naive TLV

/// Minimal NDN-TLV varnum.
inline void put_varnum(Bytes& out, uint64_t v) {
  auto be = [&out](uint64_t x, int width) {
    for (int i = width - 1; i >= 0; --i) {
      out.push_back(static_cast<uint8_t>(x >> (8 * i)));
    }
  };
  if (v < 253) {
    out.push_back(static_cast<uint8_t>(v));
  } else if (v <= 0xffff) {
    out.push_back(0xfd);
    be(v, 2);
  } else if (v <= 0xffffffffULL) {
    out.push_back(0xfe);
    be(v, 4);
  } else {
    out.push_back(0xff);
    be(v, 8);
  }
}

/// One TLV element built in an intermediate vector.
inline Bytes tlv(uint64_t type, const Bytes& value) {
  Bytes out;
  put_varnum(out, type);
  put_varnum(out, value.size());
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

/// The Name element (type 7) of @p name.
inline Bytes encode_name(const Name& name) {
  Bytes value;
  for (const auto& c : name.component_list()) {
    Bytes comp = tlv(8, c.value);
    value.insert(value.end(), comp.begin(), comp.end());
  }
  return tlv(7, value);
}

/// Bounds-checked varnum read; nullopt on truncation.
inline std::optional<uint64_t> get_varnum(BytesView in, size_t& pos) {
  if (pos >= in.size()) return std::nullopt;
  const uint8_t first = in[pos++];
  if (first < 253) return first;
  const size_t width = first == 0xfd ? 2 : first == 0xfe ? 4 : 8;
  if (in.size() - pos < width) return std::nullopt;
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) v = (v << 8) | in[pos++];
  return v;
}

/// Bounds-checked element read: (type, value view); nullopt when the
/// header is truncated or the length runs past @p in.
inline std::optional<std::pair<uint64_t, BytesView>> get_element(
    BytesView in, size_t& pos) {
  auto type = get_varnum(in, pos);
  if (!type) return std::nullopt;
  auto length = get_varnum(in, pos);
  if (!length || *length > in.size() - pos) return std::nullopt;
  BytesView value = in.subspan(pos, *length);
  pos += *length;
  return std::make_pair(*type, value);
}

/// The name an Interest (@p packet_type 5) or Data (6) packet carries:
/// the outer element must fit @p wire, its first inner element must be a
/// Name that fits the packet, and every Name child must be a
/// GenericNameComponent that fits the Name. nullopt otherwise.
inline std::optional<Name> decode_packet_name(BytesView wire,
                                              uint64_t packet_type) {
  size_t pos = 0;
  auto packet = get_element(wire, pos);
  if (!packet || packet->first != packet_type) return std::nullopt;
  size_t inner = 0;
  auto name_el = get_element(packet->second, inner);
  if (!name_el || name_el->first != 7) return std::nullopt;
  Name out;
  const BytesView value = name_el->second;
  size_t at = 0;
  while (at < value.size()) {
    auto comp = get_element(value, at);
    if (!comp || comp->first != 8) return std::nullopt;
    out.append(Bytes(comp->second.begin(), comp->second.end()));
  }
  return out;
}

}  // namespace dapes::ndn::oracle
