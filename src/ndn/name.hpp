/// @file
/// NDN names.
///
/// A Name is an ordered list of byte-string components, printed as a URI
/// ("/damaged-bridge-1533783192/bridge-picture/0"). DAPES relies on the
/// hierarchy: collection prefix -> file name -> packet sequence number, so
/// prefix tests and numeric final components get first-class helpers.
///
/// A Name is a handle to one immutable, reference-counted buffer built
/// once, in one allocation, by a Name::Builder. The buffer holds, in order,
/// the FNV-1a hash of every prefix depth, the end offset of every
/// component and the concatenated component bytes. So:
///
///   * copying a Name and `prefix(n)` allocate nothing: both share the
///     buffer, and a prefix handle just exposes fewer components;
///   * `append` builds a new buffer (one allocation, whatever the
///     component count);
///   * `hash()` and `prefix_hash(n)` are loads — every prefix hash was
///     computed when the buffer was built. The data plane
///     (src/ndn/name_tree.hpp) is keyed on them, so a forwarder hop probes
///     its tables without re-reading name bytes;
///   * equality is a hash check plus flat compares of the offsets and the
///     bytes; ordering walks components in place.
///
/// Hash values are the historic std::hash<Name> FNV-1a scheme (0xff before
/// each component), so fingerprints derived from them are stable.
///
/// The buffer never changes after construction and its count is atomic,
/// so a const Name may be shared across threads. A Component is a view
/// into its Name's buffer and must not outlive that Name.
#pragma once

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/bytes.hpp"

namespace dapes::ndn {

/// One name component: a non-owning view of opaque bytes (printable ASCII
/// in practice). Views taken from a Name are valid while that Name (or any
/// copy sharing its buffer) lives.
class Component {
 public:
  /// Empty component.
  Component() = default;
  /// View of @p value (not copied).
  explicit Component(common::BytesView value) : value_(value) {}
  /// View of the bytes of @p str (not copied).
  explicit Component(std::string_view str)
      : value_(reinterpret_cast<const uint8_t*>(str.data()), str.size()) {}

  /// Parse as a decimal number if the component is all digits.
  std::optional<uint64_t> to_number() const;

  /// The raw component bytes.
  common::BytesView value() const { return value_; }
  /// The bytes copied into a std::string (components are ASCII in
  /// practice).
  std::string to_string() const {
    return std::string(reinterpret_cast<const char*>(value_.data()),
                       value_.size());
  }

  /// Byte-wise equality.
  bool operator==(const Component& other) const;
  /// Lexicographic order over unsigned bytes; a proper prefix sorts first.
  std::strong_ordering operator<=>(const Component& other) const;

 private:
  common::BytesView value_;
};

/// Hierarchical NDN name: a handle to one shared immutable buffer of
/// component bytes, component end offsets and prefix hashes (see file
/// comment).
class Name {
  struct Rep;

 public:
  /// Builds one Name buffer in a single allocation. The component count
  /// and the total component bytes are reserved up front; add() up to
  /// that many components, then build().
  class Builder {
   public:
    /// Reserve room for @p count components totalling @p bytes bytes.
    /// @throws std::length_error if either exceeds the 32-bit offsets.
    Builder(size_t count, size_t bytes);
    /// Frees the buffer if build() was never called.
    ~Builder();
    Builder(const Builder&) = delete;             ///< not copyable
    Builder& operator=(const Builder&) = delete;  ///< not copyable

    /// Append one component's bytes and its prefix hash.
    /// @throws std::length_error past the reserved count or bytes.
    Builder& add(common::BytesView component);
    /// Append one component given as text.
    Builder& add(std::string_view component) {
      return add(Component(component).value());
    }
    /// Append every component of @p name. Into an empty builder this
    /// copies @p name's hashes instead of recomputing them.
    Builder& add(const Name& name);

    /// The finished Name holding the components added so far; the
    /// builder is left empty.
    Name build();

   private:
    Rep* rep_ = nullptr;
    size_t count_ = 0;  // reserved components
    size_t bytes_ = 0;  // reserved component bytes
    size_t added_ = 0;
    size_t used_ = 0;  // component bytes written so far
  };

  /// The empty name "/" (no buffer, no allocation).
  Name() = default;

  /// Parse a URI like "/a/b/c". Empty string or "/" yields the empty name.
  /// Components may not contain '/'. No percent-decoding (the DAPES
  /// namespace is plain ASCII).
  explicit Name(std::string_view uri);

  /// Name from a component list: Name{"a", "b", "c"} == "/a/b/c".
  Name(std::initializer_list<std::string_view> components);

  /// Shares @p other's buffer (an atomic increment, no allocation).
  Name(const Name& other) noexcept : rep_(other.rep_), size_(other.size_) {
    retain();
  }
  /// Takes @p other's buffer; @p other becomes empty.
  Name(Name&& other) noexcept : rep_(other.rep_), size_(other.size_) {
    other.rep_ = nullptr;
    other.size_ = 0;
  }
  /// Shares @p other's buffer.
  Name& operator=(const Name& other) noexcept {
    Name(other).swap(*this);
    return *this;
  }
  /// Takes @p other's buffer.
  Name& operator=(Name&& other) noexcept {
    Name(std::move(other)).swap(*this);
    return *this;
  }
  /// Drops this handle's reference; the last one frees the buffer.
  ~Name() { release(); }

  /// Builder-style append; returns *this for chaining. Builds a new
  /// buffer holding one more component (the old one is left to its other
  /// holders).
  Name& append(Component c);
  /// Append a string component.
  Name& append(std::string_view str) { return append(Component(str)); }
  /// Append a decimal sequence-number component.
  Name& append_number(uint64_t number);

  /// A copy of this name with one more component.
  Name appended(std::string_view str) const;
  /// A copy of this name with a sequence-number component appended.
  Name appended_number(uint64_t number) const;

  /// Number of components.
  size_t size() const { return size_; }
  /// True for the empty name.
  bool empty() const { return size_ == 0; }
  /// Bounds-checked component view. @throws std::out_of_range.
  Component at(size_t i) const;
  /// Unchecked component view.
  Component operator[](size_t i) const {
    const uint32_t* ends = rep_->ends();
    const uint32_t begin = i == 0 ? 0 : ends[i - 1];
    return Component(
        common::BytesView(rep_->bytes() + begin, ends[i] - begin));
  }

  /// First @p n components (clamped). Shares this name's buffer.
  Name prefix(size_t n) const;

  /// Drop the last @p n components (default 1).
  Name get_prefix_dropping(size_t n = 1) const;

  /// True if *this is a (non-strict) prefix of @p other.
  bool is_prefix_of(const Name& other) const;

  /// The "/a/b/c" URI form.
  std::string to_uri() const;

  /// FNV-1a hash of the whole name (computed when the buffer was built).
  size_t hash() const { return prefix_hash(size_); }

  /// Hash of the first @p n components (clamped) — a load, no hashing.
  size_t prefix_hash(size_t n) const {
    if (rep_ == nullptr) return kFnvOffset;
    return rep_->hashes()[n < size_ ? n : size_];
  }

  /// Component-wise equality.
  bool operator==(const Name& other) const;
  /// Component-by-component order (unsigned bytes; a proper prefix sorts
  /// first) — the order std::map<Name> iterates in.
  std::strong_ordering operator<=>(const Name& other) const;

 private:
  /// FNV-1a offset basis: the hash of the empty name.
  static constexpr size_t kFnvOffset = 1469598103934665603ULL;

  /// Buffer header; the trailing storage holds `size_t hashes[count + 1]`
  /// (hashes[i] covers the first i components), `uint32_t ends[count]`
  /// (component i spans bytes [ends[i-1], ends[i])) and the bytes.
  struct alignas(alignof(size_t)) Rep {
    mutable std::atomic<uint32_t> refs;  // the only mutable field
    uint32_t count;

    const size_t* hashes() const {
      return reinterpret_cast<const size_t*>(this + 1);
    }
    const uint32_t* ends() const {
      return reinterpret_cast<const uint32_t*>(hashes() + count + 1);
    }
    const uint8_t* bytes() const {
      return reinterpret_cast<const uint8_t*>(ends() + count);
    }
  };

  /// Adopts one reference to @p rep.
  Name(const Rep* rep, size_t size) : rep_(rep), size_(size) {}

  void retain() const {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      destroy(rep_);
    }
  }
  static void destroy(const Rep* rep);
  void swap(Name& other) noexcept {
    std::swap(rep_, other.rep_);
    std::swap(size_, other.size_);
  }
  /// Byte length of the first @p n components (n <= size_).
  size_t byte_length(size_t n) const {
    return n == 0 ? 0 : rep_->ends()[n - 1];
  }

  const Rep* rep_ = nullptr;  // null iff the name is empty
  size_t size_ = 0;           // components visible through this handle
};

}  // namespace dapes::ndn

/// std::hash support: the Name's precomputed FNV-1a hash.
template <>
struct std::hash<dapes::ndn::Name> {
  /// The whole-name hash.
  size_t operator()(const dapes::ndn::Name& name) const noexcept {
    return name.hash();
  }
};
