/// @file
/// NDN TLV encoding (subset of the NDN Packet Format Specification v0.3).
///
/// Type and Length use the NDN variable-size number encoding: one byte for
/// values < 253, 0xFD + 2 bytes, 0xFE + 4 bytes, 0xFF + 8 bytes. This codec
/// is shared by Interest/Data wire encoding, DAPES control/metadata
/// payloads, and (for its raw primitives) the IP-lite packet codec — there
/// is exactly one encoding idiom in the repo:
///
///   * `Writer` builds an encoding into a single growing buffer with
///     back-patched lengths for nested elements (no intermediate vectors),
///     then freezes it into a shared `BufferSlice` via `finish()`.
///   * `Reader` walks an encoding and yields elements as `BufferSlice`
///     sub-views that keep the source buffer alive — decoding is zero-copy.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>

#include "common/buffer.hpp"
#include "common/bytes.hpp"

namespace dapes::ndn::tlv {

/// TLV type numbers used in this implementation (NDN spec values).
enum Type : uint64_t {
  kInterest = 0x05,
  kData = 0x06,
  kName = 0x07,
  kGenericNameComponent = 0x08,
  kCanBePrefix = 0x21,
  kMustBeFresh = 0x12,
  kNonce = 0x0a,
  kInterestLifetime = 0x0c,
  kHopLimit = 0x22,
  kApplicationParameters = 0x24,
  kMetaInfo = 0x14,
  kContentType = 0x18,
  kFreshnessPeriod = 0x19,
  kContent = 0x15,
  kSignatureInfo = 0x16,
  kSignatureValue = 0x17,
  kSignatureType = 0x1b,
  kKeyLocator = 0x1c,
};

/// Thrown by Reader on malformed/truncated input. Internal to the codec
/// layer: public decode entry points catch it and return nullopt.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;  ///< inherit constructors
};

/// Append a TLV variable-size number (primitive shared with Writer).
void append_varnum(common::Bytes& out, uint64_t value);

/// Append a full TLV element (type, length, value bytes).
void append_tlv(common::Bytes& out, uint64_t type, common::BytesView value);

/// Append a TLV element whose value is a non-negative integer in
/// shortest big-endian form (NDN NonNegativeInteger).
void append_tlv_number(common::Bytes& out, uint64_t type, uint64_t value);

/// Incremental encoder: every wire format in the repo is built through
/// this one API. Nested elements are opened with begin() and back-patched
/// on end(), so no intermediate per-element vectors are allocated.
class Writer {
 public:
  /// Empty writer.
  Writer() = default;
  /// Empty writer with @p reserve bytes pre-allocated.
  explicit Writer(size_t reserve) { out_.reserve(reserve); }

  // -- raw primitives (shared with non-TLV codecs like IP-lite) --------
  /// Append one raw byte.
  void byte(uint8_t b) { out_.push_back(b); }
  /// Append @p value big-endian in @p width bytes.
  void be(uint64_t value, size_t width) { common::append_be(out_, value, width); }
  /// Append raw bytes verbatim.
  void raw(common::BytesView bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  // -- TLV ---------------------------------------------------------------
  /// Append a TLV variable-size number.
  void varnum(uint64_t value) { append_varnum(out_, value); }
  /// Append a complete TLV element.
  void tlv(uint64_t type, common::BytesView value) {
    append_tlv(out_, type, value);
  }
  /// Append a TLV NonNegativeInteger element.
  void tlv_number(uint64_t type, uint64_t value) {
    append_tlv_number(out_, type, value);
  }

  /// Handle for an open nested element; pass to end().
  struct Nested {
    size_t length_pos = 0;  ///< offset of the reserved length byte
  };

  /// Open a nested TLV element: writes the type, reserves the length.
  Nested begin(uint64_t type);

  /// Close the innermost-opened element, back-patching its length.
  /// Nested elements must be closed innermost-first.
  void end(Nested nested);

  /// Bytes written so far.
  size_t size() const { return out_.size(); }

  /// Move the built bytes out (build side keeps mutable Bytes semantics).
  common::Bytes take() { return std::move(out_); }

  /// Freeze into an immutable shared buffer (the zero-copy handoff).
  common::BufferSlice finish() {
    return common::BufferSlice(common::Buffer::from(std::move(out_)));
  }

 private:
  common::Bytes out_;
};

/// Incremental TLV reader. When constructed from a BufferSlice, the
/// elements it yields are sub-slices sharing the source buffer; when
/// constructed from a raw BytesView the elements are unowned views (the
/// caller must keep the bytes alive).
class Reader {
 public:
  /// Read from borrowed bytes; yielded elements are unowned views.
  explicit Reader(common::BytesView data)
      : data_(common::BufferSlice::unowned(data)) {}
  /// Read from a shared slice; yielded elements share the buffer.
  explicit Reader(common::BufferSlice data) : data_(std::move(data)) {}

  /// True once every byte has been consumed.
  bool at_end() const { return offset_ >= data_.size(); }
  /// Current read position.
  size_t offset() const { return offset_; }

  /// Read a variable-size number. @throws ParseError on truncation.
  uint64_t read_varnum();

  /// One decoded element: type + value sub-slice.
  struct Element {
    uint64_t type;              ///< TLV type number
    common::BufferSlice value;  ///< value bytes (shares the source)
  };
  /// Read the next element header and return its value as a sub-slice.
  Element read_element();

  /// Read the next element, requiring the given type.
  Element expect(uint64_t type);

  /// Skip elements until one of type @p type is found; returns nullopt if
  /// the reader drains first.
  std::optional<Element> find(uint64_t type);

 private:
  common::BufferSlice data_;
  size_t offset_ = 0;
};

/// Parse a NonNegativeInteger value field.
uint64_t parse_number(common::BytesView value);

}  // namespace dapes::ndn::tlv
