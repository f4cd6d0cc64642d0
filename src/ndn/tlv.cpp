#include "ndn/tlv.hpp"

namespace dapes::ndn::tlv {

void append_varnum(common::Bytes& out, uint64_t value) {
  if (value < 253) {
    out.push_back(static_cast<uint8_t>(value));
  } else if (value <= 0xffff) {
    out.push_back(0xfd);
    common::append_be(out, value, 2);
  } else if (value <= 0xffffffffULL) {
    out.push_back(0xfe);
    common::append_be(out, value, 4);
  } else {
    out.push_back(0xff);
    common::append_be(out, value, 8);
  }
}

void append_tlv(common::Bytes& out, uint64_t type, common::BytesView value) {
  append_varnum(out, type);
  append_varnum(out, value.size());
  out.insert(out.end(), value.begin(), value.end());
}

void append_tlv_number(common::Bytes& out, uint64_t type, uint64_t value) {
  // NDN NonNegativeInteger: 1, 2, 4, or 8 bytes.
  size_t width = 1;
  if (value > 0xffffffffULL) {
    width = 8;
  } else if (value > 0xffff) {
    width = 4;
  } else if (value > 0xff) {
    width = 2;
  }
  append_varnum(out, type);
  append_varnum(out, width);
  common::append_be(out, value, width);
}

Writer::Nested Writer::begin(uint64_t type) {
  append_varnum(out_, type);
  out_.push_back(0);  // length placeholder, patched in end()
  return Nested{out_.size() - 1};
}

void Writer::end(Nested nested) {
  const size_t length = out_.size() - nested.length_pos - 1;
  if (length < 253) {
    out_[nested.length_pos] = static_cast<uint8_t>(length);
    return;
  }
  // Rare: the one-byte reservation is too small; splice in the wide
  // varnum. Outer Nested handles point before this position, so they
  // stay valid (their lengths are computed from the final size).
  common::Bytes varnum_bytes;
  append_varnum(varnum_bytes, length);
  out_[nested.length_pos] = varnum_bytes[0];
  out_.insert(out_.begin() + static_cast<ptrdiff_t>(nested.length_pos) + 1,
              varnum_bytes.begin() + 1, varnum_bytes.end());
}

uint64_t Reader::read_varnum() {
  if (offset_ >= data_.size()) throw ParseError("tlv: truncated varnum");
  uint8_t first = data_[offset_++];
  size_t extra = 0;
  if (first < 253) return first;
  if (first == 0xfd) extra = 2;
  else if (first == 0xfe) extra = 4;
  else extra = 8;
  if (offset_ + extra > data_.size()) throw ParseError("tlv: truncated varnum");
  uint64_t value = common::read_be(data_.view(), offset_, extra);
  offset_ += extra;
  return value;
}

Reader::Element Reader::read_element() {
  uint64_t type = read_varnum();
  uint64_t length = read_varnum();
  if (length > data_.size() || offset_ + length > data_.size()) {
    throw ParseError("tlv: element length exceeds buffer");
  }
  Element e{type, data_.subslice(offset_, length)};
  offset_ += length;
  return e;
}

Reader::Element Reader::expect(uint64_t type) {
  Element e = read_element();
  if (e.type != type) {
    throw ParseError("tlv: unexpected element type");
  }
  return e;
}

std::optional<Reader::Element> Reader::find(uint64_t type) {
  while (!at_end()) {
    Element e = read_element();
    if (e.type == type) return e;
  }
  return std::nullopt;
}

uint64_t parse_number(common::BytesView value) {
  if (value.empty() || value.size() > 8) {
    throw ParseError("tlv: bad NonNegativeInteger width");
  }
  return common::read_be(value, 0, value.size());
}

}  // namespace dapes::ndn::tlv
