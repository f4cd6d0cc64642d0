#include "ndn/name.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>

namespace dapes::ndn {

namespace {

// The historic std::hash<Name> scheme: FNV-1a over component bytes with a
// 0xff separator before each component. Kept bit-for-bit stable so
// hash-derived fingerprints (PIT dead-nonce list) do not shift.
constexpr size_t kFnvPrime = 1099511628211ULL;

size_t fnv_extend(size_t h, common::BytesView component) {
  h ^= 0xff;  // separator: /ab/c and /a/bc hash differently
  h *= kFnvPrime;
  for (uint8_t b : component) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

// Calls fn(component) for each non-empty '/'-separated segment of a URI.
template <typename Fn>
void for_each_uri_component(std::string_view uri, Fn&& fn) {
  size_t pos = 0;
  while (pos < uri.size()) {
    size_t slash = uri.find('/', pos);
    if (slash == std::string_view::npos) slash = uri.size();
    if (slash > pos) fn(uri.substr(pos, slash - pos));
    pos = slash + 1;
  }
}

}  // namespace

// ------------------------------------------------------------- Component

bool Component::operator==(const Component& other) const {
  return value_.size() == other.value_.size() &&
         (value_.empty() ||
          std::memcmp(value_.data(), other.value_.data(), value_.size()) == 0);
}

std::strong_ordering Component::operator<=>(const Component& other) const {
  const size_t n = std::min(value_.size(), other.value_.size());
  if (n > 0) {
    // memcmp compares as unsigned char, matching std::vector<uint8_t>.
    const int c = std::memcmp(value_.data(), other.value_.data(), n);
    if (c != 0) return c < 0 ? std::strong_ordering::less
                             : std::strong_ordering::greater;
  }
  return value_.size() <=> other.value_.size();
}

std::optional<uint64_t> Component::to_number() const {
  if (value_.empty()) return std::nullopt;
  uint64_t out = 0;
  const char* begin = reinterpret_cast<const char*>(value_.data());
  const char* end = begin + value_.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

// --------------------------------------------------------------- Builder

Name::Builder::Builder(size_t count, size_t bytes)
    : count_(count), bytes_(bytes) {
  if (count == 0) return;  // the empty name has no buffer
  constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
  if (count >= kMax || bytes > kMax) {
    throw std::length_error("ndn::Name: too large");
  }
  const size_t total = sizeof(Rep) + (count + 1) * sizeof(size_t) +
                       count * sizeof(uint32_t) + bytes;
  rep_ = new (::operator new(total)) Rep{{1}, static_cast<uint32_t>(count)};
  const_cast<size_t*>(rep_->hashes())[0] = kFnvOffset;
}

Name::Builder::~Builder() {
  if (rep_ != nullptr) destroy(rep_);
}

Name::Builder& Name::Builder::add(common::BytesView component) {
  if (added_ >= count_ || component.size() > bytes_ - used_) {
    throw std::length_error("ndn::Name::Builder: more than reserved");
  }
  size_t* hashes = const_cast<size_t*>(rep_->hashes());
  uint32_t* ends = const_cast<uint32_t*>(rep_->ends());
  if (!component.empty()) {
    std::memcpy(const_cast<uint8_t*>(rep_->bytes()) + used_,
                component.data(), component.size());
  }
  used_ += component.size();
  ends[added_] = static_cast<uint32_t>(used_);
  hashes[added_ + 1] = fnv_extend(hashes[added_], component);
  ++added_;
  return *this;
}

Name::Builder& Name::Builder::add(const Name& name) {
  const size_t n = name.size();
  const size_t len = name.byte_length(n);
  if (added_ != 0 || n == 0 || n > count_ || len > bytes_) {
    // Hashes chain from what is already built: extend one at a time
    // (add() enforces the reservation).
    for (size_t i = 0; i < n; ++i) add(name[i].value());
    return *this;
  }
  std::memcpy(const_cast<size_t*>(rep_->hashes()), name.rep_->hashes(),
              (n + 1) * sizeof(size_t));
  std::memcpy(const_cast<uint32_t*>(rep_->ends()), name.rep_->ends(),
              n * sizeof(uint32_t));
  if (len > 0) {
    std::memcpy(const_cast<uint8_t*>(rep_->bytes()), name.rep_->bytes(), len);
  }
  added_ = n;
  used_ = len;
  return *this;
}

Name Name::Builder::build() {
  if (added_ == 0 && rep_ != nullptr) {  // keep "no buffer iff empty"
    destroy(rep_);
    rep_ = nullptr;
  }
  Name out(rep_, added_);
  rep_ = nullptr;
  count_ = bytes_ = added_ = used_ = 0;
  return out;
}

// ------------------------------------------------------------------ Name

void Name::destroy(const Rep* rep) {
  rep->~Rep();
  ::operator delete(const_cast<Rep*>(rep));
}

Name::Name(std::string_view uri) {
  size_t count = 0;
  size_t bytes = 0;
  for_each_uri_component(uri, [&](std::string_view c) {
    ++count;
    bytes += c.size();
  });
  Builder b(count, bytes);
  for_each_uri_component(uri, [&](std::string_view c) { b.add(c); });
  *this = b.build();
}

Name::Name(std::initializer_list<std::string_view> components) {
  size_t bytes = 0;
  for (auto c : components) bytes += c.size();
  Builder b(components.size(), bytes);
  for (auto c : components) b.add(c);
  *this = b.build();
}

Name& Name::append(Component c) {
  Builder b(size_ + 1, byte_length(size_) + c.value().size());
  b.add(*this).add(c.value());
  *this = b.build();
  return *this;
}

Name& Name::append_number(uint64_t number) {
  char buf[20];  // UINT64_MAX has 20 digits
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), number);
  (void)ec;
  return append(std::string_view(buf, static_cast<size_t>(end - buf)));
}

Name Name::appended(std::string_view str) const {
  Name copy = *this;
  copy.append(str);
  return copy;
}

Name Name::appended_number(uint64_t number) const {
  Name copy = *this;
  copy.append_number(number);
  return copy;
}

Component Name::at(size_t i) const {
  if (i >= size_) throw std::out_of_range("ndn::Name::at");
  return (*this)[i];
}

Name Name::prefix(size_t n) const {
  if (n >= size_) return *this;
  if (n == 0) return Name();
  retain();
  return Name(rep_, n);
}

Name Name::get_prefix_dropping(size_t n) const {
  if (n >= size_) return Name();
  return prefix(size_ - n);
}

bool Name::is_prefix_of(const Name& other) const {
  if (size_ > other.size_) return false;
  if (rep_ == other.rep_) return true;  // same buffer (or both empty)
  if (size_ == 0) return true;
  if (hash() != other.prefix_hash(size_)) return false;
  // Equal offsets (which include the byte length), then equal bytes.
  return std::memcmp(rep_->ends(), other.rep_->ends(),
                     size_ * sizeof(uint32_t)) == 0 &&
         std::memcmp(rep_->bytes(), other.rep_->bytes(),
                     byte_length(size_)) == 0;
}

bool Name::operator==(const Name& other) const {
  return size_ == other.size_ && is_prefix_of(other);
}

std::strong_ordering Name::operator<=>(const Name& other) const {
  if (rep_ != other.rep_) {
    const size_t n = std::min(size_, other.size_);
    for (size_t i = 0; i < n; ++i) {
      const auto c = (*this)[i] <=> other[i];
      if (c != 0) return c;
    }
  }
  return size_ <=> other.size_;
}

std::string Name::to_uri() const {
  if (size_ == 0) return "/";
  std::string out;
  out.reserve(size_ + byte_length(size_));
  for (size_t i = 0; i < size_; ++i) {
    const common::BytesView v = (*this)[i].value();
    out.push_back('/');
    out.append(reinterpret_cast<const char*>(v.data()), v.size());
  }
  return out;
}

}  // namespace dapes::ndn
