// Immutable ref-counted byte buffers and cheap views into them.
//
// The wire layer is zero-copy: one frame on the broadcast medium is
// overheard by many receivers, and the one packet decoded from it, which
// they all share, keeps views into the frame's storage instead of
// deep-copying it.
// `Buffer` is the shared, immutable storage handle; `BufferSlice` is a
// (buffer, offset, length) view that keeps the storage alive. Build-side
// code still works with mutable `Bytes` (see tlv::Writer) and freezes the
// result into a Buffer exactly once.
//
// Ownership rules (see DESIGN.md "Wire & buffer architecture"):
//   * A Buffer's bytes never change after construction.
//   * A BufferSlice is valid as long as it exists — it holds a reference.
//   * An *unowned* BufferSlice (made from a raw BytesView) borrows storage
//     it does not keep alive; it is only for transient, stack-scoped use.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/bytes.hpp"

namespace dapes::common {

/// Shared handle to an immutable byte buffer. Copying is a refcount bump.
class Buffer {
 public:
  Buffer() = default;

  /// Take ownership of @p bytes (no copy).
  static Buffer from(Bytes&& bytes) {
    Buffer b;
    b.storage_ = std::make_shared<const Bytes>(std::move(bytes));
    return b;
  }

  /// Copy @p view into fresh shared storage.
  static Buffer copy_of(BytesView view) {
    return from(Bytes(view.begin(), view.end()));
  }

  bool valid() const { return storage_ != nullptr; }
  const uint8_t* data() const { return valid() ? storage_->data() : nullptr; }
  size_t size() const { return valid() ? storage_->size() : 0; }
  BytesView view() const { return BytesView(data(), size()); }

 private:
  std::shared_ptr<const Bytes> storage_;
};

/// View into a Buffer (or, unowned, into arbitrary memory). Copying is
/// cheap; the underlying storage is kept alive by the embedded Buffer.
class BufferSlice {
 public:
  BufferSlice() = default;

  /// Whole-buffer view.
  BufferSlice(Buffer buffer)  // NOLINT: implicit by design
      : buffer_(std::move(buffer)),
        data_(buffer_.data()),
        size_(buffer_.size()) {}

  /// Freeze a byte vector into owned shared storage (one allocation).
  BufferSlice(Bytes&& bytes)  // NOLINT: implicit by design
      : BufferSlice(Buffer::from(std::move(bytes))) {}

  /// Borrowed view that does NOT keep the storage alive. Transient use
  /// only (parsing stack-local bytes); never store one.
  static BufferSlice unowned(BytesView view) {
    BufferSlice s;
    s.data_ = view.data();
    s.size_ = view.size();
    return s;
  }

  /// Copy @p view into fresh owned storage.
  static BufferSlice copy_of(BytesView view) {
    return BufferSlice(Buffer::copy_of(view));
  }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }

  BytesView view() const { return BytesView(data_, size_); }
  operator BytesView() const { return view(); }  // NOLINT: by design

  /// Sub-view sharing the same storage. @p length is clamped to the end.
  BufferSlice subslice(size_t offset, size_t length) const {
    if (offset > size_) offset = size_;
    if (length > size_ - offset) length = size_ - offset;
    BufferSlice s;
    s.buffer_ = buffer_;
    s.data_ = data_ + offset;
    s.size_ = length;
    return s;
  }

  /// True when this slice keeps its storage alive.
  bool owns_storage() const { return buffer_.valid(); }
  const Buffer& buffer() const { return buffer_; }

  /// Deep copy out (compat path for call sites that need mutable bytes).
  Bytes to_bytes() const { return Bytes(begin(), end()); }

 private:
  Buffer buffer_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace dapes::common
