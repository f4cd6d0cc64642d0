#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <cpuid.h>
#endif

#include "crypto/sha256_kernels.hpp"

namespace dapes::crypto {

namespace kernels {

const uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

const uint32_t kSha256Init[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                 0x1f83d9ab, 0x5be0cd19};

#if DAPES_SHA256_X86

bool cpu_has_shani() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  // The kernel's state permutation uses SSSE3 pshufb + SSE4.1 pblendw.
  if ((ecx & (1u << 9)) == 0 || (ecx & (1u << 19)) == 0) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 29)) != 0;
}

#endif  // DAPES_SHA256_X86

}  // namespace kernels

namespace {

uint32_t rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// FIPS 180-4 tail builder: pack the sub-block remainder of a message of
/// @p size bytes (its last size % 64 bytes, at @p rem) plus the 0x80
/// terminator and the 64-bit bit length into @p tail. Returns the number
/// of tail blocks written (1, or 2 when the remainder spills).
size_t build_tail(const uint8_t* rem, size_t size, uint8_t tail[128]) {
  const size_t rem_len = size % 64;
  std::memset(tail, 0, 128);
  if (rem_len > 0) std::memcpy(tail, rem, rem_len);
  tail[rem_len] = 0x80;
  const size_t blocks = rem_len + 9 <= 64 ? 1 : 2;
  const uint64_t bits = static_cast<uint64_t>(size) * 8;
  uint8_t* len_at = tail + 64 * blocks - 8;
  for (int i = 0; i < 8; ++i) {
    len_at[i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
  }
  return blocks;
}

/// Serialize the eight working variables to the big-endian digest bytes.
Digest serialize_state(const uint32_t state[8]) {
  Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[4 * i] = static_cast<uint8_t>(state[i] >> 24);
    d.bytes[4 * i + 1] = static_cast<uint8_t>(state[i] >> 16);
    d.bytes[4 * i + 2] = static_cast<uint8_t>(state[i] >> 8);
    d.bytes[4 * i + 3] = static_cast<uint8_t>(state[i]);
  }
  return d;
}

/// One-shot hash through an explicit block compressor: body blocks
/// straight from the input, padded tail on the stack.
Digest hash_with(void (*compress)(uint32_t*, const uint8_t*, size_t),
                 common::BytesView data) {
  uint32_t state[8];
  std::memcpy(state, kernels::kSha256Init, sizeof(state));
  const size_t body_blocks = data.size() / 64;
  if (body_blocks > 0) compress(state, data.data(), body_blocks);
  uint8_t tail[128];
  const size_t tail_blocks =
      build_tail(data.data() + body_blocks * 64, data.size(), tail);
  compress(state, tail, tail_blocks);
  return serialize_state(state);
}

}  // namespace

namespace ref {

void sha256_compress(uint32_t* state, const uint8_t* blocks, size_t count) {
  for (size_t b = 0; b < count; ++b) {
    const uint8_t* block = blocks + 64 * b;
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(block[4 * i]) << 24) |
             (static_cast<uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], bb = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kernels::kSha256K[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & bb) ^ (a & c) ^ (bb & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = bb;
      bb = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += bb;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

}  // namespace ref

namespace {

const Sha256Engine kScalarEngine{"scalar", &ref::sha256_compress};

#if DAPES_SHA256_X86
const Sha256Engine kShaniEngine{"shani", &kernels::sha256_compress_shani};
#endif

/// Process-wide engine registry + active selection, built on first use:
/// probe the CPU (the fastest supported engine is last), then apply
/// DAPES_SHA256_IMPL.
struct EngineState {
  std::vector<const Sha256Engine*> supported;
  const Sha256Engine* active = nullptr;

  EngineState() {
    supported.push_back(&kScalarEngine);
#if DAPES_SHA256_X86
    if (kernels::cpu_has_shani()) supported.push_back(&kShaniEngine);
#endif
    active = supported.back();

    if (const char* env = std::getenv("DAPES_SHA256_IMPL")) {
      if (!select(env)) {
        std::fprintf(stderr,
                     "DAPES_SHA256_IMPL=%s unknown or unsupported on this "
                     "CPU; using %s\n",
                     env, active->name);
      }
    }
  }

  bool select(std::string_view name) {
    if (name.empty() || name == "auto") {
      active = supported.back();
      return true;
    }
    for (const Sha256Engine* e : supported) {
      if (name == e->name) {
        active = e;
        return true;
      }
    }
    return false;
  }
};

EngineState& engine_state() {
  static EngineState s;
  return s;
}

}  // namespace

const Sha256Engine& engine() { return *engine_state().active; }

bool set_engine(std::string_view name) { return engine_state().select(name); }

std::vector<const Sha256Engine*> all_engines() {
  return engine_state().supported;
}

std::string Digest::to_hex() const { return common::to_hex(view()); }

Digest Digest::from_hex(std::string_view hex) {
  common::Bytes raw = common::from_hex(hex);
  if (raw.size() != 32) {
    throw std::invalid_argument("Digest::from_hex: expected 64 hex chars");
  }
  Digest d;
  std::memcpy(d.bytes.data(), raw.data(), 32);
  return d;
}

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  std::memcpy(state_.data(), kernels::kSha256Init, sizeof(kernels::kSha256Init));
  length_ = 0;
  buffer_len_ = 0;
}

void Sha256::update(common::BytesView data) {
  length_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == buffer_.size()) {
      engine().compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const size_t run = (data.size() - offset) / 64;
  if (run > 0) {
    engine().compress(state_.data(), data.data() + offset, run);
    offset += run * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::update(std::string_view str) {
  update(common::BytesView(reinterpret_cast<const uint8_t*>(str.data()),
                           str.size()));
}

Digest Sha256::final_digest() {
  // buffer_ holds the message's last length_ % 64 bytes.
  uint8_t tail[128];
  const size_t blocks = build_tail(buffer_.data(), length_, tail);
  engine().compress(state_.data(), tail, blocks);
  return serialize_state(state_.data());
}

Digest Sha256::hash(common::BytesView data) {
  return hash_with(engine().compress, data);
}

Digest Sha256::hash(std::string_view str) {
  return hash(common::BytesView(reinterpret_cast<const uint8_t*>(str.data()),
                                str.size()));
}

Digest Sha256::hash_pair(const Digest& a, const Digest& b) {
  uint8_t buf[64];
  std::memcpy(buf, a.bytes.data(), 32);
  std::memcpy(buf + 32, b.bytes.data(), 32);
  return hash(common::BytesView(buf, 64));
}

}  // namespace dapes::crypto
