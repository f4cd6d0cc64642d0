/// @file
/// Internal interface between the SHA-256 dispatcher (sha256.cpp) and the
/// SHA-NI kernel translation unit. The kernel TU is compiled with its own
/// -m flags (see CMakeLists.txt), so this header carries no intrinsics —
/// only symbol declarations and the shared round constants.
///
/// The kernel exists only when `DAPES_SHA256_X86` is 1: the build adds
/// `DAPES_SHA256_ENABLE_X86` (together with the per-file -m flags) exactly
/// when the target is x86 with a GNU-compatible compiler, and the
/// architecture check below keeps a stray define from breaking other
/// targets. On every other target the kernel TU compiles to nothing and
/// the dispatcher only ever sees the scalar engine.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.hpp"

#if defined(DAPES_SHA256_ENABLE_X86) &&                      \
    (defined(__x86_64__) || defined(__i386__)) &&            \
    (defined(__GNUC__) || defined(__clang__))
#define DAPES_SHA256_X86 1
#else
#define DAPES_SHA256_X86 0
#endif

namespace dapes::crypto::kernels {

/// FIPS 180-4 round constants, shared by every kernel.
extern const uint32_t kSha256K[64];
/// FIPS 180-4 initial hash values, shared by every kernel.
extern const uint32_t kSha256Init[8];

#if DAPES_SHA256_X86

/// Runtime CPUID probe: SHA-NI available.
bool cpu_has_shani();

/// SHA-NI single-stream compressor (the fastest single-buffer path).
void sha256_compress_shani(uint32_t* state, const uint8_t* blocks,
                           size_t count);

#endif  // DAPES_SHA256_X86

}  // namespace dapes::crypto::kernels
