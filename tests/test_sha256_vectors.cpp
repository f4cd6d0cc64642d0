// FIPS 180-4 known-answer and engine-equivalence suite for the SHA-256
// dispatch layer (DESIGN.md "Crypto engine & verify cache").
//
// Every engine this CPU supports — the retained scalar reference plus
// SHA-NI where compiled in and supported — is swept through:
//   * the NIST FIPS 180-4 known-answer vectors (empty, "abc", the 448-
//     and 896-bit two-block messages, the million-'a' long message);
//   * a CAVP-style monte-carlo chain (two 1000-iteration checkpoints,
//     expected values cross-checked against an independent
//     implementation);
//   * a randomized scalar-vs-engine equivalence sweep: 10k buffers whose
//     lengths concentrate on the adversarial padding boundaries (0, 1,
//     55, 56, 63, 64, 65, odd) plus multi-MiB bulk messages;
//   * incremental-update splits (the streaming Sha256 context must agree
//     with the one-shot path under every engine).
//
// The scalar reference (crypto::ref::sha256) is the baseline everywhere:
// it never goes through the dispatch table, so a broken kernel cannot
// vouch for itself.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"

namespace dapes::crypto {
namespace {

using common::Bytes;
using common::BytesView;

BytesView view_of(const Bytes& b) { return BytesView(b.data(), b.size()); }

/// Restores the probe's engine choice after each test so the suite
/// cannot leak a forced engine into other tests in the binary.
struct EngineSweepTest : ::testing::Test {
  void TearDown() override { ASSERT_TRUE(set_engine("auto")); }

  /// Run @p body once per supported engine (selected by name, asserted).
  template <typename Fn>
  void for_each_engine(Fn&& body) {
    for (const Sha256Engine* e : all_engines()) {
      ASSERT_TRUE(set_engine(e->name)) << e->name;
      ASSERT_STREQ(engine().name, e->name);
      SCOPED_TRACE(e->name);
      body(*e);
    }
  }
};

// --- FIPS 180-4 / CAVP known answers -------------------------------------

struct Kat {
  const char* message;
  const char* digest_hex;
};

// The standard FIPS 180-4 appendix vectors: one-block, two-block (448-bit
// and 896-bit messages — both pad into a second block).
constexpr Kat kKats[] = {
    {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"abc",
     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
    {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
     "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
};

TEST_F(EngineSweepTest, FipsKnownAnswersEveryEngine) {
  for_each_engine([](const Sha256Engine&) {
    for (const Kat& kat : kKats) {
      EXPECT_EQ(Sha256::hash(std::string_view(kat.message)).to_hex(),
                kat.digest_hex)
          << "message: \"" << kat.message << "\"";
    }
  });
}

TEST_F(EngineSweepTest, MillionAMessageEveryEngine) {
  const Bytes message(1000000, static_cast<uint8_t>('a'));
  for_each_engine([&](const Sha256Engine&) {
    EXPECT_EQ(
        Sha256::hash(view_of(message)).to_hex(),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  });
}

// CAVP-style monte-carlo: seed = 32 zero bytes; each checkpoint is 1000
// iterations of MD[i] = SHA-256(MD[i-3] || MD[i-2] || MD[i-1]) with the
// window re-seeded from the previous checkpoint. Expected values were
// produced by an independent SHA-256 implementation.
TEST_F(EngineSweepTest, MonteCarloChainEveryEngine) {
  const char* checkpoints[] = {
      "ae8a297f0267f74440b9f6e30054604c45a9709c6d9d8702410b5564a6e14fb7",
      "1a4028c897a3f043f77815442f0f3f5c12e7647a84ee32c179e7c4bfffa6916c",
  };
  for_each_engine([&](const Sha256Engine&) {
    Digest seed{};  // 32 zero bytes
    for (const char* expected : checkpoints) {
      Digest md0 = seed, md1 = seed, md2 = seed;
      for (int i = 0; i < 1000; ++i) {
        Sha256 ctx;
        ctx.update(md0.view());
        ctx.update(md1.view());
        ctx.update(md2.view());
        Digest next = ctx.final_digest();
        md0 = md1;
        md1 = md2;
        md2 = next;
      }
      seed = md2;
      EXPECT_EQ(seed.to_hex(), expected);
    }
  });
}

// --- randomized scalar-vs-engine equivalence -----------------------------

TEST_F(EngineSweepTest, RandomizedEquivalenceTenThousandBuffers) {
  // Lengths concentrate on the FIPS padding boundaries: 55 is the largest
  // single-block message, 56 forces the two-block pad, 64 is an exact
  // block, 65 spills one byte. Odd lengths and a pseudo-random tail
  // catch stride bugs; the multi-MiB cases exercise long body runs.
  const size_t kBoundary[] = {0, 1, 3, 31, 55, 56, 57, 63, 64, 65, 127, 128};
  common::Rng rng(0x5eedcafe);
  std::vector<Bytes> buffers;
  buffers.reserve(10000);
  for (size_t i = 0; i < 10000; ++i) {
    size_t len;
    if (i < 9000) {
      len = kBoundary[i % std::size(kBoundary)] + 64 * (i % 7);
    } else if (i < 9990) {
      len = static_cast<size_t>(rng.uniform_int(0, 4097)) | 1;  // odd
    } else {
      len = (2u << 20) + i;  // ten multi-MiB messages
    }
    Bytes b(len);
    for (auto& byte : b) {
      byte = static_cast<uint8_t>(rng.uniform_int(0, 255));
    }
    buffers.push_back(std::move(b));
  }

  std::vector<Digest> reference(buffers.size());
  for (size_t i = 0; i < buffers.size(); ++i) {
    reference[i] = ref::sha256(view_of(buffers[i]));
  }

  for_each_engine([&](const Sha256Engine&) {
    size_t mismatches = 0;
    for (size_t i = 0; i < buffers.size(); ++i) {
      if (Sha256::hash(view_of(buffers[i])) != reference[i]) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
  });
}

TEST_F(EngineSweepTest, IncrementalUpdateSplitsEveryEngine) {
  // The streaming context folds bulk runs through the active engine's
  // compressor; every split of the same message must agree with the
  // scalar one-shot digest.
  common::Rng fill(777);
  Bytes message(1024 + 37);
  for (auto& byte : message) {
    byte = static_cast<uint8_t>(fill.uniform_int(0, 255));
  }
  const Digest expected = ref::sha256(view_of(message));
  for_each_engine([&](const Sha256Engine&) {
    for (size_t split : {0u, 1u, 55u, 63u, 64u, 65u, 512u, 1061u}) {
      Sha256 ctx;
      ctx.update(BytesView(message.data(), split));
      ctx.update(BytesView(message.data() + split, message.size() - split));
      EXPECT_EQ(ctx.final_digest(), expected) << "split " << split;
    }
  });
}

// --- dispatch-layer behavior ---------------------------------------------

TEST_F(EngineSweepTest, ScalarEngineAlwaysPresent) {
  bool scalar = false;
  for (const Sha256Engine* e : all_engines()) {
    if (std::string_view(e->name) == "scalar") scalar = true;
    // Every listed engine must have a block compressor.
    EXPECT_NE(e->compress, nullptr) << e->name;
  }
  EXPECT_TRUE(scalar);
}

TEST_F(EngineSweepTest, UnknownEngineRejectedWithoutSwitching) {
  ASSERT_TRUE(set_engine("scalar"));
  EXPECT_FALSE(set_engine("no-such-engine"));
  EXPECT_STREQ(engine().name, "scalar");  // unchanged on failure
  EXPECT_TRUE(set_engine(""));            // "" selects the probe's choice
}

}  // namespace
}  // namespace dapes::crypto
