// Tests for ukarch helpers: alignment math, hashes, deterministic RNG, CRC-32C.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "ukarch/align.h"
#include "ukarch/crc32.h"
#include "ukarch/hash.h"
#include "ukarch/random.h"
#include "ukarch/status.h"

namespace {

using namespace ukarch;

TEST(Align, IsPow2) {
  EXPECT_FALSE(IsPow2(0));
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(2));
  EXPECT_FALSE(IsPow2(3));
  EXPECT_TRUE(IsPow2(1ull << 40));
  EXPECT_FALSE(IsPow2((1ull << 40) + 1));
}

TEST(Align, AlignUpDown) {
  EXPECT_EQ(AlignUp(0, 16), 0u);
  EXPECT_EQ(AlignUp(1, 16), 16u);
  EXPECT_EQ(AlignUp(16, 16), 16u);
  EXPECT_EQ(AlignUp(17, 16), 32u);
  EXPECT_EQ(AlignDown(17, 16), 16u);
  EXPECT_EQ(AlignDown(15, 16), 0u);
  EXPECT_TRUE(IsAligned(4096, 4096));
  EXPECT_FALSE(IsAligned(4097, 4096));
}

TEST(Align, CeilPow2) {
  EXPECT_EQ(CeilPow2(0), 1u);
  EXPECT_EQ(CeilPow2(1), 1u);
  EXPECT_EQ(CeilPow2(2), 2u);
  EXPECT_EQ(CeilPow2(3), 4u);
  EXPECT_EQ(CeilPow2(4096), 4096u);
  EXPECT_EQ(CeilPow2(4097), 8192u);
  EXPECT_EQ(CeilPow2((1ull << 35) + 1), 1ull << 36);
}

TEST(Align, Log2) {
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(2), 1u);
  EXPECT_EQ(Log2Floor(3), 1u);
  EXPECT_EQ(Log2Floor(1024), 10u);
  EXPECT_EQ(Log2Ceil(1024), 10u);
  EXPECT_EQ(Log2Ceil(1025), 11u);
}

TEST(Align, FfsFls) {
  EXPECT_EQ(Ffs(0), 0u);
  EXPECT_EQ(Ffs(1), 1u);
  EXPECT_EQ(Ffs(8), 4u);
  EXPECT_EQ(Ffs(0b1010'0000), 6u);
  EXPECT_EQ(Fls(0), 0u);
  EXPECT_EQ(Fls(1), 1u);
  EXPECT_EQ(Fls(0xFF), 8u);
}

TEST(Hash, Fnv1aStable) {
  // Known-good FNV-1a vectors guard against accidental constant changes.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
  EXPECT_EQ(Fnv1a32(""), 0x811c9dc5u);
}

TEST(Hash, Mix64Spreads) {
  std::set<std::uint64_t> low_bits;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    low_bits.insert(Mix64(i) & 0xFF);
  }
  // Sequential inputs must hit most byte buckets.
  EXPECT_GT(low_bits.size(), 200u);
}

TEST(Random, Deterministic) {
  Xorshift a(42);
  Xorshift b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Random, RangeBounds) {
  Xorshift rng(7);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.NextInRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(Random, ZipfishSkew) {
  Xorshift rng(3);
  std::uint64_t low = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.NextZipfish(100) < 20) {
      ++low;
    }
  }
  // min-of-three sampling concentrates mass at small indices: P(<20) ~ 1-0.8^3.
  EXPECT_GT(low, kDraws / 3u);
}

// Bit-at-a-time CRC-32C: the definition the sliced tables must reproduce.
std::uint32_t ReferenceCrc32c(std::span<const std::byte> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::byte b : data) {
    c ^= static_cast<std::uint8_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, Rfc3720KnownAnswers) {
  // RFC 3720 appendix B.4 CRC-32C examples.
  std::array<std::byte, 32> buf{};
  EXPECT_EQ(Crc32Of(buf), 0x8A9136AAu);
  buf.fill(std::byte{0xFF});
  EXPECT_EQ(Crc32Of(buf), 0x62A8AB43u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i);
  }
  EXPECT_EQ(Crc32Of(buf), 0x46DD794Eu);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(31 - i);
  }
  EXPECT_EQ(Crc32Of(buf), 0x113FDB5Cu);
  const std::string_view check = "123456789";
  EXPECT_EQ(Crc32Of(std::as_bytes(std::span(check))), 0xE3069283u);
}

TEST(Crc32, MatchesBitwiseReference) {
  // Every length up to three slices plus a tail, at every start offset mod 8.
  std::vector<std::byte> buf(8 + 3 * 8 + 7);
  Xorshift rng(3720);
  for (std::byte& b : buf) {
    b = static_cast<std::byte>(rng.Next());
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; offset + len <= buf.size(); ++len) {
      const std::span<const std::byte> span(buf.data() + offset, len);
      EXPECT_EQ(Crc32Of(span), ReferenceCrc32c(span)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, UpdateAtEverySplitMatchesOneShot) {
  std::vector<std::byte> buf(1024);
  Xorshift rng(1024);
  for (std::byte& b : buf) {
    b = static_cast<std::byte>(rng.Next());
  }
  const std::uint32_t whole = Crc32Of(buf);
  EXPECT_EQ(whole, ReferenceCrc32c(buf));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    Crc32 c;
    c.Update(std::span(buf).first(split));
    c.Update(buf.data() + split, buf.size() - split);
    ASSERT_EQ(c.value(), whole) << "split " << split;
  }
  Crc32 c;
  c.Update(buf);
  c.Reset();
  c.Update(buf);
  EXPECT_EQ(c.value(), whole);
}

TEST(Status, RoundTrip) {
  EXPECT_TRUE(Ok(Status::kOk));
  EXPECT_FALSE(Ok(Status::kNoMem));
  EXPECT_EQ(Raw(Status::kNoSys), -38);
  EXPECT_STREQ(StatusName(Status::kNoEnt), "ENOENT");
  EXPECT_STREQ(StatusName(Status::kConnRefused), "ECONNREFUSED");
}

}  // namespace
