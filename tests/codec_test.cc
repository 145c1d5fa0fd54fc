// Unit tests for the per-section codec layer (io/codec.h): encode→decode
// round-trip identity over adversarial value patterns and every lane
// count used by the bundle sections, exact error reporting on malformed
// streams (the fuzz target's assertions, pinned deterministically).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/codec.h"

namespace abcs {
namespace {

std::vector<std::byte> Encode(SectionCodec codec,
                              const std::vector<uint32_t>& values,
                              uint32_t lanes) {
  std::vector<std::byte> out;
  const Status st = EncodeU32Section(codec, values.data(),
                                     values.size() * 4, lanes, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

std::vector<uint32_t> Decode(SectionCodec codec,
                             const std::vector<std::byte>& enc,
                             uint32_t lanes, std::size_t count_u32) {
  std::vector<uint32_t> out(count_u32, 0xa5a5a5a5);
  const Status st = DecodeU32Section(codec, enc.data(), enc.size(), lanes,
                                     out.data(), count_u32 * 4);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

Status DecodeStatus(SectionCodec codec, const std::vector<std::byte>& enc,
                    uint32_t lanes, std::size_t count_u32) {
  std::vector<uint32_t> out(count_u32 + 1, 0);
  return DecodeU32Section(codec, enc.data(), enc.size(), lanes, out.data(),
                          count_u32 * 4);
}

// Value patterns that stress each codec's edges: sorted (best case for
// delta), reverse-sorted (negative deltas), constant, alternating
// 0/UINT32_MAX (widest zigzag + width-32 lanes), and uniform random.
std::vector<std::vector<uint32_t>> Patterns(std::size_t count) {
  Rng rng(99);
  std::vector<std::vector<uint32_t>> patterns(5,
                                              std::vector<uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    patterns[0][i] = static_cast<uint32_t>(3 * i);
    patterns[1][i] = static_cast<uint32_t>(7 * (count - i));
    patterns[2][i] = 42;
    patterns[3][i] = i % 2 == 0 ? 0 : std::numeric_limits<uint32_t>::max();
    patterns[4][i] = static_cast<uint32_t>(rng.Next());
  }
  return patterns;
}

TEST(SectionCodecTest, RoundTripIdentityAcrossLanesAndPatterns) {
  // Lane counts 1–4 cover every bundle section element type (u32, Arc,
  // DeltaIndex::Entry, Edge); counts cover empty, one element, and sizes
  // that exercise bit-stream tails at every alignment.
  for (const uint32_t lanes : {1u, 2u, 3u, 4u}) {
    for (const std::size_t elems : {std::size_t{0}, std::size_t{1},
                                    std::size_t{7}, std::size_t{64},
                                    std::size_t{513}}) {
      for (const auto& values : Patterns(elems * lanes)) {
        for (const SectionCodec codec :
             {SectionCodec::kDeltaVarint, SectionCodec::kBitPack}) {
          const std::vector<std::byte> enc = Encode(codec, values, lanes);
          EXPECT_EQ(Decode(codec, enc, lanes, values.size()), values)
              << SectionCodecName(codec) << " lanes=" << lanes
              << " elems=" << elems;
        }
      }
    }
  }
}

TEST(SectionCodecTest, PerLaneWidthsBeatOneSharedWidth) {
  // The point of the columnar view: a 2-lane array with one narrow and
  // one wide column must pack near the narrow column's width, not pay the
  // wide width twice.
  const std::size_t elems = 4096;
  std::vector<uint32_t> values(elems * 2);
  for (std::size_t i = 0; i < elems; ++i) {
    values[2 * i] = static_cast<uint32_t>(i % 8);     // 3-bit lane
    values[2 * i + 1] = 0x00ffffff;                   // 24-bit lane
  }
  const std::vector<std::byte> enc =
      Encode(SectionCodec::kBitPack, values, 2);
  // ~(3+24)/64 of raw, plus header; a shared 24-bit width would be 48/64.
  EXPECT_LT(enc.size(), values.size() * 4 * 30 / 64);
}

TEST(SectionCodecTest, SortedArraysShrinkUnderDeltaVarint) {
  std::vector<uint32_t> sorted(10000);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<uint32_t>(5 * i + i % 3);
  }
  const std::vector<std::byte> enc =
      Encode(SectionCodec::kDeltaVarint, sorted, 1);
  // Small deltas → 1 byte per value vs 4 raw.
  EXPECT_LT(enc.size(), sorted.size() * 4 / 3);
}

TEST(SectionCodecTest, RawDecodeRequiresMatchingLengths) {
  const std::vector<uint32_t> values = {1, 2, 3, 4};
  std::vector<std::byte> enc(values.size() * 4);
  std::memcpy(enc.data(), values.data(), enc.size());
  EXPECT_EQ(Decode(SectionCodec::kRaw, enc, 1, values.size()), values);
  enc.pop_back();
  const Status st = DecodeStatus(SectionCodec::kRaw, enc, 1, values.size());
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

TEST(SectionCodecTest, EncodeRejectsBadShapes) {
  const std::vector<uint32_t> values = {1, 2, 3};
  std::vector<std::byte> out;
  // 3 u32s are not a whole number of 2-lane elements.
  EXPECT_EQ(EncodeU32Section(SectionCodec::kBitPack, values.data(), 12, 2,
                             &out)
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(EncodeU32Section(SectionCodec::kBitPack, values.data(), 12, 0,
                             &out)
                .code(),
            Status::Code::kInvalidArgument);
  // kRaw has no encoder by design.
  EXPECT_EQ(EncodeU32Section(SectionCodec::kRaw, values.data(), 12, 1, &out)
                .code(),
            Status::Code::kInvalidArgument);
}

TEST(SectionCodecTest, TruncatedStreamsFailCleanly) {
  const std::vector<uint32_t> values = Patterns(300)[4];
  for (const SectionCodec codec :
       {SectionCodec::kDeltaVarint, SectionCodec::kBitPack}) {
    std::vector<std::byte> enc = Encode(codec, values, 3);
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{1}, enc.size() / 2, enc.size() - 1}) {
      std::vector<std::byte> cut(enc.begin(), enc.begin() + keep);
      const Status st = DecodeStatus(codec, cut, 3, values.size());
      EXPECT_EQ(st.code(), Status::Code::kCorruption)
          << SectionCodecName(codec) << " keep=" << keep;
    }
    // Trailing garbage is rejected too: the TOC's stored length is exact.
    enc.push_back(std::byte{0});
    const Status st = DecodeStatus(codec, enc, 3, values.size());
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << SectionCodecName(codec);
  }
}

TEST(SectionCodecTest, OverlongVarintIsCorruption) {
  // Six continuation bytes: no u32 delta needs more than five.
  const std::vector<std::byte> enc(6, std::byte{0x80});
  const Status st = DecodeStatus(SectionCodec::kDeltaVarint, enc, 1, 1);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("varint"), std::string::npos) << st.ToString();
}

TEST(SectionCodecTest, DeltaOutsideU32RangeIsCorruption) {
  // Zigzag(1) is a delta of -1: from the implicit prev of 0 the first
  // element lands below zero, outside u32.
  const std::vector<std::byte> negative = {std::byte{0x01}};
  Status st = DecodeStatus(SectionCodec::kDeltaVarint, negative, 1, 1);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("outside u32"), std::string::npos)
      << st.ToString();
  // Zigzag(2^32) = 2^33: a +2^32 delta overflows u32 from prev = 0.
  const std::vector<std::byte> overflow = {std::byte{0x80}, std::byte{0x80},
                                           std::byte{0x80}, std::byte{0x80},
                                           std::byte{0x20}};
  st = DecodeStatus(SectionCodec::kDeltaVarint, overflow, 1, 1);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("outside u32"), std::string::npos)
      << st.ToString();
}

TEST(SectionCodecTest, BitPackWidthOver32IsCorruption) {
  std::vector<std::byte> enc = Encode(SectionCodec::kBitPack, {1, 2, 3, 4}, 1);
  enc[0] = std::byte{33};
  const Status st = DecodeStatus(SectionCodec::kBitPack, enc, 1, 4);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("width"), std::string::npos) << st.ToString();
}

TEST(SectionCodecTest, BitPackSizeMismatchIsCorruption) {
  // Claim a wider lane than the payload carries: the size accounting must
  // reject the stream before the reader runs.
  std::vector<std::byte> enc = Encode(SectionCodec::kBitPack, {1, 2, 3, 4}, 1);
  enc[0] = std::byte{31};
  const Status st = DecodeStatus(SectionCodec::kBitPack, enc, 1, 4);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
}

}  // namespace
}  // namespace abcs
