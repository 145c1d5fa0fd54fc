#ifndef ABCS_IO_CODEC_H_
#define ABCS_IO_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace abcs {

/// \brief Per-section codecs for the ABCSPAK2 index bundle.
///
/// Every bundle section is a flat array of trivially-copyable elements
/// whose size is a multiple of 4 bytes, so the codecs view a payload as
/// `lanes = element_size / 4` interleaved little-endian u32 columns and
/// encode each column independently — the `to` lane of an entry array
/// bit-packs to ⌈log₂ n⌉ bits while its `eid` lane gets its own width,
/// instead of both paying for the larger of the two.
///
/// Encoded streams are self-contained given (lanes, decoded byte count):
/// both are recorded in the bundle TOC, so a decoder never trusts the
/// stream for its own shape. Decoding arbitrary bytes under any tag is
/// memory-safe and returns a clean `Status` (fuzzed by
/// fuzz/fuzz_section_codec.cc).
enum class SectionCodec : uint32_t {
  kRaw = 0,          ///< verbatim bytes, served zero-copy from the mapping
  kDeltaVarint = 1,  ///< per-lane zigzag delta + LEB128 varint (sorted and
                     ///< slowly-varying columns: start arrays, level bounds,
                     ///< sorted neighbour ids)
  kBitPack = 2,      ///< per-lane fixed-width bit packing (bounded columns:
                     ///< vertex/edge ids, offset levels, degrees)
};
inline constexpr uint32_t kNumSectionCodecs = 3;

/// Stable lower-case name for CLI/json output ("raw", "delta-varint",
/// "bit-pack"); "codec-N" for out-of-range values.
const char* SectionCodecName(SectionCodec codec);

/// Encodes `decoded_bytes` bytes of `data` (an array whose elements span
/// `lanes` u32 columns) under `codec` into `*out` (cleared first).
/// `codec` must not be `kRaw` (raw sections are written verbatim without a
/// codec buffer). Fails with `InvalidArgument` when `decoded_bytes` is not
/// a multiple of `4 * lanes` or `lanes` is 0.
Status EncodeU32Section(SectionCodec codec, const void* data,
                        std::size_t decoded_bytes, uint32_t lanes,
                        std::vector<std::byte>* out);

/// Decodes `encoded_bytes` bytes of `encoded` into exactly `decoded_bytes`
/// bytes at `out` (caller-allocated, 4-byte aligned). Total over arbitrary
/// input: every malformed stream — truncation, varint overrun past the
/// buffer, implausible bit widths, trailing garbage, values outside u32
/// range — fails with `Corruption` before any out-of-bounds access, and
/// `out` is fully written only on OK.
Status DecodeU32Section(SectionCodec codec, const std::byte* encoded,
                        std::size_t encoded_bytes, uint32_t lanes, void* out,
                        std::size_t decoded_bytes);

/// Smallest width (0..32) holding `max_value`.
uint32_t BitWidthFor(uint32_t max_value);

/// Bytes of one bit-packed lane of `count` values at `width` bits each.
constexpr std::size_t BitPackedBytes(std::size_t count, uint32_t width) {
  return (count * width + 7) / 8;
}

}  // namespace abcs

#endif  // ABCS_IO_CODEC_H_
