// libFuzzer harness for whole index bundles (io/index_bundle.h): every
// byte a daemon trusts when it maps `--bundle`. Each input is one bundle
// image.
//
// Before the open, the harness re-signs the image: each in-range section
// checksum, then the header/TOC checksum, is recomputed with
// BundleChecksum. A mutated image therefore gets past the checksum gates
// and reaches the structural checks behind them (TOC ranges, codec tags,
// CSR and level-table shapes, entry bounds). The open runs with checksums
// verified, as the daemon does. When it succeeds the bundle must answer
// queries: a few I_δ retrievals and one SCS query run against it, so a
// bound the open failed to check shows up as a sanitizer report.
//
// Seed corpus (fuzz/corpus/bundle_open): bundles of the 8×8, 30-edge
// test-util graph RandomWeightedGraph(8, 8, 30, 7), saved raw and at
// BundleCompression::kMax, plus the raw one rewritten as a format-v1
// (ABCSPAK1) file the way bundle_io_test's ConvertV2RawToV1 does.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_index.h"
#include "core/scs_auto.h"
#include "io/index_bundle.h"

namespace {

// Bundle layout (docs/bundle_format.md): 8-byte magic, 48-byte header
// whose last field is the meta checksum, then the TOC.
constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kMetaChecksumAt = kMagicBytes + 40;
constexpr uint32_t kMaxSections = 64;

template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Resign(std::vector<uint8_t>* image) {
  std::vector<uint8_t>& img = *image;
  if (img.size() < kMagicBytes + kHeaderBytes) return;
  const uint32_t version = Load<uint32_t>(&img[kMagicBytes]);
  const uint32_t count = Load<uint32_t>(&img[kMagicBytes + 4]);
  // v1 records are 40 bytes with the checksum at +32; v2 records are 56
  // bytes with it at +40. Name (16), offset (8), stored length (8) lead
  // both.
  const std::size_t record = version == 1 ? 40 : 56;
  const std::size_t checksum_at = version == 1 ? 32 : 40;
  if (count > kMaxSections) return;
  const std::size_t toc_end =
      kMagicBytes + kHeaderBytes + std::size_t{count} * record;
  if (toc_end > img.size()) return;
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t* rec = &img[kMagicBytes + kHeaderBytes + i * record];
    const uint64_t offset = Load<uint64_t>(rec + 16);
    const uint64_t stored = Load<uint64_t>(rec + 24);
    if (offset > img.size() || stored > img.size() - offset) continue;
    const uint64_t sum = abcs::BundleChecksum(img.data() + offset, stored);
    std::memcpy(rec + checksum_at, &sum, sizeof(sum));
  }
  std::memset(&img[kMetaChecksumAt], 0, sizeof(uint64_t));
  const uint64_t meta = abcs::BundleChecksum(img.data() + kMagicBytes,
                                             toc_end - kMagicBytes);
  std::memcpy(&img[kMetaChecksumAt], &meta, sizeof(meta));
}

// One scratch file per process: OpenIndexBundle maps a path.
const std::string& ScratchPath() {
  static const std::string path = [] {
    const char* dir = std::getenv("TMPDIR");
    std::string p = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
    return p + "/fuzz_bundle_open." + std::to_string(::getpid());
  }();
  return path;
}

bool WriteImage(const std::vector<uint8_t>& img) {
  std::FILE* f = std::fopen(ScratchPath().c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = img.empty() || std::fwrite(img.data(), 1, img.size(), f) ==
                                     img.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::vector<uint8_t> img(data, data + size);
  Resign(&img);
  if (!WriteImage(img)) std::abort();

  std::unique_ptr<abcs::IndexBundle> bundle;
  const abcs::Status st = abcs::OpenIndexBundle(ScratchPath(), &bundle);
  // An opened bundle keeps its mapping, so the file can go right away.
  std::remove(ScratchPath().c_str());
  if (!st.ok()) return 0;

  const abcs::BipartiteGraph& g = bundle->graph();
  const abcs::DeltaIndex& index = bundle->delta_index();
  const uint32_t n = g.NumVertices();
  if (n == 0) return 0;
  // Query picks derive from the image, so a replay is deterministic;
  // α and β range one past δ to cover the empty-core answer too.
  uint64_t h = abcs::BundleChecksum(data, size);
  for (int k = 0; k < 4; ++k) {
    const auto q = static_cast<abcs::VertexId>(h % n);
    const uint32_t alpha = 1 + static_cast<uint32_t>((h >> 32) %
                                                     (index.delta() + 1ull));
    const uint32_t beta = 1 + static_cast<uint32_t>((h >> 48) %
                                                    (index.delta() + 1ull));
    const abcs::Subgraph community = index.QueryCommunity(q, alpha, beta);
    if (k == 0) abcs::ScsQuery(g, community, q, alpha, beta);
    h = h * 6364136223846793005ull + 1442695040888963407ull;
  }
  return 0;
}
