// Tests for the ABCSPAK2 index bundle: round-trip bit-identity of all
// three query paths (read and mmap opens, raw and compressed saves),
// zero-copy span wiring, copy-on-write seeding of the dynamic index,
// graph/weight staleness detection, v1-format compatibility, and a
// corruption battery — truncation, bad magic, wrong version, flipped
// bytes, TOC overrun, plus the encoded-section battery (truncated or
// tampered encoded payloads, wrong codec tags, decoded-length lies,
// varint overruns) — that must fail with a clean Status naming the
// offending section, never a crash or sanitizer report.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/index_io.h"
#include "core/maintenance.h"
#include "core/query_engine.h"
#include "io/index_bundle.h"
#include "test_util.h"

namespace abcs {
namespace {

using ::abcs::testing::RandomWeightedGraph;

// Same mixed load as query_engine_test.cc: random vertices, α/β spanning
// below, at and above the interesting range, so empty and non-empty
// communities both occur on every path.
std::vector<QueryRequest> MixedRequests(const BipartiteGraph& g,
                                        std::size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(QueryRequest{
        static_cast<VertexId>(rng.NextBounded(g.NumVertices())),
        1 + static_cast<uint32_t>(rng.NextBounded(9)),
        1 + static_cast<uint32_t>(rng.NextBounded(9))});
  }
  return requests;
}

// --- raw-layout helpers for crafting corrupt-but-self-consistent files --
// Layout (docs/bundle_format.md): magic[8] | header[48] | TOC of 56-byte
// v2 records | payloads. Header: version@8 count@12 nU@16 nL@20 m@24 δ@28,
// meta checksum @48; record: name[16] offset@+16 stored@+24 decoded@+32
// checksum@+40 codec@+48 reserved@+52.

constexpr std::size_t kRecordBytes = 56;
constexpr std::size_t kTocStart = 8 + 48;

struct SectionLoc {
  std::size_t record_off = 0;
  uint64_t offset = 0;
  uint64_t stored_length = 0;
  uint64_t decoded_length = 0;
  uint32_t codec = 0;
  bool found = false;
};

SectionLoc ReadRecord(const std::string& bytes, std::size_t rec) {
  SectionLoc loc;
  loc.record_off = rec;
  loc.found = true;
  std::memcpy(&loc.offset, bytes.data() + rec + 16, sizeof(loc.offset));
  std::memcpy(&loc.stored_length, bytes.data() + rec + 24,
              sizeof(loc.stored_length));
  std::memcpy(&loc.decoded_length, bytes.data() + rec + 32,
              sizeof(loc.decoded_length));
  std::memcpy(&loc.codec, bytes.data() + rec + 48, sizeof(loc.codec));
  return loc;
}

SectionLoc FindSection(const std::string& bytes, const char* name) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  for (uint32_t i = 0; i < count; ++i) {
    const std::size_t rec = kTocStart + std::size_t{i} * kRecordBytes;
    if (std::strncmp(bytes.data() + rec, name, 16) == 0) {
      return ReadRecord(bytes, rec);
    }
  }
  return {};
}

/// First section stored under a non-raw codec, for the encoded battery.
SectionLoc FindEncodedSection(const std::string& bytes) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  for (uint32_t i = 0; i < count; ++i) {
    const SectionLoc loc =
        ReadRecord(bytes, kTocStart + std::size_t{i} * kRecordBytes);
    if (loc.codec != 0) return loc;
  }
  return {};
}

std::string SectionNameAt(const std::string& bytes, std::size_t record_off) {
  const char* p = bytes.data() + record_off;
  return std::string(p, strnlen(p, 16));
}

/// Recomputes the header/TOC meta checksum after a deliberate metadata
/// patch, so tests exercise the *structural* guards behind it rather than
/// the checksum itself.
void FixMetaChecksum(std::string* bytes) {
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes->data() + 12, sizeof(section_count));
  const std::size_t toc_end =
      kTocStart + std::size_t{section_count} * kRecordBytes;
  ASSERT_LE(toc_end, bytes->size());
  std::string meta = bytes->substr(8, toc_end - 8);
  std::memset(meta.data() + 40, 0, 8);  // zero the meta checksum field
  const uint64_t checksum = BundleChecksum(meta.data(), meta.size());
  std::memcpy(bytes->data() + 48, &checksum, sizeof(checksum));
}

/// Re-signs one section's content checksum (after patching its payload)
/// and the meta checksum — the strongest corruption an accidental writer
/// bug or a deliberate attacker could produce without knowing the
/// structural invariants.
void ResignSection(std::string* bytes, const char* name) {
  const SectionLoc loc = FindSection(*bytes, name);
  ASSERT_TRUE(loc.found) << name;
  const uint64_t checksum =
      BundleChecksum(bytes->data() + loc.offset, loc.stored_length);
  std::memcpy(bytes->data() + loc.record_off + 40, &checksum,
              sizeof(checksum));
  FixMetaChecksum(bytes);
}

/// Re-signs the record at `record_off` from its (patched) stored payload.
void ResignRecord(std::string* bytes, std::size_t record_off) {
  const SectionLoc loc = ReadRecord(*bytes, record_off);
  const uint64_t checksum =
      BundleChecksum(bytes->data() + loc.offset, loc.stored_length);
  std::memcpy(bytes->data() + record_off + 40, &checksum, sizeof(checksum));
  FixMetaChecksum(bytes);
}

uint32_t ReadU32(const std::string& bytes, std::size_t offset) {
  uint32_t x = 0;
  std::memcpy(&x, bytes.data() + offset, sizeof(x));
  return x;
}

void WriteU32(std::string* bytes, std::size_t offset, uint32_t x) {
  std::memcpy(bytes->data() + offset, &x, sizeof(x));
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class BundleIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/abcs_bundle_io_test.abcs";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Builds everything from one graph and saves the bundle.
  void BuildAndSave(const BipartiteGraph& g,
                    const SaveBundleOptions& options = {}) {
    decomp_ = ComputeBicoreDecomposition(g);
    delta_ = DeltaIndex::Build(g, &decomp_);
    bicore_ = BicoreIndex::Build(g, &decomp_);
    ASSERT_TRUE(
        SaveIndexBundle(g, decomp_, delta_, bicore_, path_, options).ok());
  }

  std::string path_;
  BicoreDecomposition decomp_;
  DeltaIndex delta_;
  BicoreIndex bicore_;
};

// ------------------------------------------------------------ round trip --

TEST_F(BundleIoTest, RoundTripBitIdenticalOnAllMethodsAndModes) {
  const BipartiteGraph g = RandomWeightedGraph(80, 80, 900, 23);
  BuildAndSave(g);
  const std::vector<QueryRequest> requests = MixedRequests(g, 1000, 42);

  for (const BundleOpenMode mode :
       {BundleOpenMode::kRead, BundleOpenMode::kMmap}) {
    std::unique_ptr<IndexBundle> bundle;
    BundleOpenOptions options;
    options.mode = mode;
    ASSERT_TRUE(OpenIndexBundle(path_, &bundle, options).ok());
    ASSERT_EQ(bundle->delta(), decomp_.delta);
    EXPECT_EQ(bundle->graph().Edges(), g.Edges());
    EXPECT_EQ(bundle->decomposition(), decomp_);

    for (const QueryMethod method :
         {QueryMethod::kDelta, QueryMethod::kBicore, QueryMethod::kOnline}) {
      const QueryEngine fresh(g, method, &delta_, &bicore_);
      const QueryEngine opened(bundle->graph(), method,
                               &bundle->delta_index(),
                               &bundle->bicore_index());
      BatchOptions opt;
      opt.keep_communities = true;
      const BatchResult want = fresh.RunBatch(requests, opt);
      const BatchResult got = opened.RunBatch(requests, opt);
      ASSERT_EQ(got.outcomes.size(), want.outcomes.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        ASSERT_EQ(got.communities[i].edges, want.communities[i].edges)
            << QueryMethodName(method) << " i=" << i << " mode="
            << (mode == BundleOpenMode::kMmap ? "mmap" : "read");
        ASSERT_EQ(got.outcomes[i].touched_arcs, want.outcomes[i].touched_arcs)
            << QueryMethodName(method) << " i=" << i;
      }
    }
  }
}

TEST_F(BundleIoTest, MmapOpenIsZeroCopy) {
  const BipartiteGraph g = RandomWeightedGraph(50, 50, 400, 7);
  BuildAndSave(g);
  std::unique_ptr<IndexBundle> bundle;
  ASSERT_TRUE(OpenIndexBundle(path_, &bundle).ok());
  EXPECT_EQ(bundle->mode(), BundleOpenMode::kMmap);
  // Every array of every layer views the mapped region: no per-array copy.
  EXPECT_TRUE(bundle->ZeroCopy());
  EXPECT_GT(bundle->FileBytes(), 0u);

  // The read-into-memory path shares the wiring: one buffer, same spans.
  std::unique_ptr<IndexBundle> read_bundle;
  BundleOpenOptions options;
  options.mode = BundleOpenMode::kRead;
  ASSERT_TRUE(OpenIndexBundle(path_, &read_bundle, options).ok());
  EXPECT_TRUE(read_bundle->ZeroCopy());
}

TEST_F(BundleIoTest, UnverifiedOpenServesIdenticalQueries) {
  const BipartiteGraph g = RandomWeightedGraph(40, 40, 350, 11);
  BuildAndSave(g);
  std::unique_ptr<IndexBundle> bundle;
  BundleOpenOptions options;
  options.verify_checksums = false;  // trusted-restart fast path
  ASSERT_TRUE(OpenIndexBundle(path_, &bundle, options).ok());
  for (const QueryRequest& r : MixedRequests(g, 200, 3)) {
    EXPECT_EQ(bundle->delta_index().QueryCommunity(r.q, r.alpha, r.beta).edges,
              delta_.QueryCommunity(r.q, r.alpha, r.beta).edges);
  }
}

// Copy-on-write: the dynamic index seeds its mutable rows straight from
// the bundle's (possibly mmap'd) arenas — no offset peel — and then
// behaves exactly like one seeded by recomputation.
TEST_F(BundleIoTest, DynamicIndexSeedsCopyOnWriteFromBundle) {
  const BipartiteGraph g = RandomWeightedGraph(30, 30, 250, 19);
  BuildAndSave(g);
  std::unique_ptr<IndexBundle> bundle;
  ASSERT_TRUE(OpenIndexBundle(path_, &bundle).ok());

  DynamicDeltaIndex from_bundle(bundle->graph(), &bundle->decomposition());
  DynamicDeltaIndex recomputed(g);
  ASSERT_EQ(from_bundle.delta(), recomputed.delta());
  for (uint32_t tau = 1; tau <= recomputed.delta(); ++tau) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(from_bundle.OffsetAlpha(tau, v),
                recomputed.OffsetAlpha(tau, v));
      ASSERT_EQ(from_bundle.OffsetBeta(tau, v), recomputed.OffsetBeta(tau, v));
    }
  }
  // Mutating after the seed must not touch the mapped bundle (the rows are
  // owned copies); both instances keep agreeing through an update.
  ASSERT_TRUE(from_bundle.InsertEdge(0, g.NumUpper() + 1, 3.0).ok() ==
              recomputed.InsertEdge(0, g.NumUpper() + 1, 3.0).ok());
  EXPECT_EQ(from_bundle.QueryCommunity(0, 2, 2).edges,
            recomputed.QueryCommunity(0, 2, 2).edges);
  EXPECT_TRUE(bundle->ZeroCopy());  // bundle arenas untouched
}

TEST_F(BundleIoTest, EmptyGraphRoundTrips) {
  GraphBuilder builder;  // zero edges, zero vertices
  BipartiteGraph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  BuildAndSave(g);
  std::unique_ptr<IndexBundle> bundle;
  ASSERT_TRUE(OpenIndexBundle(path_, &bundle).ok());
  EXPECT_EQ(bundle->graph().NumVertices(), 0u);
  EXPECT_EQ(bundle->delta(), 0u);
  EXPECT_TRUE(bundle->delta_index().QueryCommunity(0, 1, 1).edges.empty());
}

// ----------------------------------------------------------- compressed --

TEST_F(BundleIoTest, CompressedSaveRoundTripsBitIdentical) {
  const BipartiteGraph g = RandomWeightedGraph(80, 80, 900, 29);
  BuildAndSave(g);
  const uint64_t raw_bytes = ReadFileBytes(path_).size();
  const std::vector<QueryRequest> requests = MixedRequests(g, 600, 77);

  for (const BundleCompression level :
       {BundleCompression::kFast, BundleCompression::kMax}) {
    SaveBundleOptions save;
    save.compression = level;
    BuildAndSave(g, save);
    const uint64_t packed_bytes = ReadFileBytes(path_).size();
    // The policy only accepts codecs that pay for themselves, so the
    // compressed file is strictly smaller here (small ids pack hard) and
    // can never be larger on any input.
    EXPECT_LT(packed_bytes, raw_bytes) << BundleCompressionName(level);

    for (const BundleOpenMode mode :
         {BundleOpenMode::kRead, BundleOpenMode::kMmap}) {
      std::unique_ptr<IndexBundle> bundle;
      BundleOpenOptions options;
      options.mode = mode;
      ASSERT_TRUE(OpenIndexBundle(path_, &bundle, options).ok());
      EXPECT_EQ(bundle->FormatVersion(), 2u);
      EXPECT_EQ(bundle->decomposition(), decomp_);
      // At least one section actually took a codec, it decodes into the
      // owned pool (so the bundle is honestly not zero-copy), and the
      // per-section report matches.
      std::size_t encoded = 0;
      for (const BundleSectionInfo& info : bundle->Sections()) {
        if (info.codec != SectionCodec::kRaw) {
          ++encoded;
          EXPECT_LT(info.stored_bytes, info.decoded_bytes) << info.name;
        } else {
          EXPECT_EQ(info.stored_bytes, info.decoded_bytes) << info.name;
        }
      }
      EXPECT_GT(encoded, 0u);
      EXPECT_GT(bundle->DecodePoolBytes(), 0u);
      EXPECT_FALSE(bundle->ZeroCopy());

      for (const QueryMethod method :
           {QueryMethod::kDelta, QueryMethod::kBicore, QueryMethod::kOnline}) {
        const QueryEngine fresh(g, method, &delta_, &bicore_);
        const QueryEngine opened(bundle->graph(), method,
                                 &bundle->delta_index(),
                                 &bundle->bicore_index());
        BatchOptions opt;
        opt.keep_communities = true;
        const BatchResult want = fresh.RunBatch(requests, opt);
        const BatchResult got = opened.RunBatch(requests, opt);
        for (std::size_t i = 0; i < requests.size(); ++i) {
          ASSERT_EQ(got.communities[i].edges, want.communities[i].edges)
              << BundleCompressionName(level) << " "
              << QueryMethodName(method) << " i=" << i;
        }
      }
    }
  }
}

// ------------------------------------------------------ v1 compatibility --

/// Rewrites a v2 all-raw bundle into the byte-exact v1 layout (40-byte TOC
/// records, "ABCSPAK1" magic, version 1): the payloads shift up by the TOC
/// shrinkage but their bytes and checksums are unchanged.
std::string ConvertV2RawToV1(const std::string& v2) {
  uint32_t count = 0;
  std::memcpy(&count, v2.data() + 12, sizeof(count));
  const std::size_t v1_toc_end = kTocStart + std::size_t{count} * 40;
  std::string v1(v1_toc_end, '\0');
  std::memcpy(v1.data(), "ABCSPAK1", 8);
  std::memcpy(v1.data() + 8, v2.data() + 8, 48);
  uint32_t version = 1;
  std::memcpy(v1.data() + 8, &version, sizeof(version));

  uint64_t cursor = v1_toc_end;
  for (uint32_t i = 0; i < count; ++i) {
    const std::size_t v2_rec = kTocStart + std::size_t{i} * kRecordBytes;
    const SectionLoc loc = ReadRecord(v2, v2_rec);
    EXPECT_EQ(loc.codec, 0u) << "v1 conversion needs an all-raw source";
    const std::size_t v1_rec = kTocStart + std::size_t{i} * 40;
    std::memcpy(v1.data() + v1_rec, v2.data() + v2_rec, 16);  // name
    std::memcpy(v1.data() + v1_rec + 16, &cursor, 8);
    std::memcpy(v1.data() + v1_rec + 24, v2.data() + v2_rec + 24, 8);
    std::memcpy(v1.data() + v1_rec + 32, v2.data() + v2_rec + 40, 8);
    v1.append(v2, loc.offset, loc.stored_length);
    v1.resize((v1.size() + 7) & ~std::size_t{7}, '\0');
    cursor = v1.size();
  }
  // Re-sign the meta checksum over header (field zeroed) + 40-byte TOC.
  std::string meta = v1.substr(8, v1_toc_end - 8);
  std::memset(meta.data() + 40, 0, 8);
  const uint64_t checksum = BundleChecksum(meta.data(), meta.size());
  std::memcpy(v1.data() + 48, &checksum, sizeof(checksum));
  return v1;
}

TEST_F(BundleIoTest, V1BundleStillOpensOnTheVerifiedFastPath) {
  const BipartiteGraph g = RandomWeightedGraph(40, 40, 350, 31);
  BuildAndSave(g);
  const std::string v1 = ConvertV2RawToV1(ReadFileBytes(path_));
  WriteFileBytes(path_, v1);

  std::unique_ptr<IndexBundle> bundle;
  ASSERT_TRUE(OpenIndexBundle(path_, &bundle).ok());
  EXPECT_EQ(bundle->FormatVersion(), 1u);
  // Every v1 section is raw: the legacy file keeps the zero-copy mmap
  // fast path, no decode pool is allocated, and queries are identical.
  EXPECT_TRUE(bundle->ZeroCopy());
  EXPECT_EQ(bundle->DecodePoolBytes(), 0u);
  EXPECT_EQ(bundle->decomposition(), decomp_);
  for (const QueryRequest& r : MixedRequests(g, 200, 9)) {
    EXPECT_EQ(bundle->delta_index().QueryCommunity(r.q, r.alpha, r.beta).edges,
              delta_.QueryCommunity(r.q, r.alpha, r.beta).edges);
  }
}

// ------------------------------------------------- staleness detection --

TEST_F(BundleIoTest, StaleWeightsAreRejectedByWeightDigest) {
  const BipartiteGraph g = RandomWeightedGraph(30, 30, 250, 5);
  BuildAndSave(g);
  std::unique_ptr<IndexBundle> bundle;
  ASSERT_TRUE(OpenIndexBundle(path_, &bundle).ok());
  ASSERT_TRUE(VerifyBundleMatchesGraph(*bundle, g).ok());

  // Same topology, different significances: the topology checksum cannot
  // see this — the weight digest must.
  std::vector<Weight> w(g.NumEdges(), 42.0);
  const BipartiteGraph reweighted = g.WithWeights(w);
  ASSERT_EQ(GraphTopologyChecksum(reweighted), GraphTopologyChecksum(g));
  const Status st = VerifyBundleMatchesGraph(*bundle, reweighted);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);

  // Different topology is still caught too.
  const BipartiteGraph other = RandomWeightedGraph(30, 30, 250, 6);
  EXPECT_EQ(VerifyBundleMatchesGraph(*bundle, other).code(),
            Status::Code::kCorruption);
}

// ---------------------------------------------------------- corruption --

class BundleCorruptionTest : public BundleIoTest {
 protected:
  void SetUp() override {
    BundleIoTest::SetUp();
    graph_ = RandomWeightedGraph(25, 25, 200, 13);
    BuildAndSave(graph_);
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 96u);
  }

  /// Opens the (patched) file in both modes; every variant must produce
  /// `code` without crashing.
  void ExpectOpenFails(Status::Code code) { ExpectOpenFailsNaming(code, ""); }

  /// Like ExpectOpenFails, but additionally requires the Status message to
  /// contain `name` — every section-level error must say *which* section
  /// was bad, or an operator staring at a 19-section bundle flies blind.
  void ExpectOpenFailsNaming(Status::Code code, const std::string& name) {
    for (const BundleOpenMode mode :
         {BundleOpenMode::kRead, BundleOpenMode::kMmap}) {
      std::unique_ptr<IndexBundle> bundle;
      BundleOpenOptions options;
      options.mode = mode;
      const Status st = OpenIndexBundle(path_, &bundle, options);
      EXPECT_EQ(st.code(), code) << st.ToString();
      EXPECT_EQ(bundle, nullptr);
      if (!name.empty()) {
        EXPECT_NE(st.message().find(name), std::string::npos)
            << "error does not name section " << name << ": " << st.ToString();
      }
    }
  }

  BipartiteGraph graph_;
  std::string bytes_;
};

TEST_F(BundleCorruptionTest, MissingFileIsIOError) {
  std::remove(path_.c_str());
  ExpectOpenFails(Status::Code::kIOError);
}

TEST_F(BundleCorruptionTest, DirectoryPathIsIOError) {
  // ifstream "opens" a directory on some libstdc++ setups and tellg lies;
  // both modes must fail with a clean Status, not a bad_alloc abort.
  for (const BundleOpenMode mode :
       {BundleOpenMode::kRead, BundleOpenMode::kMmap}) {
    std::unique_ptr<IndexBundle> bundle;
    BundleOpenOptions options;
    options.mode = mode;
    const Status st = OpenIndexBundle(::testing::TempDir(), &bundle, options);
    EXPECT_EQ(st.code(), Status::Code::kIOError) << st.ToString();
  }
}

TEST_F(BundleCorruptionTest, TruncationAtEveryRegionIsCorruption) {
  // Mid-header, mid-TOC, and mid-payload cuts.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{30}, std::size_t{70},
        bytes_.size() / 2, bytes_.size() - 1}) {
    WriteFileBytes(path_, bytes_.substr(0, keep));
    ExpectOpenFails(Status::Code::kCorruption);
  }
}

TEST_F(BundleCorruptionTest, BadMagicIsCorruption) {
  bytes_[0] = 'X';
  WriteFileBytes(path_, bytes_);
  ExpectOpenFails(Status::Code::kCorruption);
  // A dump in the retired single-structure ABCSIDX format is also "not a
  // bundle", reported cleanly.
  const std::string legacy = ::testing::TempDir() + "/abcs_legacy_probe.idx";
  WriteFileBytes(legacy, "ABCSIDX2" + std::string(128, '\x01'));
  std::unique_ptr<IndexBundle> bundle;
  EXPECT_EQ(OpenIndexBundle(legacy, &bundle).code(),
            Status::Code::kCorruption);
  std::remove(legacy.c_str());
}

TEST_F(BundleCorruptionTest, WrongFormatVersionIsCorruption) {
  uint32_t version = 99;
  std::memcpy(bytes_.data() + 8, &version, sizeof(version));
  WriteFileBytes(path_, bytes_);
  ExpectOpenFails(Status::Code::kCorruption);
}

TEST_F(BundleCorruptionTest, FlippedPayloadByteIsCorruption) {
  bytes_[bytes_.size() - 1] ^= 0x40;  // inside the last section's payload
  WriteFileBytes(path_, bytes_);
  ExpectOpenFails(Status::Code::kCorruption);
}

TEST_F(BundleCorruptionTest, FlippedTocByteIsCorruption) {
  bytes_[kTocStart + 17] ^= 0x01;  // first record's offset field
  WriteFileBytes(path_, bytes_);
  ExpectOpenFails(Status::Code::kCorruption);
}

TEST_F(BundleCorruptionTest, SectionTocOverrunIsCorruption) {
  // Stretch section 0 past EOF (both lengths, so the raw stored==decoded
  // invariant holds) and *re-sign* the metadata, so the range check itself
  // (not the meta checksum) must reject the file — naming the section.
  uint64_t length = bytes_.size() * 2 + 1024;
  std::memcpy(bytes_.data() + kTocStart + 24, &length, sizeof(length));
  std::memcpy(bytes_.data() + kTocStart + 32, &length, sizeof(length));
  FixMetaChecksum(&bytes_);
  WriteFileBytes(path_, bytes_);
  ExpectOpenFailsNaming(Status::Code::kCorruption,
                        SectionNameAt(bytes_, kTocStart));
}

TEST_F(BundleCorruptionTest, SectionOffsetOverflowIsCorruption) {
  // Offset near UINT64_MAX: offset + length must not wrap past the check.
  uint64_t offset = ~uint64_t{0} - 7;  // keeps 8-alignment
  std::memcpy(bytes_.data() + kTocStart + 16, &offset, sizeof(offset));
  FixMetaChecksum(&bytes_);
  WriteFileBytes(path_, bytes_);
  ExpectOpenFails(Status::Code::kCorruption);
}

// A fully re-signed bundle whose I_δ base table carries a zero-width
// vertex slot must be rejected: NumLevels would underflow and the
// self-offset lookup would read far outside the mapping.
TEST_F(BundleCorruptionTest, ZeroWidthTableBaseSlotIsCorruption) {
  const SectionLoc tbase = FindSection(bytes_, "id.a.tbase");
  ASSERT_TRUE(tbase.found);
  ASSERT_GE(tbase.stored_length, 2 * sizeof(uint32_t));
  WriteU32(&bytes_, tbase.offset + 4, ReadU32(bytes_, tbase.offset));
  ResignSection(&bytes_, "id.a.tbase");
  WriteFileBytes(path_, bytes_);
  ExpectOpenFails(Status::Code::kCorruption);
}

// A re-signed decomposition whose start table gives one vertex a slice
// longer than δ must be rejected: consumers size dense per-τ tables by δ
// (DynamicDeltaIndex's seed rows) and would write past them otherwise.
TEST_F(BundleCorruptionTest, DecompositionSliceLongerThanDeltaIsCorruption) {
  const SectionLoc start = FindSection(bytes_, "dc.a.start");
  ASSERT_TRUE(start.found);
  const uint64_t count = start.stored_length / sizeof(uint32_t);
  ASSERT_GE(count, 3u);
  const uint32_t delta = ReadU32(bytes_, 28);
  const uint32_t total =
      ReadU32(bytes_, start.offset + (std::size_t{count} - 1) * 4);
  ASSERT_GT(total, delta) << "fixture graph too small for this craft";
  // Zero every interior bound: still non-decreasing, same total, but the
  // last vertex now owns all Σ Levels values — far more than δ.
  for (uint64_t v = 1; v + 1 < count; ++v) {
    WriteU32(&bytes_, start.offset + std::size_t{v} * 4, 0);
  }
  ResignSection(&bytes_, "dc.a.start");
  WriteFileBytes(path_, bytes_);
  ExpectOpenFails(Status::Code::kCorruption);
}

// ------------------------------------------- encoded-section corruption --

/// The corruption battery over *encoded* sections: the bundle is saved
/// with compression=max, then the stored streams, codec tags and length
/// fields are tampered with. Every case must fail with a clean Status
/// that names the offending section — never OOB (ASan/UBSan-checked in
/// CI) and never a silently wrong decode.
class CompressedBundleCorruptionTest : public BundleCorruptionTest {
 protected:
  void SetUp() override {
    BundleIoTest::SetUp();
    graph_ = RandomWeightedGraph(25, 25, 200, 13);
    SaveBundleOptions save;
    save.compression = BundleCompression::kMax;
    BuildAndSave(graph_, save);
    bytes_ = ReadFileBytes(path_);
    encoded_ = FindEncodedSection(bytes_);
    ASSERT_TRUE(encoded_.found) << "fixture graph compressed no section";
    name_ = SectionNameAt(bytes_, encoded_.record_off);
  }

  SectionLoc encoded_;
  std::string name_;
};

TEST_F(CompressedBundleCorruptionTest, TruncatedEncodedPayloadIsCorruption) {
  // Shorten the stored stream by a few bytes and re-sign everything: only
  // the decoder's own size/underrun accounting can reject this.
  ASSERT_GT(encoded_.stored_length, 8u);
  const uint64_t shortened = encoded_.stored_length - 5;
  std::memcpy(bytes_.data() + encoded_.record_off + 24, &shortened, 8);
  ResignRecord(&bytes_, encoded_.record_off);
  WriteFileBytes(path_, bytes_);
  ExpectOpenFailsNaming(Status::Code::kCorruption, name_);
}

TEST_F(CompressedBundleCorruptionTest, FlippedEncodedByteIsCorruption) {
  // A flipped byte inside the encoded stream must die on the stored-bytes
  // checksum, *before* the decoder ever parses the tampered stream.
  bytes_[encoded_.offset + encoded_.stored_length / 2] ^= 0x20;
  WriteFileBytes(path_, bytes_);
  ExpectOpenFailsNaming(Status::Code::kCorruption, name_);
}

TEST_F(CompressedBundleCorruptionTest, UnknownCodecTagIsCorruption) {
  const uint32_t bogus = 57;
  std::memcpy(bytes_.data() + encoded_.record_off + 48, &bogus, 4);
  FixMetaChecksum(&bytes_);
  WriteFileBytes(path_, bytes_);
  ExpectOpenFailsNaming(Status::Code::kCorruption, name_);
}

TEST_F(CompressedBundleCorruptionTest, WrongCodecTagIsCorruption) {
  // Swap the tag for the *other* valid codec (stream bytes untouched, all
  // checksums re-signed): the decoder parses a well-checksummed stream of
  // the wrong shape and must fail its own structural accounting.
  const uint32_t other = encoded_.codec == 1 ? 2 : 1;
  std::memcpy(bytes_.data() + encoded_.record_off + 48, &other, 4);
  FixMetaChecksum(&bytes_);
  WriteFileBytes(path_, bytes_);
  ExpectOpenFailsNaming(Status::Code::kCorruption, name_);
}

TEST_F(CompressedBundleCorruptionTest, DecodedLengthMismatchIsCorruption) {
  // Grow the claimed decoded length by one whole element (id entries are
  // 12 bytes): the element-count and codec accounting must catch the lie.
  const SectionLoc entries = FindSection(bytes_, "id.a.entries");
  ASSERT_TRUE(entries.found);
  ASSERT_NE(entries.codec, 0u) << "fixture entries section stayed raw";
  const uint64_t grown = entries.decoded_length + 12;
  std::memcpy(bytes_.data() + entries.record_off + 32, &grown, 8);
  FixMetaChecksum(&bytes_);
  WriteFileBytes(path_, bytes_);
  ExpectOpenFailsNaming(Status::Code::kCorruption, "id.a.entries");
}

TEST_F(CompressedBundleCorruptionTest, VarintOverrunPastSectionEndIsClean) {
  // Force the delta-varint decoder over a stream that runs out of bytes
  // mid-sequence: tag an encoded section as delta-varint and zero its
  // payload — every 0x00 byte is one whole varint, and the bit-packed
  // stream is far shorter than one byte per decoded value, so the decoder
  // exhausts the section before producing its values. It must stop at the
  // section end with a clean named Status, not read on.
  const SectionLoc entries = FindSection(bytes_, "id.a.entries");
  ASSERT_TRUE(entries.found);
  ASSERT_NE(entries.codec, 0u);
  ASSERT_LT(entries.stored_length, entries.decoded_length / 4)
      << "stream not shorter than one byte per value; craft impossible";
  const uint32_t delta_varint = 1;
  std::memcpy(bytes_.data() + entries.record_off + 48, &delta_varint, 4);
  std::memset(bytes_.data() + entries.offset, 0, entries.stored_length);
  ResignRecord(&bytes_, entries.record_off);
  WriteFileBytes(path_, bytes_);
  ExpectOpenFailsNaming(Status::Code::kCorruption, "id.a.entries");
}

TEST_F(CompressedBundleCorruptionTest, RawLengthDisagreementIsCorruption) {
  // A record claiming raw but with stored != decoded is structurally
  // impossible; find a raw record and bump only its decoded length.
  uint32_t count = 0;
  std::memcpy(&count, bytes_.data() + 12, sizeof(count));
  std::size_t raw_rec = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const SectionLoc loc =
        ReadRecord(bytes_, kTocStart + std::size_t{i} * kRecordBytes);
    if (loc.codec == 0 && loc.stored_length > 0) {
      raw_rec = loc.record_off;
      break;
    }
  }
  ASSERT_NE(raw_rec, 0u);
  const SectionLoc loc = ReadRecord(bytes_, raw_rec);
  const uint64_t grown = loc.decoded_length + 8;
  std::memcpy(bytes_.data() + raw_rec + 32, &grown, 8);
  FixMetaChecksum(&bytes_);
  WriteFileBytes(path_, bytes_);
  ExpectOpenFailsNaming(Status::Code::kCorruption,
                        SectionNameAt(bytes_, raw_rec));
}

TEST_F(CompressedBundleCorruptionTest, ImplausibleDecodedLengthIsCorruption) {
  // A crafted TOC demanding a gigantic decode pool must be rejected by the
  // plausibility cap before any allocation is attempted.
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(bytes_.data() + encoded_.record_off + 32, &huge, 8);
  FixMetaChecksum(&bytes_);
  WriteFileBytes(path_, bytes_);
  ExpectOpenFailsNaming(Status::Code::kCorruption, name_);
}

// A re-signed entry that points a level-τ list at a vertex which does not
// own level τ must be rejected: the query BFS reads the target's level-τ
// slice unchecked, trusting exactly this invariant.
TEST(BundleCraftedEntryTest, EntryTargetWithoutLevelIsCorruption) {
  const std::string path =
      ::testing::TempDir() + "/abcs_bundle_crafted_entry.abcs";
  // Figure 2: the 4×4 complete core has vertices with ≥ 2 levels, the
  // chain vertices have exactly 1 — both populations guaranteed.
  const BipartiteGraph g = testing::PaperFigure2Graph(20);
  const BicoreDecomposition decomp = ComputeBicoreDecomposition(g);
  const DeltaIndex delta = DeltaIndex::Build(g, &decomp);
  const BicoreIndex bicore = BicoreIndex::Build(g, &decomp);
  ASSERT_TRUE(SaveIndexBundle(g, decomp, delta, bicore, path).ok());
  std::string bytes = ReadFileBytes(path);

  const SectionLoc tbase = FindSection(bytes, "id.a.tbase");
  const SectionLoc lstart = FindSection(bytes, "id.a.lstart");
  const SectionLoc entries = FindSection(bytes, "id.a.entries");
  ASSERT_TRUE(tbase.found && lstart.found && entries.found);
  const uint32_t n = ReadU32(bytes, 16) + ReadU32(bytes, 20);
  auto tb = [&](uint32_t v) {
    return ReadU32(bytes, tbase.offset + std::size_t{v} * 4);
  };
  auto levels = [&](uint32_t v) { return tb(v + 1) - tb(v) - 1; };
  // A victim vertex owning level 2 with a non-empty level-2 list, and a
  // target vertex that does not own level 2.
  uint32_t victim = n, target = n;
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t ls_lo =
        ReadU32(bytes, lstart.offset + (std::size_t{tb(v)} + 1) * 4);
    const uint32_t ls_hi =
        ReadU32(bytes, lstart.offset + (std::size_t{tb(v)} + 2) * 4);
    if (victim == n && levels(v) >= 2 && ls_hi > ls_lo) victim = v;
    if (target == n && levels(v) < 2) target = v;
  }
  ASSERT_LT(victim, n);
  ASSERT_LT(target, n);
  const uint32_t entry_idx =
      ReadU32(bytes, lstart.offset + (std::size_t{tb(victim)} + 1) * 4);
  // Entry layout: u32 to, u32 eid, u32 offset (12 bytes).
  WriteU32(&bytes, entries.offset + std::size_t{entry_idx} * 12, target);
  ResignSection(&bytes, "id.a.entries");
  WriteFileBytes(path, bytes);

  std::unique_ptr<IndexBundle> bundle;
  EXPECT_EQ(OpenIndexBundle(path, &bundle).code(),
            Status::Code::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace abcs
