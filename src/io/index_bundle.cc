#include "io/index_bundle.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <type_traits>

#include "common/fnv.h"
#include "core/index_io.h"
#include "io/fault_inject.h"

namespace abcs {

namespace {

// "ABCSPAK2": the versioned multi-section container. v2 added per-section codec tags and
// encoded/decoded lengths to the TOC; v1 files (all-raw 40-byte records)
// remain readable on the same verified-mmap fast path. The trailing magic
// character tracks the header's version field — readers check both agree.
constexpr char kMagicV1[8] = {'A', 'B', 'C', 'S', 'P', 'A', 'K', '1'};
constexpr char kMagicV2[8] = {'A', 'B', 'C', 'S', 'P', 'A', 'K', '2'};
constexpr uint32_t kFormatVersionV1 = 1;
constexpr uint32_t kFormatVersionV2 = 2;
constexpr uint64_t kAlign = 8;     ///< section payload alignment
constexpr uint32_t kMaxSections = 64;
constexpr uint64_t kAnyCount = ~0ull;
constexpr std::size_t kMagicBytes = sizeof(kMagicV2);

static_assert(std::endian::native == std::endian::little,
              "ABCSPAK bundles are little-endian; big-endian hosts would "
              "need byte-swapping shims");

/// Fixed-size header right after the magic. POD, written verbatim.
struct BundleHeader {
  uint32_t version = 0;
  uint32_t section_count = 0;
  uint32_t num_upper = 0;
  uint32_t num_lower = 0;
  uint32_t num_edges = 0;
  uint32_t delta = 0;
  uint64_t topology_checksum = 0;  ///< GraphTopologyChecksum of the graph
  uint64_t weight_digest = 0;      ///< GraphWeightChecksum of the graph
  uint64_t meta_checksum = 0;      ///< BundleChecksum(header w/ this 0 ‖ TOC)
};
static_assert(sizeof(BundleHeader) == 48);
static_assert(std::is_trivially_copyable_v<BundleHeader>);

/// One v1 TOC entry: a named byte range plus a content checksum. All v1
/// sections are raw.
struct SectionRecordV1 {
  char name[16] = {};
  uint64_t offset = 0;    ///< absolute file offset, kAlign-aligned
  uint64_t length = 0;    ///< payload bytes (excludes padding)
  uint64_t checksum = 0;  ///< BundleChecksum of the payload
};
static_assert(sizeof(SectionRecordV1) == 40);
static_assert(std::is_trivially_copyable_v<SectionRecordV1>);

/// One v2 TOC entry: the byte range now carries the *stored* (possibly
/// encoded) length, the codec tag, and the decoded length — the checksum
/// covers the stored bytes, so corruption is caught before decode.
struct SectionRecordV2 {
  char name[16] = {};
  uint64_t offset = 0;          ///< absolute file offset, kAlign-aligned
  uint64_t stored_length = 0;   ///< bytes on disk (excludes padding)
  uint64_t decoded_length = 0;  ///< bytes after decode (== stored for raw)
  uint64_t checksum = 0;        ///< BundleChecksum of the stored bytes
  uint32_t codec = 0;           ///< SectionCodec tag
  uint32_t reserved = 0;        ///< must be 0
};
static_assert(sizeof(SectionRecordV2) == 56);
static_assert(std::is_trivially_copyable_v<SectionRecordV2>);

/// A TOC record normalised across format versions, plus the pooled decode
/// destination assigned to encoded sections.
struct SectionMeta {
  char name[16] = {};
  uint64_t offset = 0;
  uint64_t stored_length = 0;
  uint64_t decoded_length = 0;
  uint64_t checksum = 0;
  SectionCodec codec = SectionCodec::kRaw;
  std::byte* decode_dst = nullptr;  ///< pool slice; null for raw sections
};

/// `name` fields are NUL-padded but a crafted file can fill all 16 bytes;
/// never assume termination when building a diagnostic.
std::string SectionName(const char (&name)[16]) {
  return std::string(name, strnlen(name, sizeof(name)));
}

constexpr uint64_t AlignUp(uint64_t x) {
  return (x + kAlign - 1) & ~(kAlign - 1);
}

/// Shared context of the per-section mapping steps on open.
struct OpenCtx {
  const std::byte* base = nullptr;
  uint64_t file_size = 0;
  std::vector<SectionMeta> toc;
  const std::string* path = nullptr;
  bool verify = true;

  Status Corrupt(const std::string& what) const {
    return Status::Corruption(*path + ": " + what);
  }
};

/// Locates section `name` and wires `*out` as a borrowed span over its
/// payload: raw sections view the backing bytes in place; encoded sections
/// decode once into their pre-assigned pool slice and the span views that.
/// `expect_count` pins the element count (kAnyCount skips; the caller then
/// validates against sibling sections). Byte ranges were bounds-checked
/// against the file when the TOC was parsed, so neither the checksum scan
/// nor the decoder can read past the backing region.
template <typename T>
Status MapSection(const OpenCtx& ctx, const char* name, uint64_t expect_count,
                  ArenaStorage<T>* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(alignof(T) <= kAlign);
  const SectionMeta* rec = nullptr;
  for (const SectionMeta& r : ctx.toc) {
    if (std::strncmp(r.name, name, sizeof(r.name)) == 0) {
      rec = &r;
      break;
    }
  }
  if (rec == nullptr) {
    return ctx.Corrupt(std::string("missing section ") + name);
  }
  if (rec->decoded_length % sizeof(T) != 0) {
    return ctx.Corrupt(std::string("section ") + name +
                       " is not a whole number of elements");
  }
  const uint64_t count = rec->decoded_length / sizeof(T);
  if (expect_count != kAnyCount && count != expect_count) {
    return ctx.Corrupt(std::string("section ") + name +
                       " has the wrong element count");
  }
  // The content checksum always covers the stored bytes: for an encoded
  // section a flipped disk byte is rejected here, before the decoder ever
  // sees the stream.
  if (ctx.verify && BundleChecksum(ctx.base + rec->offset,
                                   rec->stored_length) != rec->checksum) {
    return ctx.Corrupt(std::string("checksum mismatch in section ") + name);
  }
  if (rec->codec == SectionCodec::kRaw) {
    *out = ArenaStorage<T>::Borrowed(
        reinterpret_cast<const T*>(ctx.base + rec->offset), count);
    return Status::OK();
  }
  if constexpr (sizeof(T) % 4 != 0) {
    return ctx.Corrupt(std::string("section ") + name +
                       " cannot carry a codec (element size not a multiple "
                       "of 4)");
  } else {
    const Status st = DecodeU32Section(
        rec->codec, ctx.base + rec->offset, rec->stored_length,
        sizeof(T) / 4, rec->decode_dst, rec->decoded_length);
    if (!st.ok()) {
      return ctx.Corrupt(std::string("section ") + name + " (" +
                         SectionCodecName(rec->codec) +
                         "): " + std::string(st.message()));
    }
    *out = ArenaStorage<T>::Borrowed(
        reinterpret_cast<const T*>(rec->decode_dst), count);
    return Status::OK();
  }
}

/// `start`-style arrays must begin at 0 and be non-decreasing for the
/// slice arithmetic (and the spans derived from it) to stay in bounds.
Status CheckStartArray(const OpenCtx& ctx, const char* name,
                       const ArenaStorage<uint32_t>& start) {
  if (start.empty() || start[0] != 0) {
    return ctx.Corrupt(std::string(name) + " does not start at 0");
  }
  for (std::size_t i = 1; i < start.size(); ++i) {
    if (start[i] < start[i - 1]) {
      return ctx.Corrupt(std::string(name) + " is not non-decreasing");
    }
  }
  return Status::OK();
}

}  // namespace

uint64_t BundleChecksum(const void* data, std::size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  Fnv1a64 fnv;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    fnv.Mix(w);
  }
  if (i < size) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, size - i);
    fnv.Mix(w);
  }
  fnv.Mix(size);  // zero-padded tail ≠ genuinely longer zero run
  return fnv.h;
}

const char* BundleCompressionName(BundleCompression level) {
  switch (level) {
    case BundleCompression::kNone:
      return "none";
    case BundleCompression::kFast:
      return "fast";
    case BundleCompression::kMax:
      return "max";
  }
  return "compression-?";
}

/// Private-member bridge: the one type befriended by BipartiteGraph,
/// DeltaIndex and BicoreIndex, so (de)serialisation code can reach their
/// arenas without widening any public API.
struct BundleAccess {
  static Status Save(const BipartiteGraph& g, const BicoreDecomposition& d,
                     const DeltaIndex& di, const BicoreIndex& bi,
                     const std::string& path, const SaveBundleOptions& opts);
  static Status Open(const std::string& path, const BundleOpenOptions& opts,
                     IndexBundle* b);
  static bool ZeroCopy(const IndexBundle& b);

  /// The one enumeration of every persisted array, visited as
  /// (section name, ArenaStorage). Save and ZeroCopy both consume it, so
  /// a future section cannot be serialised yet silently dropped from the
  /// zero-copy assertion (Open's per-section validation stays bespoke —
  /// each section's count derives from its siblings).
  template <typename Fn>
  static void ForEachSection(const BipartiteGraph& g,
                             const BicoreDecomposition& d,
                             const DeltaIndex& di, const BicoreIndex& bi,
                             Fn&& fn) {
    fn("g.offsets", g.offsets_);
    fn("g.arcs", g.arcs_);
    fn("g.edges", g.edges_);
    fn("dc.a.start", d.alpha.start);
    fn("dc.a.values", d.alpha.values);
    fn("dc.b.start", d.beta.start);
    fn("dc.b.values", d.beta.values);
    fn("id.a.tbase", di.alpha_half_.table_base);
    fn("id.a.lstart", di.alpha_half_.level_start);
    fn("id.a.selfoff", di.alpha_half_.self_offset);
    fn("id.a.entries", di.alpha_half_.entries);
    fn("id.b.tbase", di.beta_half_.table_base);
    fn("id.b.lstart", di.beta_half_.level_start);
    fn("id.b.selfoff", di.beta_half_.self_offset);
    fn("id.b.entries", di.beta_half_.entries);
    fn("iv.a.start", bi.alpha_side_.start);
    fn("iv.a.entries", bi.alpha_side_.entries);
    fn("iv.b.start", bi.beta_side_.start);
    fn("iv.b.entries", bi.beta_side_.entries);
  }

  // Header digests retained on the bundle for VerifyBundleMatchesGraph.
  static uint64_t Topology(const IndexBundle& b) {
    return b.topology_checksum_;
  }
  static uint64_t Weights(const IndexBundle& b) { return b.weight_digest_; }
};

namespace {

/// Loops ::write until `bytes` are on the fd. `point` labels the write for
/// the short-write fault seam: an armed fault truncates the write to its
/// byte budget and kills the process, modelling a torn write + crash.
Status WriteFully(int fd, const void* data, uint64_t bytes,
                  const char* point) {
  const uint64_t budget = FaultWriteBudget(point, bytes);
  const char* p = static_cast<const char*>(data);
  uint64_t done = 0;
  while (done < budget) {
    const ssize_t n = ::write(fd, p + done, budget - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write failed: ") +
                             std::strerror(errno));
    }
    done += static_cast<uint64_t>(n);
  }
  if (budget < bytes) FaultInjector::Instance().CrashNow();
  return Status::OK();
}

/// fsyncs the directory containing `path` so a following crash cannot
/// lose the rename itself. Best-effort on filesystems without dirsync.
void SyncParentDir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).has_parent_path()
          ? std::filesystem::path(path).parent_path()
          : std::filesystem::path(".");
  const int dfd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

Status BundleAccess::Save(const BipartiteGraph& g,
                          const BicoreDecomposition& d, const DeltaIndex& di,
                          const BicoreIndex& bi, const std::string& path,
                          const SaveBundleOptions& opts) {
  if (di.delta() != d.delta || bi.delta() != d.delta ||
      d.NumVertices() != g.NumVertices()) {
    return Status::InvalidArgument(
        "bundle parts disagree (index/decomposition not built from this "
        "graph?)");
  }

  struct Sec {
    const char* name;
    const void* data;
    uint64_t bytes;      ///< decoded (in-memory) size
    uint32_t lanes;      ///< u32 columns per element; 0 → never encode
    SectionCodec codec = SectionCodec::kRaw;
    std::vector<std::byte> encoded = {};  ///< stored bytes when codec != kRaw
  };
  std::vector<Sec> secs;
  ForEachSection(g, d, di, bi, [&secs](const char* name, const auto& arr) {
    using T = typename std::decay_t<decltype(arr)>::value_type;
    constexpr uint32_t lanes = sizeof(T) % 4 == 0 ? sizeof(T) / 4 : 0;
    secs.push_back(Sec{name, arr.data(), arr.SizeBytes(), lanes});
  });

  // Compression policy: for each candidate codec of the requested level,
  // measure the actual encoded size and keep the smallest — but only when
  // the win is real (≥ raw/8 saved). Tiny sections and losing codecs stay
  // raw, so a compressed save can never produce a larger bundle.
  if (opts.compression != BundleCompression::kNone) {
    std::vector<SectionCodec> candidates = {SectionCodec::kBitPack};
    if (opts.compression == BundleCompression::kMax) {
      candidates.push_back(SectionCodec::kDeltaVarint);
    }
    for (Sec& sec : secs) {
      if (sec.lanes == 0 || sec.bytes < 64) continue;
      std::vector<std::byte> trial;
      for (const SectionCodec codec : candidates) {
        const Status st =
            EncodeU32Section(codec, sec.data, sec.bytes, sec.lanes, &trial);
        if (!st.ok()) continue;  // shape mismatch: leave the section raw
        const uint64_t best =
            sec.codec == SectionCodec::kRaw ? sec.bytes : sec.encoded.size();
        if (trial.size() <= sec.bytes - sec.bytes / 8 &&
            trial.size() < best) {
          sec.codec = codec;
          sec.encoded = std::move(trial);
          trial = {};
        }
      }
    }
  }

  const auto stored_bytes = [](const Sec& sec) {
    return sec.codec == SectionCodec::kRaw ? sec.bytes
                                           : uint64_t{sec.encoded.size()};
  };
  const auto stored_data = [](const Sec& sec) {
    return sec.codec == SectionCodec::kRaw
               ? sec.data
               : static_cast<const void*>(sec.encoded.data());
  };

  const uint32_t count = static_cast<uint32_t>(secs.size());
  std::vector<SectionRecordV2> toc(count);
  uint64_t cursor =
      kMagicBytes + sizeof(BundleHeader) + count * sizeof(SectionRecordV2);
  for (uint32_t i = 0; i < count; ++i) {
    SectionRecordV2& rec = toc[i];
    std::strncpy(rec.name, secs[i].name, sizeof(rec.name) - 1);
    rec.offset = cursor;
    rec.stored_length = stored_bytes(secs[i]);
    rec.decoded_length = secs[i].bytes;
    rec.checksum = BundleChecksum(stored_data(secs[i]), rec.stored_length);
    rec.codec = static_cast<uint32_t>(secs[i].codec);
    cursor += AlignUp(rec.stored_length);
  }

  BundleHeader hdr;
  hdr.version = kFormatVersionV2;
  hdr.section_count = count;
  hdr.num_upper = g.NumUpper();
  hdr.num_lower = g.NumLower();
  hdr.num_edges = g.NumEdges();
  hdr.delta = d.delta;
  hdr.topology_checksum = GraphTopologyChecksum(g);
  hdr.weight_digest = GraphWeightChecksum(g);
  {
    std::vector<unsigned char> meta(sizeof(hdr) +
                                    count * sizeof(SectionRecordV2));
    std::memcpy(meta.data(), &hdr, sizeof(hdr));
    std::memcpy(meta.data() + sizeof(hdr), toc.data(),
                count * sizeof(SectionRecordV2));
    hdr.meta_checksum = BundleChecksum(meta.data(), meta.size());
  }

  // Write-then-fsync-then-rename so a crash, torn write or full disk at
  // ANY instant leaves `path` either absent, the complete previous bundle
  // or the complete new one — never a torn hybrid. The named FaultPoint /
  // WriteFully seams below are the crash matrix the recovery test sweeps.
  const std::string tmp_path = path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        S_IRUSR | S_IWUSR | S_IRGRP | S_IROTH);
  if (fd < 0) {
    return Status::IOError("cannot open " + tmp_path + " for writing: " +
                           std::strerror(errno));
  }
  FaultPoint("bundle_save.open_tmp");
  const auto fail = [&](Status st) {
    ::close(fd);
    std::remove(tmp_path.c_str());
    return st;
  };
  {
    // Magic + header + TOC written as one buffer so a short meta write
    // models a torn header.
    std::vector<char> meta(kMagicBytes + sizeof(hdr) +
                           count * sizeof(SectionRecordV2));
    std::memcpy(meta.data(), kMagicV2, kMagicBytes);
    std::memcpy(meta.data() + kMagicBytes, &hdr, sizeof(hdr));
    std::memcpy(meta.data() + kMagicBytes + sizeof(hdr), toc.data(),
                count * sizeof(SectionRecordV2));
    Status st = WriteFully(fd, meta.data(), meta.size(), "bundle_save.meta");
    if (!st.ok()) return fail(std::move(st));
  }
  FaultPoint("bundle_save.after_meta");
  const char pad[kAlign] = {};
  for (const Sec& sec : secs) {
    const uint64_t bytes = stored_bytes(sec);
    if (bytes != 0) {
      Status st =
          WriteFully(fd, stored_data(sec), bytes, "bundle_save.sections");
      if (!st.ok()) return fail(std::move(st));
    }
    const uint64_t padding = AlignUp(bytes) - bytes;
    if (padding != 0) {
      Status st = WriteFully(fd, pad, padding, "bundle_save.sections");
      if (!st.ok()) return fail(std::move(st));
    }
  }
  FaultPoint("bundle_save.before_fsync");
  if (::fsync(fd) != 0) {
    return fail(Status::IOError("fsync failed: " + tmp_path + ": " +
                                std::strerror(errno)));
  }
  ::close(fd);
  FaultPoint("bundle_save.after_fsync");

  if (opts.keep_previous && std::filesystem::exists(path)) {
    // Rotate the current bundle to `path.prev` via a hard link: `path`
    // itself stays a complete bundle through every instant of the
    // rotation, and recovery gains a verified fallback should the main
    // file later be damaged in place.
    const std::string prev_path = path + ".prev";
    std::remove(prev_path.c_str());
    FaultPoint("bundle_save.prev_rotate");
    if (::link(path.c_str(), prev_path.c_str()) != 0 && errno != ENOENT) {
      // Cross-device or linkless filesystems: fall back to a copy; a
      // failure here only costs the fallback, never the save.
      std::error_code copy_ec;
      std::filesystem::copy_file(
          path, prev_path, std::filesystem::copy_options::overwrite_existing,
          copy_ec);
    }
  }

  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot move " + tmp_path + " over " + path +
                           ": " + ec.message());
  }
  FaultPoint("bundle_save.after_rename");
  SyncParentDir(path);
  return Status::OK();
}

Status BundleAccess::Open(const std::string& path,
                          const BundleOpenOptions& opts, IndexBundle* b) {
  b->mode_ = opts.mode;
  if (opts.mode == BundleOpenMode::kMmap) {
    const Status st = MappedFile::Open(path, &b->map_);
    if (st.code() == Status::Code::kNotSupported) {
      // Platforms without mmap fall back to the one-buffer read path —
      // same wiring, just eager bytes.
      b->mode_ = BundleOpenMode::kRead;
    } else if (!st.ok()) {
      return st;
    }
  }
  if (b->mode_ == BundleOpenMode::kMmap) {
    b->backing_ = b->map_.data();
    b->backing_size_ = b->map_.size();
  } else {
    // Pin down a regular file first: ifstream happily "opens" a directory
    // on some platforms and tellg() then reports a colossal bogus size —
    // resize() would abort on bad_alloc instead of returning a Status.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec)) {
      return Status::IOError("cannot open " + path + " (not a regular file)");
    }
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return Status::IOError("cannot open " + path);
    const std::streamoff size = in.tellg();
    if (size < 0) return Status::IOError("cannot size " + path);
    in.seekg(0);
    b->buffer_.resize(static_cast<std::size_t>(size));
    if (size > 0) {
      in.read(reinterpret_cast<char*>(b->buffer_.data()), size);
    }
    if (!in) return Status::IOError("short read: " + path);
    b->backing_ = b->buffer_.data();
    b->backing_size_ = b->buffer_.size();
  }

  OpenCtx ctx;
  ctx.base = b->backing_;
  ctx.file_size = b->backing_size_;
  ctx.path = &path;
  ctx.verify = opts.verify_checksums;

  if (ctx.file_size < kMagicBytes + sizeof(BundleHeader)) {
    return ctx.Corrupt("truncated header");
  }
  uint32_t magic_version = 0;
  if (std::memcmp(ctx.base, kMagicV2, kMagicBytes) == 0) {
    magic_version = kFormatVersionV2;
  } else if (std::memcmp(ctx.base, kMagicV1, kMagicBytes) == 0) {
    magic_version = kFormatVersionV1;
  } else {
    return ctx.Corrupt("bad magic (not an ABCSPAK bundle)");
  }
  BundleHeader hdr;
  std::memcpy(&hdr, ctx.base + kMagicBytes, sizeof(hdr));
  if (hdr.version != magic_version) {
    return ctx.Corrupt("unsupported format version " +
                       std::to_string(hdr.version) +
                       " (magic and header disagree)");
  }
  if (hdr.section_count == 0 || hdr.section_count > kMaxSections) {
    return ctx.Corrupt("implausible section count");
  }
  const uint64_t record_bytes = hdr.version == kFormatVersionV1
                                    ? sizeof(SectionRecordV1)
                                    : sizeof(SectionRecordV2);
  const uint64_t toc_end = kMagicBytes + sizeof(BundleHeader) +
                           uint64_t{hdr.section_count} * record_bytes;
  if (toc_end > ctx.file_size) return ctx.Corrupt("truncated TOC");

  // The meta checksum covers the header (with its own field zeroed) and
  // the TOC, so a flipped byte anywhere in the metadata — including a
  // tampered section range or codec tag — is caught before any range is
  // trusted.
  {
    std::vector<unsigned char> meta(toc_end - kMagicBytes);
    std::memcpy(meta.data(), ctx.base + kMagicBytes, meta.size());
    BundleHeader zeroed = hdr;
    zeroed.meta_checksum = 0;
    std::memcpy(meta.data(), &zeroed, sizeof(zeroed));
    if (BundleChecksum(meta.data(), meta.size()) != hdr.meta_checksum) {
      return ctx.Corrupt("header/TOC checksum mismatch");
    }
  }

  // Normalise both TOC layouts into SectionMeta (a v1 record is a raw
  // section whose stored and decoded lengths coincide).
  ctx.toc.resize(hdr.section_count);
  const std::byte* toc_base = ctx.base + kMagicBytes + sizeof(BundleHeader);
  for (uint32_t i = 0; i < hdr.section_count; ++i) {
    SectionMeta& meta = ctx.toc[i];
    if (hdr.version == kFormatVersionV1) {
      SectionRecordV1 rec;
      std::memcpy(&rec, toc_base + i * sizeof(rec), sizeof(rec));
      std::memcpy(meta.name, rec.name, sizeof(meta.name));
      meta.offset = rec.offset;
      meta.stored_length = rec.length;
      meta.decoded_length = rec.length;
      meta.checksum = rec.checksum;
      meta.codec = SectionCodec::kRaw;
    } else {
      SectionRecordV2 rec;
      std::memcpy(&rec, toc_base + i * sizeof(rec), sizeof(rec));
      std::memcpy(meta.name, rec.name, sizeof(meta.name));
      meta.offset = rec.offset;
      meta.stored_length = rec.stored_length;
      meta.decoded_length = rec.decoded_length;
      meta.checksum = rec.checksum;
      if (rec.codec >= kNumSectionCodecs || rec.reserved != 0) {
        return ctx.Corrupt("section " + SectionName(rec.name) +
                           " claims an unknown codec tag " +
                           std::to_string(rec.codec));
      }
      meta.codec = static_cast<SectionCodec>(rec.codec);
      if (meta.codec == SectionCodec::kRaw &&
          meta.stored_length != meta.decoded_length) {
        return ctx.Corrupt("section " + SectionName(rec.name) +
                           " is raw but its stored and decoded lengths "
                           "disagree");
      }
      // An encoded stream cannot legitimately expand by more than the
      // worst-case codec blowup; an absurd decoded length in a crafted
      // TOC must not be able to demand an arbitrarily large pool.
      if (meta.decoded_length > meta.stored_length * 64 + 1024) {
        return ctx.Corrupt("section " + SectionName(rec.name) +
                           " claims an implausible decoded length");
      }
    }
    // Byte-range sanity before anything is mapped: a section must lie
    // after the TOC and inside the file (overflow-safe).
    if (meta.offset % kAlign != 0) {
      return ctx.Corrupt("section " + SectionName(meta.name) +
                         " has a misaligned payload");
    }
    if (meta.offset < toc_end || meta.offset > ctx.file_size ||
        meta.stored_length > ctx.file_size - meta.offset) {
      return ctx.Corrupt("section " + SectionName(meta.name) +
                         " range outside file (TOC overrun)");
    }
  }

  // One pooled arena for every encoded section: sized once from the TOC's
  // decoded lengths, u64-backed so each AlignUp slice is 8-aligned, then
  // handed out as decode destinations — no per-section mallocs.
  uint64_t pool_bytes = 0;
  for (const SectionMeta& meta : ctx.toc) {
    if (meta.codec != SectionCodec::kRaw) {
      pool_bytes += AlignUp(meta.decoded_length);
    }
  }
  b->format_version_ = hdr.version;
  b->pool_.assign(pool_bytes / sizeof(uint64_t), 0);
  {
    std::byte* slice = reinterpret_cast<std::byte*>(b->pool_.data());
    b->sections_.clear();
    b->sections_.reserve(ctx.toc.size());
    for (SectionMeta& meta : ctx.toc) {
      if (meta.codec != SectionCodec::kRaw) {
        meta.decode_dst = slice;
        slice += AlignUp(meta.decoded_length);
      }
      b->sections_.push_back(BundleSectionInfo{SectionName(meta.name),
                                               meta.codec, meta.stored_length,
                                               meta.decoded_length});
    }
  }

  const uint64_t n64 = uint64_t{hdr.num_upper} + hdr.num_lower;
  if (n64 > std::numeric_limits<uint32_t>::max()) {
    return ctx.Corrupt("vertex count overflow");
  }
  const uint64_t n = n64;
  const uint64_t m = hdr.num_edges;

  // --- graph -----------------------------------------------------------
  BipartiteGraph& g = b->graph_;
  g.num_upper_ = hdr.num_upper;
  g.num_lower_ = hdr.num_lower;
  ABCS_RETURN_NOT_OK(MapSection(ctx, "g.offsets", n + 1, &g.offsets_));
  ABCS_RETURN_NOT_OK(MapSection(ctx, "g.arcs", 2 * m, &g.arcs_));
  ABCS_RETURN_NOT_OK(MapSection(ctx, "g.edges", m, &g.edges_));
  ABCS_RETURN_NOT_OK(CheckStartArray(ctx, "g.offsets", g.offsets_));
  if (g.offsets_.back() != 2 * m) {
    return ctx.Corrupt("CSR offsets do not cover the arc array");
  }
  if (ctx.verify) {
    for (const Arc& a : g.arcs_) {
      if (a.to >= n || a.eid >= m) {
        return ctx.Corrupt("arc endpoint out of range");
      }
    }
    for (const Edge& e : g.edges_) {
      if (e.u >= hdr.num_upper || e.v < hdr.num_upper || e.v >= n) {
        return ctx.Corrupt("edge endpoint out of range");
      }
    }
    if (GraphTopologyChecksum(g) != hdr.topology_checksum) {
      return ctx.Corrupt("edge payload does not match header topology "
                         "checksum");
    }
    if (GraphWeightChecksum(g) != hdr.weight_digest) {
      return ctx.Corrupt("weights do not match the header weight digest "
                         "(stale significances?)");
    }
  }
  b->topology_checksum_ = hdr.topology_checksum;
  b->weight_digest_ = hdr.weight_digest;

  // --- decomposition ---------------------------------------------------
  BicoreDecomposition& d = b->decomp_;
  d.delta = hdr.delta;
  struct ArenaSec {
    const char* start_name;
    const char* values_name;
    OffsetArena* arena;
  };
  for (const ArenaSec& as :
       {ArenaSec{"dc.a.start", "dc.a.values", &d.alpha},
        ArenaSec{"dc.b.start", "dc.b.values", &d.beta}}) {
    ABCS_RETURN_NOT_OK(MapSection(ctx, as.start_name, n + 1,
                                  &as.arena->start));
    ABCS_RETURN_NOT_OK(CheckStartArray(ctx, as.start_name, as.arena->start));
    // No vertex can own more than δ offset levels; consumers size their
    // dense tables by δ and trust it (DynamicDeltaIndex seeds its per-τ
    // rows from these slices), so an oversized slice must die here.
    for (uint64_t v = 0; v < n; ++v) {
      if (as.arena->start[v + 1] - as.arena->start[v] > hdr.delta) {
        return ctx.Corrupt(std::string(as.start_name) +
                           " has a slice longer than delta");
      }
    }
    ABCS_RETURN_NOT_OK(MapSection(ctx, as.values_name,
                                  as.arena->start.back(),
                                  &as.arena->values));
  }

  // --- I_δ -------------------------------------------------------------
  DeltaIndex& di = b->delta_index_;
  di.graph_ = &b->graph_;
  di.delta_ = hdr.delta;
  struct HalfSec {
    const char* tbase;
    const char* lstart;
    const char* selfoff;
    const char* entries;
    DeltaIndex::Half* half;
  };
  for (const HalfSec& hs :
       {HalfSec{"id.a.tbase", "id.a.lstart", "id.a.selfoff", "id.a.entries",
                &di.alpha_half_},
        HalfSec{"id.b.tbase", "id.b.lstart", "id.b.selfoff", "id.b.entries",
                &di.beta_half_}}) {
    ABCS_RETURN_NOT_OK(MapSection(ctx, hs.tbase, n + 1, &hs.half->table_base));
    const ArenaStorage<uint32_t>& tb = hs.half->table_base;
    // Every vertex owns NumLevels(v)+1 ≥ 1 level-table slots, so the base
    // table must be *strictly* increasing: a zero-width slot would make
    // NumLevels underflow and send self_offset/level_start lookups far
    // outside the mapping.
    if (tb[0] != 0) {
      return ctx.Corrupt(std::string(hs.tbase) + " does not start at 0");
    }
    for (uint64_t v = 0; v < n; ++v) {
      if (tb[v + 1] <= tb[v]) {
        return ctx.Corrupt(std::string(hs.tbase) +
                           " has a zero-width vertex slot");
      }
    }
    const uint64_t table_slots = tb.back();
    ABCS_RETURN_NOT_OK(MapSection(ctx, hs.lstart, table_slots,
                                  &hs.half->level_start));
    ABCS_RETURN_NOT_OK(MapSection(ctx, hs.selfoff, table_slots - n,
                                  &hs.half->self_offset));
    ABCS_RETURN_NOT_OK(MapSection(ctx, hs.entries, kAnyCount,
                                  &hs.half->entries));
    // Queries index entries[level_start[i] .. level_start[i+1]); every
    // bound must stay inside the entry arena or a BFS could walk off the
    // mapping.
    const ArenaStorage<uint32_t>& ls = hs.half->level_start;
    if (table_slots != 0 && ls.back() != hs.half->entries.size()) {
      return ctx.Corrupt(std::string(hs.entries) +
                         " does not end at the last level bound");
    }
    // Monotone bounds (with the back()==size check above this pins every
    // slice inside the entry arena). Unconditional — it is an array-shape
    // check, a tiny fraction of the payload scan verify_checksums gates,
    // and the one that keeps a query's slice arithmetic inside the map.
    for (std::size_t i = 1; i < ls.size(); ++i) {
      if (ls[i] < ls[i - 1]) {
        return ctx.Corrupt(std::string(hs.lstart) +
                           " level bounds are not non-decreasing");
      }
    }
    if (ctx.verify) {
      // Every entry in a level-τ list must reference a vertex that
      // *owns* level τ: the query BFS hops to entry.to and reads its
      // level-τ slice unchecked (construction guarantees this; a crafted
      // bundle must not be able to break it).
      for (uint64_t v = 0; v < n; ++v) {
        const uint32_t levels = tb[v + 1] - tb[v] - 1;
        for (uint32_t tau = 1; tau <= levels; ++tau) {
          const uint32_t table = tb[v] + tau - 1;
          for (uint32_t i = ls[table]; i < ls[table + 1]; ++i) {
            const DeltaIndex::Entry& e = hs.half->entries[i];
            if (e.to >= n || e.eid >= m) {
              return ctx.Corrupt(std::string(hs.entries) +
                                 " references a vertex or edge out of range");
            }
            if (tb[e.to + 1] - tb[e.to] - 1 < tau) {
              return ctx.Corrupt(std::string(hs.entries) +
                                 " references a vertex without that level");
            }
          }
        }
      }
    }
  }

  // --- I_v -------------------------------------------------------------
  BicoreIndex& bi = b->bicore_index_;
  bi.graph_ = &b->graph_;
  bi.delta_ = hdr.delta;
  struct SideSec {
    const char* start_name;
    const char* entries_name;
    BicoreIndex::SideArena* side;
  };
  for (const SideSec& ss :
       {SideSec{"iv.a.start", "iv.a.entries", &bi.alpha_side_},
        SideSec{"iv.b.start", "iv.b.entries", &bi.beta_side_}}) {
    ABCS_RETURN_NOT_OK(MapSection(ctx, ss.start_name,
                                  uint64_t{hdr.delta} + 1, &ss.side->start));
    ABCS_RETURN_NOT_OK(CheckStartArray(ctx, ss.start_name, ss.side->start));
    ABCS_RETURN_NOT_OK(MapSection(ctx, ss.entries_name, ss.side->start.back(),
                                  &ss.side->entries));
    if (ctx.verify) {
      for (const BicoreIndex::Entry& e : ss.side->entries) {
        if (e.v >= n) {
          return ctx.Corrupt(std::string(ss.entries_name) +
                             " references a vertex out of range");
        }
      }
    }
  }

  return Status::OK();
}

bool BundleAccess::ZeroCopy(const IndexBundle& b) {
  const std::byte* lo = b.backing_;
  const std::byte* hi = b.backing_ + b.backing_size_;
  bool all = true;
  ForEachSection(b.graph_, b.decomp_, b.delta_index_, b.bicore_index_,
                 [&](const char*, const auto& arr) {
                   if (!arr.borrowed()) {
                     all = false;
                     return;
                   }
                   if (arr.empty()) return;  // empty spans carry no payload
                   const std::byte* p =
                       reinterpret_cast<const std::byte*>(arr.data());
                   all = all && p >= lo && p + arr.SizeBytes() <= hi;
                 });
  return all;
}

bool IndexBundle::ZeroCopy() const { return BundleAccess::ZeroCopy(*this); }

Status SaveIndexBundle(const BipartiteGraph& g,
                       const BicoreDecomposition& decomp,
                       const DeltaIndex& delta, const BicoreIndex& bicore,
                       const std::string& path,
                       const SaveBundleOptions& options) {
  return BundleAccess::Save(g, decomp, delta, bicore, path, options);
}

const std::vector<const char*>& BundleSaveFaultPoints() {
  // Every FaultPoint() in BundleAccess::Save, in program order. The
  // crash-matrix test sweeps each one (plus short writes at the two
  // WriteFully labels) and asserts recovery.
  static const std::vector<const char*> kPoints = {
      "bundle_save.open_tmp",     "bundle_save.after_meta",
      "bundle_save.before_fsync", "bundle_save.after_fsync",
      "bundle_save.prev_rotate",  "bundle_save.after_rename",
  };
  return kPoints;
}

Status OpenBundleWithFallback(const std::string& path,
                              std::unique_ptr<IndexBundle>* out,
                              const BundleOpenOptions& options,
                              std::string* diagnostic) {
  const Status primary = OpenIndexBundle(path, out, options);
  if (primary.ok()) return primary;
  // Only a damaged-but-present bundle triggers the fallback; a plain
  // missing file is an honest answer the caller should see as-is.
  const std::string prev_path = path + ".prev";
  if (!std::filesystem::exists(prev_path)) return primary;
  const Status fallback = OpenIndexBundle(prev_path, out, options);
  if (!fallback.ok()) {
    return Status::Corruption("bundle " + path + " unusable (" +
                              primary.message() + ") and fallback " +
                              prev_path + " unusable (" + fallback.message() +
                              ")");
  }
  if (diagnostic != nullptr) {
    *diagnostic = "bundle " + path + " unusable (" + primary.message() +
                  "); recovered from previous epoch " + prev_path;
  }
  return Status::OK();
}

Status OpenIndexBundle(const std::string& path,
                       std::unique_ptr<IndexBundle>* out,
                       const BundleOpenOptions& options) {
  // The bundle is immovable (its indexes point at its graph member), so it
  // is built in place on the heap and only released to the caller once
  // every section is wired and verified.
  std::unique_ptr<IndexBundle> bundle(new IndexBundle());
  ABCS_RETURN_NOT_OK(BundleAccess::Open(path, options, bundle.get()));
  *out = std::move(bundle);
  return Status::OK();
}

Status VerifyBundleMatchesGraph(const IndexBundle& bundle,
                                const BipartiteGraph& g) {
  const BipartiteGraph& bg = bundle.graph();
  if (bg.NumUpper() != g.NumUpper() || bg.NumLower() != g.NumLower() ||
      bg.NumEdges() != g.NumEdges()) {
    return Status::Corruption("bundle was built for a different graph shape");
  }
  if (BundleAccess::Topology(bundle) != GraphTopologyChecksum(g)) {
    return Status::Corruption("bundle topology does not match this graph");
  }
  if (BundleAccess::Weights(bundle) != GraphWeightChecksum(g)) {
    return Status::Corruption(
        "bundle weights do not match this graph (stale significances — "
        "rebuild the bundle)");
  }
  return Status::OK();
}

}  // namespace abcs
