// Startup-latency benchmark: time-to-first-query of a cold index build vs
// reopening a persisted ABCSPAK2 bundle (read-mode open, mmap open —
// verified and unverified), at every compression level
// (none / fast / max). This is the restart story the bundle format exists
// for: the O(δ·m) construction cost is paid once at save time, and every
// process start afterwards is an O(file) open (or O(1) copies + lazy page
// faults for unverified mmap); compressed rows additionally report the
// encode cost, the raw-vs-compressed byte ratio and the decode-to-first-
// query time. Emits BENCH_load.json (rows keyed dataset × compression,
// with bundle_bytes / compression_ratio checked warn-only against the
// committed baseline) for the CI bench-smoke artifact.
//
// Usage: bench_load_startup [out.json]
// ABCS_BENCH_DATASETS / ABCS_BENCH_DATASET: registry names (default BS),
// or "XL" — the million-vertex synthetic graph shared with
// bench_query_throughput, where restart latency is the real regime.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/subgraph.h"
#include "io/index_bundle.h"

namespace {

double TimeBest(int reps, const auto& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    abcs::Timer timer;
    fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

// Million-vertex restart dataset (same spec as bench_query_throughput's
// bench-local XL; not in the Table I registry).
abcs::DatasetSpec XlSpec() {
  abcs::DatasetSpec spec;
  spec.name = "XL";
  spec.num_upper = 400000;
  spec.num_lower = 600000;
  spec.num_edges = 1500000;
  spec.skew_upper = 2.3;
  spec.skew_lower = 2.3;
  spec.weights = abcs::WeightModel::kUniform;
  spec.seed = 777;
  spec.paper_note = "synthetic startup-latency dataset (not in Table I)";
  return spec;
}

std::vector<abcs::DatasetSpec> SelectedDatasets() {
  const char* env = std::getenv("ABCS_BENCH_DATASETS");
  if (env == nullptr || *env == '\0') env = std::getenv("ABCS_BENCH_DATASET");
  const std::string list = (env == nullptr || *env == '\0') ? "BS" : env;
  std::vector<abcs::DatasetSpec> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string name =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (const abcs::DatasetSpec* spec = abcs::FindDataset(name)) {
      out.push_back(*spec);
    } else if (name == "XL") {
      out.push_back(XlSpec());
    } else if (!name.empty()) {
      std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
      std::exit(1);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

struct Row {
  std::string name;
  std::string compression;  ///< "none" / "fast" / "max"
  uint32_t n = 0, m = 0, delta = 0;
  std::size_t bundle_bytes = 0;
  double compression_ratio = 1.0;  ///< raw bundle bytes / this bundle bytes
  double save_seconds = 0;    ///< encode (at this level) + crash-safe write
  double cold_build_1t = 0;   ///< serial decomposition + I_δ + first query
  double cold_build_mt = 0;   ///< all-cores decomposition + I_δ + query
  double open_read = 0;       ///< bundle kRead open (+decode) + first query
  double open_mmap = 0;       ///< bundle kMmap open (+decode) + first query
  double open_mmap_unverified = 0;  ///< mmap open, checksums skipped
};

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_load.json";
  const std::vector<abcs::DatasetSpec> specs = SelectedDatasets();

  std::printf("%-5s %-5s %8s %8s %6s %9s %7s %9s %10s %10s %10s %8s\n",
              "name", "comp", "n", "m", "delta", "MB", "ratio", "save",
              "buildMT", "read", "mmap", "speedup");
  std::vector<Row> rows;
  for (const abcs::DatasetSpec& spec : specs) {
    const abcs::bench::PreparedDataset ds = abcs::bench::Prepare(spec);
    const abcs::BipartiteGraph& g = ds.graph;

    // Time-to-first-query probe: one typical-point community retrieval,
    // identical on every path (and checked identical below).
    const uint32_t ab = abcs::bench::ScaledParam(ds.delta(), 0.7);
    const std::vector<abcs::VertexId> qs =
        abcs::bench::SampleCoreVertices(ds, ab, ab, 1, 99);
    const abcs::VertexId q = qs.empty() ? 0 : qs[0];

    const abcs::DeltaIndex built = abcs::DeltaIndex::Build(g, &ds.decomp);
    const abcs::BicoreIndex bicore = abcs::BicoreIndex::Build(g, &ds.decomp);
    const std::vector<abcs::EdgeId> want =
        built.QueryCommunity(q, ab, ab).edges;

    const std::string bundle_path = "bench_load_startup.tmp.abcs";

    bool identical = true;
    auto check = [&](const std::vector<abcs::EdgeId>& got) {
      identical = identical && got == want;
    };

    // The cold-build baselines are per-dataset; measure once and repeat
    // them on every compression row for self-contained JSON records.
    const double cold_build_1t = TimeBest(1, [&] {
      const abcs::DeltaIndex index =
          abcs::DeltaIndex::Build(g, nullptr, /*num_threads=*/1);
      check(index.QueryCommunity(q, ab, ab).edges);
    });
    const double cold_build_mt = TimeBest(1, [&] {
      const abcs::DeltaIndex index =
          abcs::DeltaIndex::Build(g, nullptr, /*num_threads=*/0);
      check(index.QueryCommunity(q, ab, ab).edges);
    });

    std::size_t raw_bytes = 0;
    for (const abcs::BundleCompression level :
         {abcs::BundleCompression::kNone, abcs::BundleCompression::kFast,
          abcs::BundleCompression::kMax}) {
      Row row;
      row.name = spec.name;
      row.compression = abcs::BundleCompressionName(level);
      row.n = g.NumVertices();
      row.m = g.NumEdges();
      row.delta = ds.delta();
      row.cold_build_1t = cold_build_1t;
      row.cold_build_mt = cold_build_mt;
      {
        abcs::Timer timer;
        abcs::SaveBundleOptions save;
        save.compression = level;
        const abcs::Status st = abcs::SaveIndexBundle(g, ds.decomp, built,
                                                      bicore, bundle_path,
                                                      save);
        row.save_seconds = timer.Seconds();
        if (!st.ok()) {
          std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
          return 1;
        }
      }

      auto open_and_query = [&](abcs::BundleOpenMode mode, bool verify) {
        std::unique_ptr<abcs::IndexBundle> bundle;
        abcs::BundleOpenOptions options;
        options.mode = mode;
        options.verify_checksums = verify;
        if (!abcs::OpenIndexBundle(bundle_path, &bundle, options).ok()) {
          std::exit(1);
        }
        row.bundle_bytes = bundle->FileBytes();
        check(bundle->delta_index().QueryCommunity(q, ab, ab).edges);
      };
      row.open_read = TimeBest(
          3, [&] { open_and_query(abcs::BundleOpenMode::kRead, true); });
      row.open_mmap = TimeBest(
          3, [&] { open_and_query(abcs::BundleOpenMode::kMmap, true); });
      row.open_mmap_unverified = TimeBest(
          3, [&] { open_and_query(abcs::BundleOpenMode::kMmap, false); });

      if (level == abcs::BundleCompression::kNone) raw_bytes = row.bundle_bytes;
      row.compression_ratio =
          row.bundle_bytes > 0
              ? static_cast<double>(raw_bytes) / row.bundle_bytes
              : 1.0;

      constexpr double kMb = 1024.0 * 1024.0;
      std::printf(
          "%-5s %-5s %8u %8u %6u %9.2f %6.2fx %9.4f %10.4f %10.4f %10.4f "
          "%7.1fx\n",
          row.name.c_str(), row.compression.c_str(), row.n, row.m, row.delta,
          static_cast<double>(row.bundle_bytes) / kMb, row.compression_ratio,
          row.save_seconds, row.cold_build_mt, row.open_read, row.open_mmap,
          row.open_mmap > 0 ? row.cold_build_mt / row.open_mmap : 0.0);
      rows.push_back(std::move(row));
    }

    std::remove(bundle_path.c_str());
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: %s first-query results differ across paths\n",
                   spec.name.c_str());
      return 1;
    }
  }

  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"load_startup\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"dataset\": \"%s\", \"compression\": \"%s\",\n"
        "     \"n\": %u, \"m\": %u, \"delta\": %u,\n"
        "     \"bundle_bytes\": %zu, \"compression_ratio\": %.4f,\n"
        "     \"save_seconds\": %.6f,\n"
        "     \"cold_build_1t_seconds\": %.6f, "
        "\"cold_build_mt_seconds\": %.6f,\n"
        "     \"open_read_seconds\": %.6f,\n"
        "     \"open_mmap_seconds\": %.6f, "
        "\"open_mmap_unverified_seconds\": %.6f,\n"
        "     \"ttfq_speedup_mmap_vs_cold_build\": %.2f}%s\n",
        r.name.c_str(), r.compression.c_str(), r.n, r.m, r.delta,
        r.bundle_bytes, r.compression_ratio, r.save_seconds, r.cold_build_1t,
        r.cold_build_mt, r.open_read, r.open_mmap,
        r.open_mmap_unverified,
        r.open_mmap > 0 ? r.cold_build_mt / r.open_mmap : 0.0,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
