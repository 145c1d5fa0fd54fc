// perfbench: the served-path benchmark. Starts the real `serve::Server`
// over loopback on a generated graph, drives it with clients from this
// process, checks every answer against an independent reference and
// prints one JSON result line.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --workdir DIR
//             [--spans FILE]
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the per-layer metrics of a traced run (spans written to --spans). The
// exit code is 1 when the run is not correct: a phase was cut short or an
// operation failed.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "common.h"
#include "graph/datasets.h"
#include "reference.h"
#include "replay.h"
#include "served.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string spans;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--spans FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

RefGraph ToRef(const abcs::BipartiteGraph& g) {
  RefGraph r;
  r.num_upper = g.NumUpper();
  r.num_lower = g.NumLower();
  for (const abcs::Edge& e : g.Edges()) {
    r.edges.push_back({e.u, e.v - g.NumUpper(), e.w});
  }
  return r;
}

/// Section bytes by family: graph (g.*), decomposition (dc.*), I_δ (id.*)
/// and I_v (iv.*).
void AddSectionBytes(const abcs::IndexBundle& bundle, Metrics* out) {
  const char* families[][2] = {{"g.", "io.section_bytes_graph"},
                               {"dc.", "io.section_bytes_decomp"},
                               {"id.", "io.section_bytes_idelta"},
                               {"iv.", "io.section_bytes_iv"}};
  for (const auto& f : families) {
    uint64_t bytes = 0;
    for (const abcs::BundleSectionInfo& s : bundle.Sections()) {
      if (s.name.rfind(f[0], 0) == 0) bytes += s.stored_bytes;
    }
    out->push_back({f[1], static_cast<double>(bytes), "bytes"});
  }
}

void PrintResult(bool correct, const Accounting& acct, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(acct.TotalAttempted()),
              static_cast<unsigned long long>(acct.TotalFailed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());
  Tracer tracer(args.trace);
  SpanLog* main_log = tracer.NewLog("main");
  Accounting acct;

  // Inputs: the dataset, the reference's view of it and the seeded
  // streams.
  Clock::time_point t0 = Clock::now();
  abcs::BipartiteGraph g;
  const abcs::Status gen =
      abcs::MakeDataset(*abcs::FindDataset(spec->dataset), &g);
  if (!gen.ok()) {
    std::fprintf(stderr, "dataset %s: %s\n", spec->dataset, gen.ToString().c_str());
    return 1;
  }
  const RefGraph ref = ToRef(g);
  std::vector<std::string> self_failures;
  const int self_checks = RefSelfCheck(&self_failures);
  for (int i = 0; i < self_checks; ++i) {
    acct.Add(OpKind::kCheck, i >= static_cast<int>(self_failures.size()));
  }
  for (const std::string& f : self_failures) ReportFailure(f);
  std::vector<RefCores> cores;
  for (const auto& [alpha, beta] : spec->pairs) {
    cores.push_back(RefCoreComponents(ref, alpha, beta));
  }
  const Inputs in = MakeInputs(*spec, ref, cores, args.seed, args.seconds);
  std::printf("# workload %s seed %llu: %s |E|=%u, inputs in %.2fs\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              spec->dataset, g.NumEdges(), SecondsSince(t0));
  std::printf("# inputs digest %016llx: %zu closed, %zu open, %zu batches, "
              "%zu probes\n",
              static_cast<unsigned long long>(in.digest), in.closed.size(),
              in.open.size(), in.batches.size(), in.probes.size());

  // Set-up, several times; the last daemon serves the run.
  const std::string bundle_path =
      args.workdir + "/" + spec->name + ".bundle";
  std::vector<StageTimes> setups;
  std::unique_ptr<Daemon> daemon;
  for (int r = 0; r < spec->setup_reps; ++r) {
    daemon.reset();
    StageTimes t;
    const abcs::Status st =
        Daemon::SetUp(g, bundle_path, spec->workers, main_log, &t, &daemon);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setups.push_back(t);
    std::printf("# setup %d: %.3fs (decompose %.3f, I_delta %.3f, I_v %.3f, "
                "save %.3f, open %.3f, start+ping %.4f)\n",
                r, t.total_s, t.decompose_s, t.delta_build_s, t.bicore_build_s,
                t.bundle_save_s, t.bundle_open_s, t.start_s);
  }
  auto setup_median = [&](double StageTimes::*field) {
    std::vector<double> v;
    for (const StageTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };

  // Served phases: closed loop, then open loop with health samples; the
  // live workload's writer runs beside both, the others commit after.
  const uint16_t port = daemon->port();
  const double steal0 = StealSeconds();
  const Clock::time_point served0 = Clock::now();
  Control control(port, *spec, in, tracer.NewLog("control"));
  std::atomic<bool> stop{false};
  std::atomic<bool> health{false};
  std::thread control_thread;
  bool complete = true;  // every phase ran to its end
  auto start_control = [&](bool writer) {
    const abcs::Status st = control.Connect();
    if (!st.ok()) {
      complete = false;
      ReportFailure("control connection: " + st.ToString());
    }
    control_thread = std::thread([&, writer] { control.Loop(stop, health, writer); });
  };
  t0 = Clock::now();
  const ReadLog warmup = RunWarmup(port, in.warmup);
  if (!in.warmup.empty()) {
    std::printf("# memo warm-up: %zu distinct reads in %.2fs\n",
                in.warmup.size(), SecondsSince(t0));
  }
  if (spec->writer_beside_reads) start_control(true);
  const ClosedResult closed =
      RunClosedLoop(port, in.closed, spec->closed_connections,
                    spec->pipeline_depth, args.seconds * spec->closed_share,
                    &tracer);
  if (!spec->writer_beside_reads) start_control(false);
  health.store(true);
  const OpenResult open =
      RunOpenLoop(port, in.open, spec->open_rate_qps, tracer.NewLog("open"));
  health.store(false);
  stop.store(true);
  control_thread.join();
  const uint64_t memo_hits = daemon->server().memo().hits();
  const uint64_t memo_misses = daemon->server().memo().misses();
  if (args.trace && !in.open.empty()) control.MeasureRtt(in.open.front(), 400);
  // The DTI workloads commit here; the live writer finishes a batch its
  // cadence left over.
  while (control.ok() && control.batches_done() < in.batches.size()) {
    control.RunNextBatch();
  }
  control.FinalProbe();
  daemon->StopServer();
  if (steal0 >= 0) {
    std::printf("# host steal during the served phases: %.1f%% of CPU time\n",
                100.0 * (StealSeconds() - steal0) /
                    (SecondsSince(served0) *
                     static_cast<double>(std::thread::hardware_concurrency())));
  }
  acct.Merge(control.accounting());
  const WriterLog& wlog = control.log();
  // Batches a failed commit left unsent count as failed operations.
  for (std::size_t b = control.batches_done(); b < in.batches.size(); ++b) {
    for (std::size_t i = 0; i < in.batches[b].ops.size(); ++i) {
      acct.Add(OpKind::kUpdate, false);
    }
    acct.Add(OpKind::kCommit, false);
  }
  if (!control.ok()) complete = false;

  std::printf("# closed loop: %.1f queries/s over %u connection(s) x depth "
              "%u; windows:",
              closed.qps, spec->closed_connections, spec->pipeline_depth);
  for (const double w : closed.window_qps) std::printf(" %.1f", w);
  std::printf("\n");
  std::printf("# open loop: %zu of %zu answered at %.0f/s, sender lag p99 "
              "%.1fus max %.1fus\n",
              open.log.answers.size(), in.open.size(), spec->open_rate_qps,
              open.lag_p99_us, open.lag_max_us);
  std::printf("# writer: %zu batches, %zu reweight + %zu churn commits, memo "
              "%llu hits / %llu misses\n",
              control.batches_done(), wlog.reweight_commit_ms.size(),
              wlog.churn_commit_ms.size(),
              static_cast<unsigned long long>(memo_hits),
              static_cast<unsigned long long>(memo_misses));
  for (const auto& [kind, ms] : {std::pair{"reweight", &wlog.reweight_commit_ms},
                                 std::pair{"churn", &wlog.churn_commit_ms}}) {
    std::printf("# %s commits (ms):", kind);
    for (const double t : *ms) std::printf(" %.1f", t);
    std::printf("\n");
  }

  std::vector<const ReadLog*> reads{&warmup};
  for (const ReadLog& l : closed.logs) reads.push_back(&l);
  reads.push_back(&open.log);
  for (const ReadLog* l : reads) {
    if (!l->error.empty()) complete = false;
  }
  t0 = Clock::now();
  CheckAnswers(*spec, ref, cores, in, reads, open.log, wlog, &acct);
  std::printf("# answers checked in %.2fs\n", SecondsSince(t0));

  // Percentiles per window of consecutive answers (200 for p50 and p90,
  // 1000 for p99, so at least ten lie beyond each window's percentile).
  // A low quantile over the windows is reported, which leaves out the
  // windows a host stall slowed: the tenth percentile for p50, the lower
  // quartile for the tail.
  const double p50 = WindowedQuantile(open.latency_ms, 0.5, 200, 0.1);
  const double p90 = WindowedQuantile(open.latency_ms, 0.9, 200, 0.25);
  const double p99 = WindowedQuantile(open.latency_ms, 0.99, 1000, 0.25);
  std::printf("# open loop latency: p50 %.3fms p90 %.3fms p99 %.3fms\n", p50,
              p90, p99);
  for (uint8_t m = 0; m < abcs::serve::kNumWireMethods; ++m) {
    std::vector<double> lat;
    for (std::size_t i = 0; i < open.log.answers.size(); ++i) {
      const abcs::serve::WireRequest& r = in.open[open.log.answers[i].index];
      if (static_cast<uint8_t>(r.method) == m) lat.push_back(open.latency_ms[i]);
    }
    if (lat.empty()) continue;
    std::printf("# open loop %-10s %5zu answers, p50 %.3fms p99 %.3fms\n",
                abcs::serve::WireMethodName(static_cast<abcs::serve::WireMethod>(m)),
                lat.size(), Quantile(lat, 0.5), Quantile(lat, 0.99));
  }
  Metrics metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", setup_median(&StageTimes::total_s), "s"},
        {"bundle_bytes", static_cast<double>(daemon->bundle().FileBytes()), "bytes"},
        {"throughput_qps", closed.qps, "queries/s"},
        {"reweight_commit_p50_ms", Median(wlog.reweight_commit_ms), "ms"},
        {"churn_commit_p50_ms", Median(wlog.churn_commit_ms), "ms"},
    };
  } else {
    metrics = {
        {"abcore.decompose_s", setup_median(&StageTimes::decompose_s), "s"},
        {"core.delta_build_s", setup_median(&StageTimes::delta_build_s), "s"},
        {"core.bicore_build_s", setup_median(&StageTimes::bicore_build_s), "s"},
        {"io.bundle_save_s", setup_median(&StageTimes::bundle_save_s), "s"},
        {"io.bundle_open_s", setup_median(&StageTimes::bundle_open_s), "s"},
        {"serve.start_s", setup_median(&StageTimes::start_s), "s"},
    };
    AddSectionBytes(daemon->bundle(), &metrics);
    std::vector<abcs::serve::WireResponse> responses;
    for (const ReadAnswer& a : open.log.answers) responses.push_back(a.resp);
    t0 = Clock::now();
    ReplayLayers(*spec, in, daemon->bundle(), responses,
                 tracer.NewLog("replay"), &acct, &metrics);
    std::printf("# layer replay in %.2fs\n", SecondsSince(t0));
    metrics.push_back({"serve.rtt_us_p50", Median(wlog.rtt_us), "us"});
    metrics.push_back({"serve.memo_hits", static_cast<double>(memo_hits), "count"});
    metrics.push_back({"serve.memo_misses", static_cast<double>(memo_misses), "count"});
    metrics.push_back({"serve.update_ack_us_p50", Median(wlog.ack_us), "us"});
    metrics.push_back({"serve.queue_depth_p50", Quantile(wlog.queue_depth, 0.5), "count"});
    metrics.push_back({"serve.queue_depth_max", Quantile(wlog.queue_depth, 1.0), "count"});
    metrics.push_back({"trace.throughput_qps", closed.qps, "queries/s"});
    metrics.push_back({"trace.latency_p50_ms", p50, "ms"});
    metrics.push_back({"trace.latency_p90_ms", p90, "ms"});
    metrics.push_back({"trace.latency_p99_ms", p99, "ms"});
    if (!args.spans.empty()) {
      if (tracer.Write(args.spans)) {
        std::printf("# %zu spans written to %s (%llu past the per-thread "
                    "cap not kept)\n",
                    tracer.NumSpans(), args.spans.c_str(),
                    static_cast<unsigned long long>(tracer.NumDropped()));
      } else {
        complete = false;
        ReportFailure("cannot write spans to " + args.spans);
      }
    }
  }
  daemon.reset();

  for (int k = 0; k < kNumOpKinds; ++k) {
    std::printf("# ops %-6s attempted %llu failed %llu\n",
                OpKindName(static_cast<OpKind>(k)),
                static_cast<unsigned long long>(acct.attempted[k]),
                static_cast<unsigned long long>(acct.failed[k]));
  }
  // Correct only if every phase ran to its end and no operation of any
  // kind failed; the result line is printed either way.
  const bool correct = complete &&
                       acct.attempted[static_cast<int>(OpKind::kCheck)] > 0 &&
                       acct.TotalFailed() == 0;
  PrintResult(correct, acct, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
