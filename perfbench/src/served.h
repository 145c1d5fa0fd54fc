// The served path under test: set-up of the daemon over a verified
// bundle, and the clients that drive it over loopback.

#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "graph/bipartite_graph.h"
#include "io/index_bundle.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// One set-up, stage by stage. `total_s` runs from the generated graph in
/// memory to the first answered Ping.
struct StageTimes {
  double decompose_s = 0;
  double delta_build_s = 0;
  double bicore_build_s = 0;
  double bundle_save_s = 0;
  double bundle_open_s = 0;
  double start_s = 0;  ///< Server::Start up to the first answered Ping
  double total_s = 0;
};

/// The daemon under test: a `Server` with live updates on, serving the
/// bundle it was set up with.
class Daemon {
 public:
  /// Builds the decomposition and both indexes of `g`, saves the bundle
  /// to `bundle_path`, opens it verified, starts the server on an
  /// ephemeral loopback port and waits for the first Ping.
  static abcs::Status SetUp(const abcs::BipartiteGraph& g,
                            const std::string& bundle_path, unsigned workers,
                            SpanLog* log, StageTimes* times,
                            std::unique_ptr<Daemon>* out);
  /// Stops the server and deletes the bundle file.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return server_->port(); }
  abcs::serve::Server& server() { return *server_; }
  const abcs::IndexBundle& bundle() const { return *bundle_; }
  /// Drains and stops the server; the bundle stays open for replays.
  void StopServer();

 private:
  Daemon() = default;
  std::string path_;
  std::unique_ptr<abcs::IndexBundle> bundle_;
  std::unique_ptr<abcs::serve::Server> server_;  ///< views bundle_
};

/// One answered read: its index in the request stream and the response.
struct ReadAnswer {
  uint32_t index;
  abcs::serve::WireResponse resp;
};

struct ReadLog {
  const std::vector<abcs::serve::WireRequest>* stream = nullptr;
  std::vector<ReadAnswer> answers;
  /// Requests the phase meant to send; those not in `answers` failed.
  uint64_t planned = 0;
  std::string error;  ///< first transport failure, empty if none
};

/// Sends every request of `stream` once, pipelined in chunks on one
/// connection with `Client::CallAll`.
ReadLog RunWarmup(uint16_t port,
                  const std::vector<abcs::serve::WireRequest>& stream);

/// Closed loop: `connections` clients each keep up to `depth` requests
/// outstanding for `seconds`, refilling half the window in one burst
/// whenever half is answered, and take stream entries round-robin. `qps`
/// is the rate of kOk answers from the end of a warm-up tenth to the end
/// of the phase; `window_qps` cuts that interval into `kWindows` equal
/// windows, for diagnosis only.
struct ClosedResult {
  static constexpr int kWindows = 10;
  double qps = 0;
  std::vector<double> window_qps;
  std::vector<ReadLog> logs;
};
ClosedResult RunClosedLoop(uint16_t port,
                           const std::vector<abcs::serve::WireRequest>& stream,
                           unsigned connections, unsigned depth,
                           double seconds, Tracer* tracer);

/// Open loop: request i is due at i / rate after the start and is timed
/// from that instant to its decoded response, so a stall is charged to
/// every request it delays.
struct OpenResult {
  ReadLog log;
  std::vector<double> latency_ms;  ///< per answered request, in order
  double lag_p99_us = 0;  ///< how late the generator sent, p99
  double lag_max_us = 0;
};
OpenResult RunOpenLoop(uint16_t port,
                       const std::vector<abcs::serve::WireRequest>& stream,
                       double rate_qps, SpanLog* log);

/// A probe query sent after a commit, with the epoch it must answer at.
struct ProbeAnswer {
  uint64_t expected_epoch = 0;
  abcs::serve::WireRequest req;
  abcs::serve::WireResponse resp;
  bool answered = false;
};

struct WriterLog {
  std::vector<double> reweight_commit_ms;
  std::vector<double> churn_commit_ms;
  std::vector<double> ack_us;  ///< every Client::Update round trip
  /// Epoch each committed batch published, in batch order.
  std::vector<uint64_t> commit_epochs;
  std::vector<ProbeAnswer> probes;
  std::vector<double> queue_depth;  ///< health samples
  std::vector<double> rtt_us;       ///< single-connection memo-hit calls
};

/// The control connection: the writer's batches, probes and health
/// samples all go through one `Client`.
class Control {
 public:
  Control(uint16_t port, const WorkloadSpec& spec, const Inputs& inputs,
          SpanLog* log)
      : port_(port), spec_(spec), inputs_(inputs), log_(log) {}

  abcs::Status Connect();
  /// Runs until `stop`: a batch every `batch_interval_s` when `writer`,
  /// a health sample every 50 ms while `health` is set.
  void Loop(const std::atomic<bool>& stop, const std::atomic<bool>& health,
            bool writer);
  /// Runs the next batch and its commit; probes when due.
  void RunNextBatch();
  /// Probes the final state unless the last commit just did.
  void FinalProbe();
  /// Calls `req` repeatedly on this one connection with no other load and
  /// keeps the round trips answered from the memo.
  void MeasureRtt(const abcs::serve::WireRequest& req, int calls);

  std::size_t batches_done() const { return next_batch_; }
  /// False once a commit or a health sample failed; the writer stops at a
  /// failed commit.
  bool ok() const { return !writer_failed_ && !health_failed_; }
  const WriterLog& log() const { return wlog_; }
  const Accounting& accounting() const { return acct_; }

 private:
  void Probe();
  void SampleHealth();

  uint16_t port_;
  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  SpanLog* log_;
  abcs::serve::Client client_;
  WriterLog wlog_;
  Accounting acct_;
  std::size_t next_batch_ = 0;
  uint64_t epoch_ = 1;
  uint64_t probed_epoch_ = 0;
  bool writer_failed_ = false;
  bool health_failed_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
