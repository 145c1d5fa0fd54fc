#include "served.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>

#include "abcore/offsets.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "serve/frame.h"
#include "serve/protocol.h"

namespace perfbench {

using abcs::Status;
using abcs::serve::Client;
using abcs::serve::WireRequest;
using abcs::serve::WireResponse;
using abcs::serve::WireStatus;

Status Daemon::SetUp(const abcs::BipartiteGraph& g,
                     const std::string& bundle_path, unsigned workers,
                     SpanLog* log, StageTimes* times,
                     std::unique_ptr<Daemon>* out) {
  const uint64_t id = RequestId(Phase::kSetup, 0);
  std::unique_ptr<Daemon> d(new Daemon());
  d->path_ = bundle_path;
  const Clock::time_point t0 = Clock::now();
  {
    // The in-memory build lives only until the bundle is saved.
    const abcs::BicoreDecomposition decomp =
        abcs::ComputeBicoreDecomposition(g);
    const Clock::time_point t1 = Clock::now();
    const abcs::DeltaIndex delta = abcs::DeltaIndex::Build(g, &decomp, 1);
    const Clock::time_point t2 = Clock::now();
    const abcs::BicoreIndex bicore = abcs::BicoreIndex::Build(g, &decomp, 1);
    const Clock::time_point t3 = Clock::now();
    const Status st =
        abcs::SaveIndexBundle(g, decomp, delta, bicore, bundle_path);
    const Clock::time_point t4 = Clock::now();
    if (!st.ok()) return st;
    times->decompose_s = Seconds(t0, t1);
    times->delta_build_s = Seconds(t1, t2);
    times->bicore_build_s = Seconds(t2, t3);
    times->bundle_save_s = Seconds(t3, t4);
    log->Add("abcore.decompose", t0, t1, id);
    log->Add("core.delta_build", t1, t2, id);
    log->Add("core.bicore_build", t2, t3, id);
    log->Add("io.bundle_save", t3, t4, id);
  }
  const Clock::time_point t4 = Clock::now();
  abcs::BundleOpenOptions open;
  open.verify_checksums = true;
  ABCS_RETURN_NOT_OK(abcs::OpenIndexBundle(bundle_path, &d->bundle_, open));
  const Clock::time_point t5 = Clock::now();
  times->bundle_open_s = Seconds(t4, t5);
  log->Add("io.bundle_open", t4, t5, id);

  abcs::serve::ServerOptions opts;
  opts.num_threads = workers;
  opts.enable_updates = true;
  opts.publish_threads = 1;
  opts.seed_decomp = &d->bundle_->decomposition();
  d->server_ = std::make_unique<abcs::serve::Server>(
      d->bundle_->graph(), &d->bundle_->delta_index(),
      &d->bundle_->bicore_index(), opts);
  ABCS_RETURN_NOT_OK(d->server_->Start());
  Client ping;
  ABCS_RETURN_NOT_OK(ping.Connect("127.0.0.1", d->server_->port()));
  ABCS_RETURN_NOT_OK(ping.Ping());
  const Clock::time_point t6 = Clock::now();
  times->start_s = Seconds(t5, t6);
  times->total_s = Seconds(t0, t6);
  log->Add("serve.start", t5, t6, id);
  *out = std::move(d);
  return Status::OK();
}

void Daemon::StopServer() {
  if (server_ != nullptr) {
    server_->Shutdown();
    server_.reset();
  }
}

Daemon::~Daemon() {
  StopServer();
  bundle_.reset();
  std::remove(path_.c_str());
}

namespace {

void ClosedConnection(uint16_t port, const std::vector<WireRequest>& stream,
                      unsigned first, unsigned stride, unsigned depth,
                      Clock::time_point window_start, Clock::time_point end,
                      SpanLog* log, ReadLog* out, std::vector<uint64_t>* ok) {
  out->stream = &stream;
  Client client;
  Status st = client.Connect("127.0.0.1", port);
  if (!st.ok()) {
    out->error = st.ToString();
    return;
  }
  // Up to `depth` requests are outstanding; whenever half of them are
  // answered the other half is refilled in one burst.
  const unsigned burst = std::max(1u, depth / 2);
  struct Pending {
    uint32_t index;
    Clock::time_point send_start, send_end;
  };
  std::deque<Pending> pending;
  std::vector<WireRequest> batch;
  uint64_t k = 0;         // requests sent on this connection
  uint64_t received = 0;  // responses read on this connection
  auto send = [&](unsigned n) {
    batch.clear();
    const Clock::time_point t0 = Clock::now();
    for (unsigned i = 0; i < n; ++i, ++k) {
      const auto index =
          static_cast<uint32_t>((first + k * stride) % stream.size());
      batch.push_back(stream[index]);
      pending.push_back({index, t0, {}});
    }
    out->planned += n;
    st = client.SendAll(batch);
    const Clock::time_point t1 = Clock::now();
    for (std::size_t i = pending.size() - n; i < pending.size(); ++i) {
      pending[i].send_end = t1;
    }
    if (!st.ok()) {
      out->error = st.ToString();
      return false;
    }
    return true;
  };
  if (!send(depth)) return;
  std::vector<WireResponse> resp;
  while (!pending.empty()) {
    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(burst, pending.size()));
    const Clock::time_point r0 = Clock::now();
    st = client.ReceiveAll(n, &resp);
    const Clock::time_point r1 = Clock::now();
    if (!st.ok()) {
      out->error = st.ToString();
      return;
    }
    for (const WireResponse& r : resp) {
      const Pending p = pending.front();
      pending.pop_front();
      out->answers.push_back({p.index, r});
      if (r1 >= window_start && r1 < end && r.status == WireStatus::kOk) {
        const auto w = static_cast<std::size_t>(
            static_cast<double>((r1 - window_start).count()) /
            static_cast<double>((end - window_start).count()) *
            static_cast<double>(ok->size()));
        ++(*ok)[std::min(w, ok->size() - 1)];
      }
      if (log->on()) {
        const uint64_t id =
            RequestId(Phase::kClosed, (uint64_t{first} << 40) | received);
        const int32_t root = log->Add("serve.request", p.send_start, r1, id);
        log->Add("client.send", p.send_start, p.send_end, id, root);
        log->Add("client.receive", r0, r1, id, root);
      }
      ++received;
    }
    if (r1 < end && !send(n)) return;
  }
}

}  // namespace

ReadLog RunWarmup(uint16_t port, const std::vector<WireRequest>& stream) {
  constexpr std::size_t kChunk = 256;
  ReadLog log;
  log.stream = &stream;
  log.planned = stream.size();
  Client client;
  Status st = client.Connect("127.0.0.1", port);
  std::vector<WireResponse> resp;
  for (std::size_t i = 0; st.ok() && i < stream.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, stream.size() - i);
    st = client.CallAll({stream.data() + i, n}, &resp);
    for (std::size_t j = 0; st.ok() && j < n; ++j) {
      log.answers.push_back({static_cast<uint32_t>(i + j), resp[j]});
    }
  }
  if (!st.ok()) log.error = st.ToString();
  return log;
}

ClosedResult RunClosedLoop(uint16_t port,
                           const std::vector<WireRequest>& stream,
                           unsigned connections, unsigned depth,
                           double seconds, Tracer* tracer) {
  ClosedResult result;
  result.logs.resize(connections);
  std::vector<std::vector<uint64_t>> ok(
      connections, std::vector<uint64_t>(ClosedResult::kWindows, 0));
  std::vector<SpanLog*> logs;
  for (unsigned c = 0; c < connections; ++c) {
    logs.push_back(tracer->NewLog("closed" + std::to_string(c)));
  }
  const Clock::time_point start = Clock::now();
  const auto dur = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const Clock::time_point window_start = start + dur / 10;
  const Clock::time_point end = start + dur;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back(ClosedConnection, port, std::cref(stream), c,
                         connections, depth, window_start, end, logs[c],
                         &result.logs[c], &ok[c]);
  }
  for (std::thread& t : threads) t.join();
  const double measured_s = Seconds(window_start, end);
  uint64_t total = 0;
  for (int w = 0; w < ClosedResult::kWindows; ++w) {
    uint64_t n = 0;
    for (const auto& per_conn : ok) n += per_conn[w];
    total += n;
    result.window_qps.push_back(static_cast<double>(n) * ClosedResult::kWindows /
                                measured_s);
  }
  result.qps = static_cast<double>(total) / measured_s;
  return result;
}

OpenResult RunOpenLoop(uint16_t port, const std::vector<WireRequest>& stream,
                       double rate_qps, SpanLog* log) {
  // A raw socket with the program's own framing and codec: `Client` calls
  // block on one response, and an open loop must send on schedule while
  // responses are still outstanding.
  OpenResult r;
  r.log.stream = &stream;
  r.log.planned = stream.size();
  const std::size_t n = stream.size();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    r.log.error = std::string("socket: ") + std::strerror(errno);
    return r;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    r.log.error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return r;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);

  std::vector<std::byte> frames;
  std::vector<std::byte> payload;
  for (const WireRequest& req : stream) {
    payload.clear();
    abcs::serve::EncodeRequest(req, &payload);
    abcs::serve::AppendFrame(payload, &frames);
  }
  const std::size_t frame_bytes = frames.size() / std::max<std::size_t>(n, 1);

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(10);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::nanoseconds(std::llround(
                    static_cast<double>(i) * 1e9 / rate_qps));
  };
  std::vector<Clock::time_point> sent_at(n);
  std::vector<double> lag_us;
  lag_us.reserve(n);
  r.latency_ms.reserve(n);
  r.log.answers.reserve(n);
  std::size_t next_send = 0;
  std::size_t send_off = 0;  // bytes of `frames` written
  std::size_t next_recv = 0;
  abcs::serve::FrameReader reader;
  std::byte buf[16384];
  const Clock::time_point deadline =
      (n == 0 ? t0 : due(n - 1)) + std::chrono::seconds(30);
  while (next_recv < n) {
    Clock::time_point now = Clock::now();
    if (now > deadline) {
      r.log.error = "open loop: responses overdue";
      break;
    }
    while (next_send < n && due(next_send) <= now) {
      lag_us.push_back(Seconds(due(next_send), now) * 1e6);
      sent_at[next_send] = now;
      ++next_send;
    }
    const std::size_t send_limit = next_send * frame_bytes;
    while (send_off < send_limit) {
      const ssize_t k = ::send(fd, frames.data() + send_off,
                               send_limit - send_off, MSG_NOSIGNAL);
      if (k > 0) {
        send_off += static_cast<std::size_t>(k);
      } else if (k < 0 && errno == EINTR) {
        continue;
      } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        r.log.error = std::string("send: ") + std::strerror(errno);
        break;
      }
    }
    if (!r.log.error.empty()) break;

    timespec ts{0, 100 * 1000 * 1000};
    if (next_send < n) {
      const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            due(next_send) - Clock::now())
                            .count();
      ts.tv_sec = wait > 0 ? wait / 1000000000 : 0;
      ts.tv_nsec = wait > 0 ? wait % 1000000000 : 0;
    }
    pollfd pfd{fd, static_cast<short>(POLLIN | (send_off < send_limit ? POLLOUT : 0)), 0};
    const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc < 0 && errno != EINTR) {
      r.log.error = std::string("ppoll: ") + std::strerror(errno);
      break;
    }
    if (rc <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    for (;;) {
      const ssize_t k = ::recv(fd, buf, sizeof(buf), 0);
      if (k > 0) {
        if (!reader.Append({buf, static_cast<std::size_t>(k)}).ok()) {
          r.log.error = "open loop: response stream poisoned";
          break;
        }
        std::span<const std::byte> frame;
        while (next_recv < n && reader.Next(&frame)) {
          const Clock::time_point d0 = Clock::now();
          WireResponse resp;
          const Status st = abcs::serve::DecodeResponse(frame, &resp);
          const Clock::time_point d1 = Clock::now();
          if (!st.ok()) {
            r.log.error = "open loop: " + st.ToString();
            break;
          }
          r.latency_ms.push_back(Seconds(due(next_recv), d1) * 1e3);
          r.log.answers.push_back({static_cast<uint32_t>(next_recv), resp});
          if (log->on()) {
            const uint64_t id = RequestId(Phase::kOpen, next_recv);
            const int32_t root =
                log->Add("serve.request", due(next_recv), d1, id);
            log->Add("client.send", sent_at[next_recv], sent_at[next_recv],
                     id, root);
            log->Add("client.decode", d0, d1, id, root);
          }
          ++next_recv;
        }
        if (!r.log.error.empty()) break;
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      r.log.error = k == 0 ? "open loop: connection closed by server"
                           : std::string("recv: ") + std::strerror(errno);
      break;
    }
    if (!r.log.error.empty()) break;
  }
  ::close(fd);
  r.lag_p99_us = Quantile(lag_us, 0.99);
  r.lag_max_us = lag_us.empty() ? 0 : *std::max_element(lag_us.begin(), lag_us.end());
  return r;
}

Status Control::Connect() { return client_.Connect("127.0.0.1", port_); }

void Control::Loop(const std::atomic<bool>& stop,
                   const std::atomic<bool>& health, bool writer) {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(spec_.batch_interval_s));
  const auto health_every = std::chrono::milliseconds(50);
  Clock::time_point next_batch = Clock::now();
  Clock::time_point next_health = Clock::now();
  while (!stop.load()) {
    const Clock::time_point now = Clock::now();
    const bool batches_left =
        writer && !writer_failed_ && next_batch_ < inputs_.batches.size();
    if (batches_left && now >= next_batch) {
      RunNextBatch();
      next_batch = std::max(next_batch + interval, Clock::now());
    } else if (health.load() && now >= next_health) {
      SampleHealth();
      next_health = Clock::now() + health_every;
    } else {
      Clock::time_point wake = now + std::chrono::milliseconds(5);
      if (batches_left) wake = std::min(wake, next_batch);
      std::this_thread::sleep_until(wake);
    }
  }
}

void Control::RunNextBatch() {
  const std::size_t b = next_batch_++;
  const Batch& batch = inputs_.batches[b];
  const uint64_t id = RequestId(Phase::kWriter, b);
  const Clock::time_point b0 = Clock::now();
  const int32_t root = log_->Add("writer.batch", b0, b0, id);
  for (const WireRequest& op : batch.ops) {
    WireResponse resp;
    const Clock::time_point t0 = Clock::now();
    const Status st = client_.Update(op.op, op.u, op.v, op.weight, &resp);
    const Clock::time_point t1 = Clock::now();
    wlog_.ack_us.push_back(Seconds(t0, t1) * 1e6);
    log_->Add("serve.update", t0, t1, id, root);
    const bool ok = st.ok() && resp.status == WireStatus::kOk;
    acct_.Add(OpKind::kUpdate, ok);
    if (!ok) {
      ReportFailure("update " + std::string(abcs::serve::UpdateOpName(op.op)) +
                    " (" + std::to_string(op.u) + "," + std::to_string(op.v) +
                    "): " +
                    (st.ok() ? abcs::serve::WireStatusName(resp.status)
                             : st.ToString()));
    }
  }
  uint64_t epoch = 0;
  const Clock::time_point c0 = Clock::now();
  const Status st = client_.Commit(&epoch);
  const Clock::time_point c1 = Clock::now();
  log_->Add("serve.commit", c0, c1, id, root);
  log_->End(root, c1);
  const bool ok = st.ok() && epoch == epoch_ + 1;
  acct_.Add(OpKind::kCommit, ok);
  if (!ok) {
    ReportFailure("commit of batch " + std::to_string(b) + ": " +
                  (st.ok() ? "epoch " + std::to_string(epoch) + " after " +
                                 std::to_string(epoch_)
                           : st.ToString()));
    // The writer's state is unknown from here on: stop writing.
    writer_failed_ = true;
    wlog_.commit_epochs.push_back(0);
    return;
  }
  epoch_ = epoch;
  wlog_.commit_epochs.push_back(epoch);
  (batch.churn ? wlog_.churn_commit_ms : wlog_.reweight_commit_ms)
      .push_back(Seconds(c0, c1) * 1e3);
  if ((b + 1) % spec_.probe_every == 0) Probe();
}

void Control::FinalProbe() {
  if (!writer_failed_ && probed_epoch_ != epoch_) Probe();
}

void Control::Probe() {
  probed_epoch_ = epoch_;
  for (const WireRequest& req : inputs_.probes) {
    ProbeAnswer p;
    p.expected_epoch = epoch_;
    p.req = req;
    const Clock::time_point t0 = Clock::now();
    p.answered = client_.Call(req, &p.resp).ok();
    log_->Add("serve.probe", t0, Clock::now(),
              RequestId(Phase::kWriter, (uint64_t{1} << 40) | epoch_));
    wlog_.probes.push_back(p);
  }
}

void Control::SampleHealth() {
  abcs::serve::WireHealth h;
  const Clock::time_point t0 = Clock::now();
  const Status st = client_.Health(&h);
  if (st.ok()) {
    wlog_.queue_depth.push_back(static_cast<double>(h.queue_depth));
  } else if (!health_failed_) {
    health_failed_ = true;
    ReportFailure("health sample: " + st.ToString());
  }
  log_->Add("serve.health", t0, Clock::now(),
            RequestId(Phase::kWriter, uint64_t{2} << 40));
}

void Control::MeasureRtt(const WireRequest& req, int calls) {
  for (int i = 0; i < calls; ++i) {
    WireResponse resp;
    const Clock::time_point t0 = Clock::now();
    const Status st = client_.Call(req, &resp);
    const Clock::time_point t1 = Clock::now();
    log_->Add("serve.rtt", t0, t1,
              RequestId(Phase::kWriter, (uint64_t{3} << 40) | i));
    const bool ok = st.ok() && resp.status == WireStatus::kOk;
    acct_.Add(OpKind::kQuery, ok);
    if (ok && resp.memo_hit) wlog_.rtt_us.push_back(Seconds(t0, t1) * 1e6);
  }
}

}  // namespace perfbench
