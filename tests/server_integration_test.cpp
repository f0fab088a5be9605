// End-to-end suite for the uncertts query server (src/server):
//
//  * bitwise parity — N concurrent clients querying one server (every
//    measure: Euclid/DUST/PROUD/MUNICH; kNN, RQ, PRQ, sweeps) receive
//    responses bit-identical to a directly driven in-process Service/
//    EngineContext, at shared-pool widths 1, 2 and 8;
//  * kill-and-reconnect resume — a client killed mid-sweep reconnects with
//    its last seen sequence and receives the remaining responses from the
//    session backlog; the Service sweep-item counter pins that nothing is
//    recomputed;
//  * admission-control saturation — flooding a busy shard dispatcher with
//    a depth-2 queue yields explicit kSaturated rejections carrying the
//    configured retry hint, never a block or a crash, and a later retry
//    succeeds;
//  * multi-dataset residency through the wire (bind two, query both, list);
//  * stalled-peer hardening — a client that stops reading its socket stalls
//    a dispatcher for at most send_timeout_ms; responses buffer in the
//    session backlog and replay on reconnect;
//  * boundary validation — malformed ε, τ and k are rejected where a
//    request reads them, and binds with non-finite values or a bad σ,
//    directly on Service and as kBadRequest frames.
//
// Cross-shard behavior (per-dataset dispatchers, pool policies, global
// admission) lives in server_shard_test.cpp.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/session.hpp"
#include "ts/dataset.hpp"
#include "uncertain/error_spec.hpp"
#include "uncertain/perturb.hpp"

namespace uts::server {
namespace {

ts::Dataset MakeExact(std::size_t n, std::size_t len, std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("server-exact");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    d.Add(ts::TimeSeries(std::move(values), static_cast<int>(i % 2)));
  }
  return d.ZNormalizedCopy();
}

BindDatasetRequest MakeBind(const std::string& name, const ts::Dataset& exact,
                            std::uint32_t samples_per_point) {
  BindDatasetRequest request;
  request.name = name;
  request.kind = WireErrorKind::kNormal;
  request.sigma = 0.4;
  request.seed = 1234;
  request.samples_per_point = samples_per_point;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const auto values = exact[i].values();
    request.series.emplace_back(values.begin(), values.end());
    request.labels.push_back(exact[i].label());
  }
  return request;
}

measures::MunichOptions CheapMunich() {
  measures::MunichOptions options;
  options.mc_samples = 200;
  return options;
}

ServiceOptions MakeServiceOptions(std::size_t threads) {
  ServiceOptions options;
  options.threads = threads;
  options.munich = CheapMunich();
  return options;
}

std::string SocketPath(const std::string& tag) {
  return "/tmp/uts_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

void ExpectSameNeighbors(const std::vector<query::Neighbor>& a,
                         const std::vector<query::Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << "rank " << i;
    // EXPECT_EQ on doubles is exact equality: the parity claim is bitwise.
    EXPECT_EQ(a[i].distance, b[i].distance) << "rank " << i;
  }
}

TEST(ServerIntegration, ConcurrentClientsBitwiseParityAcrossPoolWidths) {
  const ts::Dataset exact = MakeExact(12, 32, 99);
  const BindDatasetRequest bind = MakeBind("d", exact, 3);
  constexpr std::size_t kClients = 4;
  constexpr std::uint32_t kK = 4;
  constexpr double kEpsilon = 5.0;
  constexpr double kTau = 0.2;

  // The single-width reference: a directly driven Service (a thin layer over
  // one EngineContext). Every server width below must match it bit for bit.
  Service reference(MakeServiceOptions(1));
  ASSERT_TRUE(reference.Bind(bind, 0).ok());
  struct Expected {
    KnnResponse euclid, dust, proud, munich;
    IndexListResponse range_dust, prq_munich;
    SweepResponse sweep_proud;
  };
  std::vector<Expected> expected(kClients);
  for (std::size_t q = 0; q < kClients; ++q) {
    QueryRequest query;
    query.dataset = "d";
    query.query = static_cast<std::uint32_t>(q);
    query.k = kK;
    query.epsilon = kEpsilon;
    query.tau = kTau;
    query.measure = WireMeasure::kEuclid;
    expected[q].euclid = reference.Knn(query, 0).ValueOrDie();
    query.measure = WireMeasure::kDust;
    expected[q].dust = reference.Knn(query, 0).ValueOrDie();
    expected[q].range_dust = reference.Range(query, 0).ValueOrDie();
    query.measure = WireMeasure::kProud;
    expected[q].proud = reference.Knn(query, 0).ValueOrDie();
    expected[q].sweep_proud = reference.MeasureSweep(query, 0).ValueOrDie();
    query.measure = WireMeasure::kMunich;
    expected[q].munich = reference.Knn(query, 0).ValueOrDie();
    expected[q].prq_munich = reference.Prq(query, 0).ValueOrDie();
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{8}}) {
    ServerOptions options;
    options.unix_socket_path =
        SocketPath("parity" + std::to_string(threads));
    options.service = MakeServiceOptions(threads);
    auto server_or = Server::Start(options);
    ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
    auto server = std::move(server_or).ValueOrDie();

    {
      Client::Options copts;
      copts.unix_socket_path = options.unix_socket_path;
      copts.token = 1000;
      auto binder = Client::Connect(copts);
      ASSERT_TRUE(binder.ok()) << binder.status().ToString();
      auto bound = binder.ValueOrDie()->Bind(bind);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      EXPECT_EQ(bound.ValueOrDie().num_series, 12u);
    }

    std::vector<std::thread> workers;
    std::vector<std::string> failures(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c] {
        Client::Options copts;
        copts.unix_socket_path = options.unix_socket_path;
        copts.token = c + 1;
        auto client_or = Client::Connect(copts);
        if (!client_or.ok()) {
          failures[c] = client_or.status().ToString();
          return;
        }
        auto client = std::move(client_or).ValueOrDie();
        QueryRequest query;
        query.dataset = "d";
        query.query = static_cast<std::uint32_t>(c);
        query.k = kK;
        query.epsilon = kEpsilon;
        query.tau = kTau;
        auto run = [&](WireMeasure m, auto&& call) {
          query.measure = m;
          return call();
        };
        auto euclid = run(WireMeasure::kEuclid,
                          [&] { return client->Knn(query); });
        auto dust = run(WireMeasure::kDust,
                        [&] { return client->Knn(query); });
        auto range = run(WireMeasure::kDust,
                         [&] { return client->Range(query); });
        auto proud = run(WireMeasure::kProud,
                         [&] { return client->Knn(query); });
        auto sweep = run(WireMeasure::kProud,
                         [&] { return client->MeasureSweep(query); });
        auto munich = run(WireMeasure::kMunich,
                          [&] { return client->Knn(query); });
        auto prq = run(WireMeasure::kMunich,
                       [&] { return client->Prq(query); });
        for (const Status& s :
             {euclid.status(), dust.status(), range.status(), proud.status(),
              sweep.status(), munich.status(), prq.status()}) {
          if (!s.ok()) {
            failures[c] = s.ToString();
            return;
          }
        }
        ExpectSameNeighbors(euclid.ValueOrDie().neighbors,
                            expected[c].euclid.neighbors);
        ExpectSameNeighbors(dust.ValueOrDie().neighbors,
                            expected[c].dust.neighbors);
        EXPECT_EQ(range.ValueOrDie().indices,
                  expected[c].range_dust.indices);
        ExpectSameNeighbors(proud.ValueOrDie().neighbors,
                            expected[c].proud.neighbors);
        EXPECT_EQ(sweep.ValueOrDie().values,
                  expected[c].sweep_proud.values);
        ExpectSameNeighbors(munich.ValueOrDie().neighbors,
                            expected[c].munich.neighbors);
        EXPECT_EQ(prq.ValueOrDie().indices,
                  expected[c].prq_munich.indices);
        // The per-request work accounting travels with every kNN answer.
        EXPECT_EQ(euclid.ValueOrDie().cost.candidates_total,
                  expected[c].euclid.cost.candidates_total);
      });
    }
    for (auto& w : workers) w.join();
    for (std::size_t c = 0; c < kClients; ++c) {
      EXPECT_TRUE(failures[c].empty())
          << "client " << c << " at " << threads
          << " threads: " << failures[c];
    }
    server->Stop();
  }
}

TEST(ServerIntegration, KillAndReconnectResumesSweepWithoutRecompute) {
  const ts::Dataset exact = MakeExact(10, 24, 7);
  const BindDatasetRequest bind = MakeBind("r", exact, 0);

  ServerOptions options;
  options.unix_socket_path = SocketPath("resume");
  options.service = MakeServiceOptions(1);
  auto server_or = Server::Start(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).ValueOrDie();

  Service reference(MakeServiceOptions(1));
  ASSERT_TRUE(reference.Bind(bind, 0).ok());

  Client::Options copts;
  copts.unix_socket_path = options.unix_socket_path;
  copts.token = 7;
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(client_or).ValueOrDie();
  ASSERT_TRUE(client->Bind(bind).ok());

  QueryRequest sweep;
  sweep.dataset = "r";
  sweep.measure = WireMeasure::kEuclid;
  sweep.query = 0;
  sweep.k = 3;
  sweep.num_queries = 10;
  ASSERT_TRUE(client->StartKnnSweep(sweep).ok());

  std::map<std::uint32_t, KnnResponse> received;
  for (int i = 0; i < 3; ++i) {
    bool done = false;
    auto item = client->NextSweepItem(&done);
    ASSERT_TRUE(item.ok()) << item.status().ToString();
    ASSERT_FALSE(done);
    received[item.ValueOrDie().query] = item.ValueOrDie();
  }

  // Kill the connection mid-stream. The dispatcher keeps computing and the
  // session buffers what it cannot send.
  client->CloseAbruptly();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  Service* shard_service = server->shard_service("r");
  ASSERT_NE(shard_service, nullptr);
  while (shard_service->stats().sweep_items < 10) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "sweep did not finish server-side";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::uint64_t computed_before = shard_service->stats().sweep_items;
  EXPECT_EQ(computed_before, 10u);

  // Resume: the server replays only the frames after our last seen
  // sequence — the remaining 7 items (and the terminator once delivered).
  ASSERT_TRUE(client->Reconnect().ok());
  EXPECT_EQ(client->hello().resumed, 1);
  EXPECT_GE(client->hello().replayed, 7u);
  while (true) {
    bool done = false;
    auto item = client->NextSweepItem(&done);
    ASSERT_TRUE(item.ok()) << item.status().ToString();
    if (done) break;
    const bool inserted =
        received.emplace(item.ValueOrDie().query, item.ValueOrDie()).second;
    EXPECT_TRUE(inserted) << "duplicate sweep item for query "
                          << item.ValueOrDie().query;
  }

  // Everything arrived exactly once, bit-identical to the direct engine —
  // and the server never recomputed a finished item.
  ASSERT_EQ(received.size(), 10u);
  for (std::uint32_t q = 0; q < 10; ++q) {
    QueryRequest one = sweep;
    one.query = q;
    one.num_queries = 0;
    const KnnResponse expected = reference.Knn(one, 0).ValueOrDie();
    ASSERT_TRUE(received.count(q));
    ExpectSameNeighbors(received[q].neighbors, expected.neighbors);
  }
  EXPECT_EQ(shard_service->stats().sweep_items, computed_before);
  server->Stop();
}

TEST(ServerIntegration, SaturationRejectsWithRetryHintInsteadOfBlocking) {
  ServerOptions options;
  options.unix_socket_path = SocketPath("saturate");
  options.queue_depth = 2;
  options.retry_after_ms = 5;
  options.service = MakeServiceOptions(1);
  auto server_or = Server::Start(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).ValueOrDie();

  // A raw-socket client gives full control over pipelining (the sync Client
  // would wait for each pong before sending the next ping).
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.unix_socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  HelloMessage hello;
  hello.client_token = 99;
  ASSERT_TRUE(WriteFrame(fd, MakeFrame(static_cast<std::uint8_t>(
                                           MessageType::kHello),
                                       0, hello.Encode())
                                 .ValueOrDie())
                  .ok());
  auto hello_ack = ReadFrame(fd);
  ASSERT_TRUE(hello_ack.ok());
  ASSERT_EQ(static_cast<MessageType>(hello_ack.ValueOrDie().header.type),
            MessageType::kHelloAck);

  // Stall the dispatcher, then flood: with the dispatcher busy and a
  // depth-2 queue, most of the burst must bounce with kSaturated.
  std::uint64_t seq = 1;
  PingRequest slow;
  slow.delay_ms = 300;
  ASSERT_TRUE(WriteFrame(fd, MakeFrame(static_cast<std::uint8_t>(
                                           MessageType::kPing),
                                       seq++, slow.Encode())
                                 .ValueOrDie())
                  .ok());
  constexpr int kBurst = 20;
  for (int i = 0; i < kBurst; ++i) {
    PingRequest fast;
    ASSERT_TRUE(WriteFrame(fd, MakeFrame(static_cast<std::uint8_t>(
                                             MessageType::kPing),
                                         seq++, fast.Encode())
                                   .ValueOrDie())
                    .ok());
  }

  // Drain until every burst request is answered one way or the other.
  int pongs = 0;
  int saturated = 0;
  while (pongs + saturated < kBurst + 1) {
    auto frame = ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    const auto type =
        static_cast<MessageType>(frame.ValueOrDie().header.type);
    if (type == MessageType::kPong) {
      ++pongs;
    } else if (type == MessageType::kError) {
      auto error = ErrorResponse::Decode(frame.ValueOrDie().payload);
      ASSERT_TRUE(error.ok());
      EXPECT_EQ(error.ValueOrDie().code, WireError::kSaturated);
      EXPECT_EQ(error.ValueOrDie().retry_after_ms, 5u);
      ++saturated;
    } else {
      FAIL() << "unexpected frame type";
    }
  }
  EXPECT_GE(saturated, 1);
  EXPECT_GE(pongs, 1);  // Admitted requests still complete.
  EXPECT_GE(server->stats().rejected, 1u);

  // After the storm a retry succeeds: saturation was a soft, retryable
  // condition, not a wedge.
  PingRequest retry;
  retry.echo = 424242;
  ASSERT_TRUE(WriteFrame(fd, MakeFrame(static_cast<std::uint8_t>(
                                           MessageType::kPing),
                                       seq++, retry.Encode())
                                 .ValueOrDie())
                  .ok());
  auto pong = ReadFrame(fd);
  ASSERT_TRUE(pong.ok());
  ASSERT_EQ(static_cast<MessageType>(pong.ValueOrDie().header.type),
            MessageType::kPong);
  auto decoded = PongResponse::Decode(pong.ValueOrDie().payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().echo, 424242u);

  ::close(fd);
  server->Stop();
}

TEST(ServerIntegration, StalledPeerTimesOutDeliveryAndReplaysOnReconnect) {
  // A peer that stops reading its socket must stall delivery for at most
  // one send timeout — not block the delivering dispatcher forever. The
  // frames stay in the session backlog and replay on the next Attach.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Shrink the pair's buffers so a handful of frames fills them.
  const int small = 8 * 1024;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  Session session(42, /*max_backlog_frames=*/1024, /*send_timeout_ms=*/50);
  session.Attach(fds[0], 0, false);

  // Deliver well past the socket buffering without ever reading fds[1].
  // Before the timeout hardening this loop blocked inside send() forever.
  const std::vector<std::uint8_t> payload(64 * 1024, 0xaa);
  constexpr std::uint64_t kFrames = 32;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t last_seq = 0;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    last_seq = session.Deliver(
        static_cast<std::uint8_t>(MessageType::kSweepResult), payload, i + 1);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Every frame was numbered and retained; the stall cost at most roughly
  // one timeout (after it fires, the connection is dead and later Delivers
  // do not touch the socket at all).
  EXPECT_EQ(last_seq, kFrames);
  EXPECT_FALSE(session.poisoned());
  EXPECT_GT(session.BacklogSize(), 0u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  ::close(fds[0]);
  ::close(fds[1]);

  // Reconnect on a fresh socket: Attach replays the full retained tail.
  int fresh[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fresh), 0);
  std::uint64_t highest_seen = 0;
  std::thread drain([&] {
    std::uint64_t frames_seen = 0;
    while (frames_seen < kFrames + 1) {  // HelloAck + the replayed tail.
      Result<Frame> frame = ReadFrame(fresh[1]);
      if (!frame.ok()) break;
      ++frames_seen;
      highest_seen = std::max(highest_seen, frame.ValueOrDie().header.sequence);
    }
  });
  const Session::AttachResult attach = session.Attach(fresh[0], 0, true);
  drain.join();
  EXPECT_EQ(attach.replayed, kFrames);
  EXPECT_EQ(highest_seen, kFrames);
  ::close(fresh[0]);
  ::close(fresh[1]);
}

TEST(ServerIntegration, MultiDatasetResidencyOverTheWire) {
  const ts::Dataset exact_a = MakeExact(8, 16, 1);
  const ts::Dataset exact_b = MakeExact(6, 20, 2);

  ServerOptions options;
  options.unix_socket_path = SocketPath("multi");
  options.service = MakeServiceOptions(1);
  auto server_or = Server::Start(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).ValueOrDie();

  Client::Options copts;
  copts.unix_socket_path = options.unix_socket_path;
  copts.token = 5;
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok());
  auto client = std::move(client_or).ValueOrDie();

  ASSERT_TRUE(client->Bind(MakeBind("alpha", exact_a, 0)).ok());
  ASSERT_TRUE(client->Bind(MakeBind("beta", exact_b, 0)).ok());
  auto list = client->ListDatasets();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.ValueOrDie().names,
            (std::vector<std::string>{"alpha", "beta"}));

  // Alternate queries across the two residents; each answers on its own
  // data (different sizes prove the routing).
  QueryRequest query;
  query.measure = WireMeasure::kDust;
  query.query = 0;
  query.k = 3;
  query.dataset = "alpha";
  auto a = client->Knn(query);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  query.dataset = "beta";
  auto b = client->Knn(query);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.ValueOrDie().cost.candidates_total, 7u);
  EXPECT_EQ(b.ValueOrDie().cost.candidates_total, 5u);

  // Unknown names and bad query indices fail cleanly over the wire.
  query.dataset = "gamma";
  auto missing = client->Knn(query);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(client->last_error().code, WireError::kNotFound);

  server->Stop();
}

QueryRequest MakeQuery(WireMeasure measure, std::uint32_t k, double epsilon,
                       double tau) {
  QueryRequest query;
  query.dataset = std::string("v");
  query.measure = measure;
  query.query = 1;
  query.k = k;
  query.epsilon = epsilon;
  query.tau = tau;
  query.num_queries = 2;
  return query;
}

TEST(ServerIntegration, ServiceRejectsMalformedQueryParameters) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr auto kInvalid = StatusCode::kInvalidArgument;
  constexpr WireMeasure kEuclid = WireMeasure::kEuclid;
  constexpr WireMeasure kDust = WireMeasure::kDust;
  constexpr WireMeasure kProud = WireMeasure::kProud;
  constexpr WireMeasure kMunich = WireMeasure::kMunich;
  Service service(MakeServiceOptions(1));
  ASSERT_TRUE(service.Bind(MakeBind("v", MakeExact(12, 16, 5), 3), 1).ok());

  // ε is rejected wherever a request reads it.
  for (double eps : {kNaN, kInf, -kInf, -1.0}) {
    for (WireMeasure m : {kEuclid, kDust}) {
      EXPECT_EQ(service.Range(MakeQuery(m, 3, eps, 0.5), 2).status().code(),
                kInvalid);
    }
    for (WireMeasure m : {kProud, kMunich}) {
      EXPECT_EQ(service.Prq(MakeQuery(m, 3, eps, 0.5), 2).status().code(),
                kInvalid);
      EXPECT_EQ(service.Knn(MakeQuery(m, 3, eps, 0.5), 2).status().code(),
                kInvalid);
      EXPECT_EQ(
          service.MeasureSweep(MakeQuery(m, 3, eps, 0.5), 2).status().code(),
          kInvalid);
    }
  }
  // τ outside (0, 1), NaN included, on PRQ.
  for (double tau : {kNaN, 0.0, 1.0, -0.5, 1.5, kInf}) {
    for (WireMeasure m : {kProud, kMunich}) {
      EXPECT_EQ(service.Prq(MakeQuery(m, 3, 1.0, tau), 2).status().code(),
                kInvalid);
    }
  }
  // k = 0 on kNN, under every measure.
  for (WireMeasure m : {kEuclid, kDust, kProud, kMunich}) {
    EXPECT_EQ(service.Knn(MakeQuery(m, 0, 1.0, 0.5), 2).status().code(),
              kInvalid);
  }

  // Fields a request does not read are not checked: the calibration kNN
  // (ε = 0, τ = 0), ε and τ on Euclidean/DUST kNN, τ on range, ε on the
  // DUST sweep, k on PRQ. ε = 0 is a valid threshold.
  for (WireMeasure m : {kEuclid, kDust}) {
    EXPECT_TRUE(service.Knn(MakeQuery(m, 3, 0.0, 0.0), 2).ok());
    EXPECT_TRUE(service.Knn(MakeQuery(m, 3, kNaN, kNaN), 2).ok());
    EXPECT_TRUE(service.Range(MakeQuery(m, 0, 0.0, kNaN), 2).ok());
  }
  EXPECT_TRUE(service.MeasureSweep(MakeQuery(kDust, 0, kNaN, kNaN), 2).ok());
  for (WireMeasure m : {kProud, kMunich}) {
    EXPECT_TRUE(service.Prq(MakeQuery(m, 0, 0.0, 0.5), 2).ok());
    EXPECT_TRUE(service.Knn(MakeQuery(m, 3, 0.0, kNaN), 2).ok());
  }
}

TEST(ServerIntegration, MalformedBindsAndQueriesFailOverTheWire) {
  ServerOptions options;
  options.unix_socket_path = SocketPath("validate");
  options.service = MakeServiceOptions(2);
  auto server_or = Server::Start(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).ValueOrDie();

  Client::Options copts;
  copts.unix_socket_path = options.unix_socket_path;
  copts.token = 9;
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok());
  auto client = std::move(client_or).ValueOrDie();

  // Each rejection arrives as a kBadRequest frame naming the field.
  auto expect_bad_request = [&](const Status& status, const char* what) {
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_EQ(client->last_error().code, WireError::kBadRequest) << what;
    EXPECT_NE(client->last_error().message.find(what), std::string::npos)
        << client->last_error().message;
  };
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const ts::Dataset exact = MakeExact(12, 16, 5);
  BindDatasetRequest nan_value = MakeBind("v", exact, 3);
  nan_value.series[2][0] = kNaN;
  expect_bad_request(client->Bind(nan_value).status(), "bind: series values");
  BindDatasetRequest zero_sigma = MakeBind("v", exact, 3);
  zero_sigma.sigma = 0.0;
  expect_bad_request(client->Bind(zero_sigma).status(), "bind: sigma");
  ASSERT_TRUE(client->Bind(MakeBind("v", exact, 3)).ok());
  expect_bad_request(
      client->Knn(MakeQuery(WireMeasure::kProud, 3, kNaN, 0.5)).status(),
      "knn: epsilon");
  expect_bad_request(
      client->Prq(MakeQuery(WireMeasure::kMunich, 3, 1.0, 1.0)).status(),
      "prq: tau");
  expect_bad_request(
      client->Range(MakeQuery(WireMeasure::kDust, 3, -1.0, 0.5)).status(),
      "range: epsilon");
  expect_bad_request(
      client->MeasureSweep(MakeQuery(WireMeasure::kProud, 3, kInf, 0.5))
          .status(),
      "sweep: epsilon");

  // A k = 0 sweep fails at its first item.
  ASSERT_TRUE(
      client->StartKnnSweep(MakeQuery(WireMeasure::kEuclid, 0, 0.0, 0.0)).ok());
  bool done = false;
  expect_bad_request(client->NextSweepItem(&done).status(), "knn: k");
  EXPECT_FALSE(done);

  // The connection keeps serving; the calibration kNN shape still works.
  auto ok = client->Knn(MakeQuery(WireMeasure::kEuclid, 3, 0.0, 0.0));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.ValueOrDie().neighbors.size(), 3u);
  server->Stop();
}

TEST(ServerIntegration, MunichWithoutSampleModelIsUnavailableOverTheWire) {
  // A dataset bound with samples_per_point = 0 has no sample model, so
  // every MUNICH request on it answers kUnavailable, while the other
  // measures keep serving it over the same connection.
  ServerOptions options;
  options.unix_socket_path = SocketPath("unavailable");
  options.service = MakeServiceOptions(1);
  auto server_or = Server::Start(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).ValueOrDie();

  Client::Options copts;
  copts.unix_socket_path = options.unix_socket_path;
  copts.token = 10;
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok());
  auto client = std::move(client_or).ValueOrDie();
  ASSERT_TRUE(client->Bind(MakeBind("v", MakeExact(12, 16, 6), 0)).ok());

  auto expect_unavailable = [&](const Status& status, const char* what) {
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_EQ(client->last_error().code, WireError::kUnavailable) << what;
    EXPECT_NE(client->last_error().message.find("sample model"),
              std::string::npos)
        << client->last_error().message;
  };
  const QueryRequest munich = MakeQuery(WireMeasure::kMunich, 3, 1.0, 0.5);
  expect_unavailable(client->Knn(munich).status(), "knn");
  expect_unavailable(client->Prq(munich).status(), "prq");
  expect_unavailable(client->MeasureSweep(munich).status(), "sweep");

  auto proud = client->Prq(MakeQuery(WireMeasure::kProud, 3, 1.0, 0.5));
  ASSERT_TRUE(proud.ok()) << proud.status().ToString();
  server->Stop();
}

TEST(ServerIntegration, ServiceRejectsMalformedBinds) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr auto kInvalid = StatusCode::kInvalidArgument;
  const ts::Dataset exact = MakeExact(6, 8, 5);
  Service service(MakeServiceOptions(1));

  // A non-finite value anywhere in the series, under either regime.
  for (double bad : {kNaN, kInf, -kInf}) {
    for (std::uint8_t mixed : {0, 1}) {
      BindDatasetRequest bind = MakeBind("v", exact, 0);
      bind.mixed_sigma = mixed;
      bind.series[3][5] = bad;
      EXPECT_EQ(service.Bind(bind, 1).status().code(), kInvalid);
    }
  }
  // A non-finite or non-positive σ where the constant regime reads it.
  for (double sigma : {kNaN, kInf, -kInf, 0.0, -0.4}) {
    BindDatasetRequest bind = MakeBind("v", exact, 0);
    bind.sigma = sigma;
    EXPECT_EQ(service.Bind(bind, 1).status().code(), kInvalid);
  }
  EXPECT_TRUE(service.List(1).names.empty());

  // The mixed regime does not read σ; the paper's σ levels still bind.
  BindDatasetRequest mixed = MakeBind("mixed", exact, 0);
  mixed.mixed_sigma = 1;
  mixed.sigma = kNaN;
  EXPECT_TRUE(service.Bind(mixed, 1).ok());
  for (double sigma : {0.4, 0.5, 0.75}) {
    BindDatasetRequest bind = MakeBind("v", exact, 2);
    bind.sigma = sigma;
    EXPECT_TRUE(service.Bind(bind, 1).ok()) << sigma;
  }
}

TEST(ServerIntegration, KnnSweepWrappingBlockFailsAtFirstBadQuery) {
  // query + num_queries overflows 32 bits in both blocks below; each must
  // still stream its valid items and then fail NotFound at its first
  // out-of-range query, like any sweep that runs past the dataset.
  const ts::Dataset exact = MakeExact(12, 16, 31);
  ServerOptions options;
  options.unix_socket_path = SocketPath("wrap");
  options.service = MakeServiceOptions(1);
  auto server_or = Server::Start(options);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  auto server = std::move(server_or).ValueOrDie();

  Client::Options copts;
  copts.unix_socket_path = options.unix_socket_path;
  copts.token = 11;
  auto client_or = Client::Connect(copts);
  ASSERT_TRUE(client_or.ok());
  auto client = std::move(client_or).ValueOrDie();
  ASSERT_TRUE(client->Bind(MakeBind("w", exact, 0)).ok());

  QueryRequest sweep;
  sweep.dataset = "w";
  sweep.measure = WireMeasure::kEuclid;
  sweep.k = 3;
  sweep.query = 0xFFFFFFFFu;
  sweep.num_queries = 2;
  ASSERT_TRUE(client->StartKnnSweep(sweep).ok());
  bool done = false;
  EXPECT_FALSE(client->NextSweepItem(&done).ok());
  EXPECT_FALSE(done);
  EXPECT_EQ(client->last_error().code, WireError::kNotFound);

  sweep.query = 5;
  sweep.num_queries = 0xFFFFFFFFu;
  ASSERT_TRUE(client->StartKnnSweep(sweep).ok());
  std::vector<std::uint32_t> queries;
  while (true) {
    auto item = client->NextSweepItem(&done);
    if (!item.ok()) break;
    ASSERT_FALSE(done) << "the block ended without an error";
    queries.push_back(item.ValueOrDie().query);
  }
  EXPECT_FALSE(done);
  EXPECT_EQ(client->last_error().code, WireError::kNotFound);
  EXPECT_EQ(queries, (std::vector<std::uint32_t>{5, 6, 7, 8, 9, 10, 11}));
  server->Stop();
}

TEST(ServerIntegration, ServiceServesEveryMeasureFromOnePack) {
  // Euclidean requests read the uncertain engine's observation store: a
  // bound dataset is packed once for all four measures and no certain
  // engine is built, yet the answers are exactly a DistanceMatrixEngine's
  // over the observations of the same deterministic perturbation.
  const ts::Dataset exact = MakeExact(12, 16, 41);
  const BindDatasetRequest bind = MakeBind("p", exact, 0);
  ServiceOptions service_options = MakeServiceOptions(2);
  service_options.index.enabled = true;
  Service service(service_options);
  ASSERT_TRUE(service.Bind(bind, 1).ok());

  QueryRequest query;
  query.dataset = "p";
  query.query = 3;
  query.k = 4;
  query.epsilon = 5.0;
  query.tau = 0.2;
  query.measure = WireMeasure::kEuclid;
  auto knn = service.Knn(query, 2);
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  auto range = service.Range(query, 3);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  query.measure = WireMeasure::kDust;
  ASSERT_TRUE(service.Knn(query, 4).ok());
  query.measure = WireMeasure::kProud;
  ASSERT_TRUE(service.Prq(query, 5).ok());
  EXPECT_EQ(service.context().stats().certain_packs, 0u);
  EXPECT_EQ(service.context().stats().pdf_packs, 1u);

  const uncertain::UncertainDataset pdf = uncertain::PerturbDataset(
      exact, uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.4),
      bind.seed);
  ts::Dataset observed("observed");
  for (const auto& series : pdf.series) observed.Add(series.AsTimeSeries());
  query::EngineOptions engine_options;
  engine_options.index.enabled = true;
  const auto reference = query::DistanceMatrixEngine::Create(
      observed, engine_options).ValueOrDie();
  index::SearchCost knn_cost, range_cost;
  ExpectSameNeighbors(
      knn.ValueOrDie().neighbors,
      reference.KNearestEuclidean(3, 4, &knn_cost).ValueOrDie());
  const auto matches =
      reference.RangeSearchEuclidean(3, 5.0, &range_cost).ValueOrDie();
  EXPECT_EQ(range.ValueOrDie().indices,
            std::vector<std::uint64_t>(matches.begin(), matches.end()));
  for (const auto& [got, want] :
       {std::pair{knn.ValueOrDie().cost, knn_cost},
        std::pair{range.ValueOrDie().cost, range_cost}}) {
    EXPECT_EQ(got.candidates_total, want.candidates_total);
    EXPECT_EQ(got.candidates_touched, want.candidates_touched);
    EXPECT_EQ(got.pruned_lower_bound, want.pruned_lower_bound);
    EXPECT_EQ(got.abandoned_early, want.abandoned_early);
  }
}

}  // namespace
}  // namespace uts::server
