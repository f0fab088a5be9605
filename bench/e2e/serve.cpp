/// \file serve.cpp
/// \brief The serve_* workloads: an in-process `server::Server` on a Unix
/// socket with the daemon's defaults (one worker thread per shard, per-shard
/// pools, no index), driven by closed-loop `server::Client`s.
///
/// Phases of one run: build the inputs from the seed; set up fresh servers
/// and time each (the last one is kept); calibrate ε through the server;
/// warm up; measure; verify a sample of the responses on private
/// `server::Service`s bound identically. A per-layer run (`--trace 1`) also
/// samples the shard counters during the window and then replays requests
/// through the client / service / activate ladder on the idle server.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "datagen/registry.hpp"
#include "exec/thread_pool.hpp"
#include "harness.hpp"
#include "query/engine_context.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "server/wire.hpp"
#include "ts/buffer_pool.hpp"
#include "uncertain/error_spec.hpp"
#include "uncertain/perturb.hpp"

namespace uts::e2e {
namespace {

using server::WireMeasure;

enum class Op { kKnn, kRange, kPrq, kSweep, kKnnSweep };

/// Metric group of an op: MeasureSweep and KnnSweep are both sweeps.
int GroupOf(Op op) {
  switch (op) {
    case Op::kKnn: return 0;
    case Op::kRange: return 1;
    case Op::kPrq: return 2;
    default: return 3;
  }
}
constexpr int kGroups = 4;
constexpr const char* kGroupMetric[kGroups] = {
    "knn_p50_ms", "range_p50_ms", "prq_p50_ms", "sweep_p50_ms"};

constexpr std::uint32_t kK = 10;
constexpr double kTau = 0.5;
constexpr std::uint32_t kSweepBlock = 16;
constexpr std::size_t kCalibrationQueries = 32;
constexpr std::size_t kLadderPerGroup = 64;
constexpr std::size_t kVerifyEvery = 8;
constexpr double kWarmupSeconds = 1.0;
constexpr auto kRebindPeriod = std::chrono::milliseconds(500);
constexpr double kMiB = 1024.0 * 1024.0;

/// One bound dataset; reads split evenly across the datasets.
struct DatasetPlan {
  const char* name;  ///< Registry name, also the residency name.
  server::WireErrorKind kind;
  double sigma;
  bool mixed_sigma;
};

/// One kind of read and its share of the mix, in twentieths.
struct MixEntry {
  Op op;
  WireMeasure measure;
  int twentieths;
};

struct ServeConfig {
  std::vector<DatasetPlan> datasets;
  std::vector<MixEntry> mix;
  std::size_t readers = 3;  ///< Closed-loop reading clients.
  std::size_t memory_budget_bytes = 0;
  bool rebind_writer = false;  ///< One more client re-binds datasets[0].
};

ServeConfig ConfigFor(const std::string& workload) {
  ServeConfig config;
  if (workload == "serve_small_rpc") {
    config.datasets = {
        {"ECG200", server::WireErrorKind::kNormal, 0.4, true},
        {"GunPoint", server::WireErrorKind::kUniform, 0.4, false}};
    config.mix = {{Op::kKnn, WireMeasure::kEuclid, 8},
                  {Op::kKnn, WireMeasure::kDust, 4},
                  {Op::kRange, WireMeasure::kEuclid, 4},
                  {Op::kPrq, WireMeasure::kProud, 2},
                  {Op::kKnnSweep, WireMeasure::kEuclid, 2}};
    return config;
  }
  config.datasets = {
      {"FaceAll", server::WireErrorKind::kNormal, 0.4, true},
      {"50words", server::WireErrorKind::kUniform, 0.4, false}};
  config.mix = {{Op::kKnn, WireMeasure::kEuclid, 5},
                {Op::kKnn, WireMeasure::kDust, 3},
                {Op::kKnn, WireMeasure::kProud, 1},
                {Op::kRange, WireMeasure::kEuclid, 3},
                {Op::kRange, WireMeasure::kDust, 2},
                {Op::kPrq, WireMeasure::kProud, 3},
                {Op::kSweep, WireMeasure::kDust, 2},
                {Op::kSweep, WireMeasure::kProud, 1}};
  if (workload == "serve_paged_rebind") {
    config.readers = 2;
    config.memory_budget_bytes = std::size_t{1} << 20;
    config.rebind_writer = true;
  }
  return config;
}

// --- Requests and answers ---------------------------------------------------

/// Any response the benchmark compares. A KnnSweep yields its item list.
using Answer =
    std::variant<server::KnnResponse, server::IndexListResponse,
                 server::SweepResponse, std::vector<server::KnnResponse>>;

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameCost(const server::WireSearchCost& a,
              const server::WireSearchCost& b) {
  return a.candidates_total == b.candidates_total &&
         a.candidates_touched == b.candidates_touched &&
         a.pruned_lower_bound == b.pruned_lower_bound &&
         a.abandoned_early == b.abandoned_early;
}

bool Same(const server::KnnResponse& a, const server::KnnResponse& b) {
  if (a.query != b.query || a.neighbors.size() != b.neighbors.size() ||
      !SameCost(a.cost, b.cost)) {
    return false;
  }
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    if (a.neighbors[i].index != b.neighbors[i].index ||
        !SameBits(a.neighbors[i].distance, b.neighbors[i].distance)) {
      return false;
    }
  }
  return true;
}

bool Same(const server::IndexListResponse& a,
          const server::IndexListResponse& b) {
  return a.indices == b.indices && SameCost(a.cost, b.cost);
}

bool Same(const server::SweepResponse& a, const server::SweepResponse& b) {
  return a.values.size() == b.values.size() &&
         std::equal(a.values.begin(), a.values.end(), b.values.begin(),
                    SameBits);
}

bool Same(const std::vector<server::KnnResponse>& a,
          const std::vector<server::KnnResponse>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const auto& x, const auto& y) { return Same(x, y); });
}

bool Same(const Answer& a, const Answer& b) {
  return a.index() == b.index() &&
         std::visit(
             [&b](const auto& x) {
               return Same(x, std::get<std::decay_t<decltype(x)>>(b));
             },
             a);
}

template <typename T>
Result<Answer> Wrap(Result<T> r) {
  if (!r.ok()) return r.status();
  return Answer(std::move(r).ValueOrDie());
}

/// One request through the socket.
Result<Answer> ViaClient(server::Client& client, Op op,
                         const server::QueryRequest& request) {
  switch (op) {
    case Op::kKnn: return Wrap(client.Knn(request));
    case Op::kRange: return Wrap(client.Range(request));
    case Op::kPrq: return Wrap(client.Prq(request));
    case Op::kSweep: return Wrap(client.MeasureSweep(request));
    case Op::kKnnSweep: {
      Status started = client.StartKnnSweep(request);
      if (!started.ok()) return started;
      std::vector<server::KnnResponse> items;
      bool done = false;
      while (true) {
        Result<server::KnnResponse> item = client.NextSweepItem(&done);
        if (!item.ok()) return item.status();
        if (done) break;
        items.push_back(std::move(item).ValueOrDie());
      }
      return Answer(std::move(items));
    }
  }
  return Status::InvalidArgument("unknown op");
}

/// The same request executed directly on a Service (the server runs a
/// KnnSweep as one Service::Knn per query of the block).
Result<Answer> ViaService(server::Service& service, Op op,
                          const server::QueryRequest& request) {
  switch (op) {
    case Op::kKnn: return Wrap(service.Knn(request, 0));
    case Op::kRange: return Wrap(service.Range(request, 0));
    case Op::kPrq: return Wrap(service.Prq(request, 0));
    case Op::kSweep: return Wrap(service.MeasureSweep(request, 0));
    case Op::kKnnSweep: {
      std::vector<server::KnnResponse> items;
      server::QueryRequest single = request;
      for (std::uint32_t q = request.query;
           q < request.query + request.num_queries; ++q) {
        single.query = q;
        Result<server::KnnResponse> item = service.Knn(single, 0);
        if (!item.ok()) return item.status();
        items.push_back(std::move(item).ValueOrDie());
      }
      return Answer(std::move(items));
    }
  }
  return Status::InvalidArgument("unknown op");
}

/// One planned read.
struct Request {
  Op op = Op::kKnn;
  std::size_t dataset = 0;
  server::QueryRequest query;
};

/// One read of the measured window.
struct Sample {
  Request request;
  Clock::time_point send, recv;
  bool ok = false;
  std::optional<Answer> answer;  ///< Kept for the verification sample.
};

/// What one reading client did.
struct ReaderLog {
  std::vector<Sample> samples;  ///< Reads sent inside the window.
  std::uint64_t attempted = 0;  ///< Warm-up and window.
  std::uint64_t failed = 0;
};

/// One bind of the rebind writer.
struct BindEvent {
  Clock::time_point due, send, recv;
  int version = 0;
  bool ok = false;
};

// --- Inputs -----------------------------------------------------------------

/// Everything generated from the seed before the first server starts.
struct Inputs {
  ServeConfig config;
  std::uint64_t seed = 0;
  std::vector<ts::Dataset> exact;
  std::vector<std::size_t> rows, length;
  /// binds[d][v]: dataset d perturbed with seed + v; v = 1 exists only for
  /// the re-bound dataset of serve_paged_rebind.
  std::vector<std::vector<server::BindDatasetRequest>> binds;
  std::vector<WireMeasure> measures;  ///< Distinct measures of the mix.
  std::vector<double> eps_euclid, eps_dust;
};

server::BindDatasetRequest MakeBind(const DatasetPlan& plan,
                                    const ts::Dataset& exact,
                                    std::uint64_t seed) {
  server::BindDatasetRequest request;
  request.name = plan.name;
  request.kind = plan.kind;
  request.sigma = plan.sigma;
  request.mixed_sigma = plan.mixed_sigma ? 1 : 0;
  request.seed = seed;
  for (const auto& series : exact) {
    const auto values = series.values();
    request.series.emplace_back(values.begin(), values.end());
    request.labels.push_back(series.label());
  }
  return request;
}

Inputs MakeInputs(const std::string& workload, std::uint64_t seed) {
  Inputs in;
  in.config = ConfigFor(workload);
  in.seed = seed;
  for (std::size_t d = 0; d < in.config.datasets.size(); ++d) {
    const DatasetPlan& plan = in.config.datasets[d];
    auto spec = datagen::SpecByName(plan.name).ValueOrDie();
    in.exact.push_back(datagen::Generate(spec, seed + d).ZNormalizedCopy());
    in.rows.push_back(in.exact.back().size());
    in.length.push_back(in.exact.back()[0].size());
    in.binds.emplace_back();
    in.binds.back().push_back(MakeBind(plan, in.exact.back(), seed));
    if (in.config.rebind_writer && d == 0) {
      in.binds.back().push_back(MakeBind(plan, in.exact.back(), seed + 1));
    }
  }
  for (const MixEntry& entry : in.config.mix) {
    if (std::find(in.measures.begin(), in.measures.end(), entry.measure) ==
        in.measures.end()) {
      in.measures.push_back(entry.measure);
    }
  }
  in.eps_euclid.assign(in.exact.size(), 0.0);
  in.eps_dust.assign(in.exact.size(), 0.0);
  return in;
}

/// A client's reads: a deck holding every (dataset, mix entry) card in its
/// exact proportion, reshuffled from the seed each time it runs out, so a
/// client's mix is exact to within one deck and only the order and the
/// query series are random.
class Schedule {
 public:
  Schedule(const Inputs& in, std::uint64_t seed) : in_(in), rng_(seed) {
    for (std::size_t d = 0; d < in.config.datasets.size(); ++d) {
      for (const MixEntry& e : in.config.mix) {
        for (int i = 0; i < e.twentieths; ++i) deck_.emplace_back(d, &e);
      }
    }
    next_ = deck_.size();
  }

  Request Next() {
    if (next_ == deck_.size()) {
      for (std::size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.Below(i + 1)]);
      }
      next_ = 0;
    }
    const auto [d, entry] = deck_[next_++];
    Request r;
    r.op = entry->op;
    r.dataset = d;
    server::QueryRequest& q = r.query;
    q.dataset = in_.config.datasets[d].name;
    q.measure = entry->measure;
    q.k = kK;
    q.tau = kTau;
    q.epsilon = entry->measure == WireMeasure::kDust ? in_.eps_dust[d]
                                                     : in_.eps_euclid[d];
    if (r.op == Op::kKnnSweep) {
      q.num_queries = kSweepBlock;
      q.query = static_cast<std::uint32_t>(
          rng_.Below(in_.rows[d] - kSweepBlock + 1));
    } else {
      q.query = static_cast<std::uint32_t>(rng_.Below(in_.rows[d]));
    }
    return r;
  }

 private:
  const Inputs& in_;
  Rng rng_;
  std::vector<std::pair<std::size_t, const MixEntry*>> deck_;
  std::size_t next_ = 0;
};

// --- Server set-up ----------------------------------------------------------

server::ServiceOptions MakeServiceOptions(const Inputs& in,
                                          const std::string& scratch) {
  server::ServiceOptions options;  // the daemon's defaults
  options.memory_budget_bytes = in.config.memory_budget_bytes;
  options.spill_dir = scratch;
  return options;
}

Result<std::unique_ptr<server::Client>> Connect(const std::string& socket,
                                                std::uint64_t token) {
  server::Client::Options options;
  options.unix_socket_path = socket;
  options.token = token;
  return server::Client::Connect(options);
}

/// One fresh set-up: start, bind every dataset, and send one query per
/// (dataset, measure) so that every lazy build finishes.
Result<std::unique_ptr<server::Server>> SetUp(const Inputs& in,
                                              const std::string& socket,
                                              const std::string& scratch) {
  server::ServerOptions options;  // the daemon's defaults
  options.unix_socket_path = socket;
  options.service = MakeServiceOptions(in, scratch);
  UTS_ASSIGN_OR_RETURN(auto srv, server::Server::Start(options));
  UTS_ASSIGN_OR_RETURN(auto client, Connect(socket, 1));
  for (const auto& versions : in.binds) {
    UTS_RETURN_NOT_OK(client->Bind(versions.front()).status());
  }
  for (const auto& versions : in.binds) {
    for (WireMeasure measure : in.measures) {
      server::QueryRequest q;
      q.dataset = versions.front().name;
      q.measure = measure;
      q.k = kK;
      q.epsilon = 1.0;
      UTS_RETURN_NOT_OK(client->Knn(q).status());
    }
  }
  return srv;
}

/// ε as in the paper (§4.1.2): per dataset, the median 10th-NN distance over
/// 32 queries, Euclidean on the observations and DUST.
Status Calibrate(Inputs& in, const std::string& socket) {
  std::vector<Status> status(in.exact.size(), Status::OK());
  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < in.exact.size(); ++d) {
    threads.emplace_back([&in, &status, &socket, d] {
      auto client = Connect(socket, 100 + d);
      if (!client.ok()) {
        status[d] = client.status();
        return;
      }
      Rng rng(in.seed * 31 + d);
      std::vector<double> euclid, dust;
      for (std::size_t i = 0; i < kCalibrationQueries; ++i) {
        server::QueryRequest q;
        q.dataset = in.config.datasets[d].name;
        q.query = static_cast<std::uint32_t>(rng.Below(in.rows[d]));
        q.k = kK;
        for (WireMeasure m : {WireMeasure::kEuclid, WireMeasure::kDust}) {
          q.measure = m;
          auto r = client.ValueOrDie()->Knn(q);
          if (!r.ok() || r.ValueOrDie().neighbors.size() != kK) {
            status[d] = r.ok() ? Status::Corruption("short kNN answer")
                               : r.status();
            return;
          }
          (m == WireMeasure::kEuclid ? euclid : dust)
              .push_back(r.ValueOrDie().neighbors.back().distance);
        }
      }
      in.eps_euclid[d] = Median(euclid);
      in.eps_dust[d] = Median(dust);
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : status) UTS_RETURN_NOT_OK(s);
  return Status::OK();
}

// --- Load -------------------------------------------------------------------

/// Phases the main thread announces to the clients.
enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// A closed-loop reader: next request only after the previous answer.
void ReadLoop(const Inputs& in, const std::string& socket, std::size_t id,
              std::size_t verify_every, const std::atomic<int>& phase,
              ReaderLog& log) {
  auto client = Connect(socket, 10 + id);
  if (!client.ok()) {
    ++log.attempted;
    ++log.failed;
    return;
  }
  Schedule schedule(in, in.seed * 1000003 + id);
  const std::size_t verify_offset = (in.seed + id) % verify_every;
  std::size_t measured = 0;
  while (true) {
    const int p = phase.load();
    if (p == kStop) break;
    Request request = schedule.Next();
    Sample s;
    s.send = Clock::now();
    Result<Answer> answer =
        ViaClient(*client.ValueOrDie(), request.op, request.query);
    s.recv = Clock::now();
    s.ok = answer.ok();
    ++log.attempted;
    if (!s.ok) ++log.failed;
    if (p != kMeasure) continue;
    if (s.ok && measured % verify_every == verify_offset) {
      s.answer = std::move(answer).ValueOrDie();
    }
    ++measured;
    s.request = std::move(request);
    log.samples.push_back(std::move(s));
  }
}

/// The open-loop writer of serve_paged_rebind: re-binds datasets[0] every
/// 500 ms from `start` until `end`, alternating seeds s+1 and s. Each bind
/// is timed from when it was due.
void WriteLoop(const Inputs& in, const std::string& socket,
               Clock::time_point start, Clock::time_point end,
               std::vector<BindEvent>& log) {
  auto client = Connect(socket, 9);
  if (!client.ok()) {
    log.push_back(BindEvent{start, start, start, 0, false});
    return;
  }
  int version = 0;
  for (int i = 0;; ++i) {
    BindEvent e;
    e.due = start + i * kRebindPeriod;
    if (e.due >= end) break;
    std::this_thread::sleep_until(e.due);
    version ^= 1;
    e.version = version;
    e.send = Clock::now();
    e.ok = client.ValueOrDie()->Bind(in.binds[0][version]).ok();
    e.recv = Clock::now();
    log.push_back(e);
  }
}

/// The versions of datasets[0] a read over [send, recv] may observe: the
/// one bound before it was sent, plus every bind overlapping it.
std::vector<int> VersionsDuring(const std::vector<BindEvent>& binds,
                                Clock::time_point send,
                                Clock::time_point recv) {
  std::vector<int> versions;
  int before = 0;
  for (const BindEvent& b : binds) {
    if (!b.ok) continue;
    if (b.recv < send) {
      before = b.version;
    } else if (b.send <= recv) {
      versions.push_back(b.version);
    }
  }
  versions.push_back(before);
  return versions;
}

// --- Layer counters -----------------------------------------------------------

/// Buffer-pool counters summed over the shards (max for the peak).
struct PoolTotals {
  std::uint64_t faults = 0, pins = 0, spilled = 0;
  std::size_t peak_resident = 0;
};

PoolTotals SumPools(
    const std::vector<std::shared_ptr<ts::BufferPool>>& pools) {
  PoolTotals t;
  for (const auto& pool : pools) {
    if (pool == nullptr) continue;
    const ts::BufferPool::Stats s = pool->stats();
    t.faults += s.faults;
    t.pins += s.pins;
    t.spilled += s.spilled_bytes;
    t.peak_resident = std::max(t.peak_resident, s.peak_resident_bytes);
  }
  return t;
}

/// Engine-context counters summed over the shards; read only while the
/// server is idle (the context is not thread-safe).
query::EngineContext::Stats SumContexts(server::Server& srv,
                                        const Inputs& in) {
  query::EngineContext::Stats t;
  for (const DatasetPlan& plan : in.config.datasets) {
    server::Service* service = srv.shard_service(plan.name);
    if (service == nullptr) continue;
    const query::EngineContext::Stats& s = service->context().stats();
    t.pdf_packs += s.pdf_packs;
    t.certain_packs += s.certain_packs;
    t.dust_table_builds += s.dust_table_builds;
    t.acquires_served += s.acquires_served;
    t.acquires_declined += s.acquires_declined;
  }
  return t;
}

std::uint64_t SumDispatched(const server::Server& srv, const Inputs& in) {
  std::uint64_t n = 0;
  for (const DatasetPlan& plan : in.config.datasets) {
    n += srv.shard_stats(plan.name).dispatched;
  }
  return n;
}

/// Samples the shard queues every 10 ms (the per-layer run only).
struct QueueSampler {
  std::vector<double> lengths;
  double busy_s = 0.0;

  void Run(const server::Server& srv, const Inputs& in,
           const std::atomic<bool>& stop) {
    while (!stop.load()) {
      const auto t0 = Clock::now();
      double queued = 0.0;
      for (const DatasetPlan& plan : in.config.datasets) {
        const auto s = srv.shard_stats(plan.name);
        queued += static_cast<double>(s.admitted - s.dispatched);
      }
      lengths.push_back(queued);
      busy_s += Seconds(t0, Clock::now());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
};

/// Distance bytes a request streams: touched rows when the engine exports
/// its cost, every row otherwise.
void AddBytes(const Answer& answer, std::size_t rows, std::size_t length,
              double* bytes, double* touched, double* total) {
  auto add_cost = [&](const server::WireSearchCost& cost) {
    const double row_bytes = static_cast<double>(length) * sizeof(double);
    if (cost.candidates_total > 0) {
      *bytes += static_cast<double>(cost.candidates_touched) * row_bytes;
      *touched += static_cast<double>(cost.candidates_touched);
      *total += static_cast<double>(cost.candidates_total);
    } else {
      *bytes += static_cast<double>(rows) * row_bytes;
    }
  };
  std::visit(
      [&](const auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, server::SweepResponse>) {
          add_cost(server::WireSearchCost{});
        } else if constexpr (std::is_same_v<T,
                                            std::vector<server::KnnResponse>>) {
          for (const auto& item : a) add_cost(item.cost);
        } else {
          add_cost(a.cost);
        }
      },
      answer);
}

/// The request ladder on the idle server: each request through the client,
/// then the same request on a private Service, then that Service's
/// activation alone. Adjacent-rung differences attribute time to a layer;
/// per-request medians keep one slow request from deciding a layer.
Status Ladder(const Inputs& in, const std::string& socket,
              const std::vector<server::Service*>& services,
              WorkloadResult& out) {
  UTS_ASSIGN_OR_RETURN(auto client, Connect(socket, 7));
  std::vector<double> activate, engine, transport;
  double service_total = 0, activate_total = 0;
  double bytes = 0, touched = 0, total = 0;
  bool present[kGroups] = {};
  for (const MixEntry& e : in.config.mix) present[GroupOf(e.op)] = true;
  Schedule schedule(in, in.seed * 7919 + 5);
  for (int g = 0; g < kGroups; ++g) {
    if (!present[g]) continue;
    for (std::size_t i = 0; i < kLadderPerGroup;) {
      const Request r = schedule.Next();
      if (GroupOf(r.op) != g) continue;
      ++i;
      server::Service& service = *services[r.dataset];
      auto t0 = Clock::now();
      UTS_RETURN_NOT_OK(ViaClient(*client, r.op, r.query).status());
      auto t1 = Clock::now();
      Result<Answer> answer = ViaService(service, r.op, r.query);
      auto t2 = Clock::now();
      UTS_RETURN_NOT_OK(answer.status());
      const int activations =
          r.op == Op::kKnnSweep ? static_cast<int>(kSweepBlock) : 1;
      for (int a = 0; a < activations; ++a) {
        UTS_RETURN_NOT_OK(service.context().ActivateResident(r.query.dataset));
      }
      auto t3 = Clock::now();
      activate.push_back(Millis(t2, t3));
      engine.push_back(Millis(t1, t2) - Millis(t2, t3));
      transport.push_back(Millis(t0, t1) - Millis(t1, t2));
      service_total += Millis(t1, t2);
      activate_total += Millis(t2, t3);
      AddBytes(answer.ValueOrDie(), in.rows[r.dataset], in.length[r.dataset],
               &bytes, &touched, &total);
    }
  }
  const double engine_s = (service_total - activate_total) / 1000.0;
  const double gbps = bytes / engine_s / 1e9;
  out.values["query.activate_ms"] = Median(activate);
  out.values["query.activate_share"] = activate_total / service_total;
  out.values["query.engine_ms"] = Median(engine);
  out.values["server.transport_ms"] = Median(transport);
  out.values["distance.bytes_per_req"] =
      bytes / static_cast<double>(activate.size());
  out.values["distance.gbps"] = gbps;
  out.values["distance.peak_fraction"] = gbps / TriadPeakGbps();
  out.values["index.touched_fraction"] = total > 0 ? touched / total : 0.0;
  return Status::OK();
}

uncertain::ErrorSpec SpecOf(const DatasetPlan& plan) {
  const prob::ErrorKind kind = plan.kind == server::WireErrorKind::kUniform
                                   ? prob::ErrorKind::kUniform
                                   : prob::ErrorKind::kNormal;
  return plan.mixed_sigma ? uncertain::ErrorSpec::MixedSigma(kind)
                          : uncertain::ErrorSpec::Constant(kind, plan.sigma);
}

/// Median of three timings of `fn`, in ms.
template <typename Fn>
double MedianMillis(Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(Millis(t0, Clock::now()));
  }
  return Median(ms);
}

/// Removes the run's private scratch directory on every exit path.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

}  // namespace

WorkloadResult RunServe(const Args& args) {
  const std::size_t pools_before = exec::ThreadPool::TotalCreated();
  const ScratchDir scratch_dir(std::filesystem::path(args.scratch) /
                               (args.workload + "-" +
                                std::to_string(::getpid())));
  const std::string scratch = scratch_dir.path.string();
  Inputs in = MakeInputs(args.workload, args.seed);

  // Set-up: fresh servers, each started, bound and warmed through every
  // measure; the last one serves the run.
  const int reps = args.trace ? 1 : (args.smoke ? 2 : 5);
  std::vector<double> setup_s;
  std::unique_ptr<server::Server> srv;
  std::string socket;
  for (int r = 0; r < reps; ++r) {
    srv.reset();
    socket = scratch + "/s" + std::to_string(r) + ".sock";
    const auto t0 = Clock::now();
    auto started = SetUp(in, socket, scratch);
    if (!started.ok()) return Fail("set-up", started.status());
    setup_s.push_back(Seconds(t0, Clock::now()));
    srv = std::move(started).ValueOrDie();
  }
  if (Status s = Calibrate(in, socket); !s.ok()) return Fail("calibrate", s);

  std::vector<std::shared_ptr<ts::BufferPool>> pools;
  for (const DatasetPlan& plan : in.config.datasets) {
    pools.push_back(srv->shard_service(plan.name)->context().buffer_pool());
  }
  const query::EngineContext::Stats ctx_before = SumContexts(*srv, in);

  // Load: warm-up, then the measured window.
  const auto start = Clock::now();
  const auto window_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kWarmupSeconds));
  const auto window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::atomic<int> phase{kWarmup};
  const std::size_t verify_every = args.smoke ? 1 : kVerifyEvery;
  std::vector<ReaderLog> readers(in.config.readers);
  std::vector<BindEvent> binds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < readers.size(); ++c) {
    threads.emplace_back([&, c] {
      ReadLoop(in, socket, c, verify_every, phase, readers[c]);
    });
  }
  if (in.config.rebind_writer) {
    threads.emplace_back(
        [&] { WriteLoop(in, socket, start, window_end, binds); });
  }
  std::this_thread::sleep_until(window_start);
  phase.store(kMeasure);
  const PoolTotals pool_start = SumPools(pools);
  const server::Server::Stats server_start = srv->stats();
  const std::uint64_t dispatched_start = SumDispatched(*srv, in);
  QueueSampler queue_sampler;
  std::atomic<bool> stop_sampler{false};
  std::thread sampler_thread;
  if (args.trace) {
    sampler_thread = std::thread(
        [&] { queue_sampler.Run(*srv, in, stop_sampler); });
  }
  RssSampler rss;
  std::this_thread::sleep_until(window_end);
  phase.store(kStop);
  const double window_s = Seconds(window_start, Clock::now());
  const double peak_rss_mb = rss.Stop();
  const PoolTotals pool_end = SumPools(pools);
  const server::Server::Stats server_end = srv->stats();
  const std::uint64_t dispatched_end = SumDispatched(*srv, in);
  stop_sampler.store(true);
  if (sampler_thread.joinable()) sampler_thread.join();
  for (auto& t : threads) t.join();
  const query::EngineContext::Stats ctx_after = SumContexts(*srv, in);

  WorkloadResult out;
  std::vector<double> latency, group_latency[kGroups];
  for (const ReaderLog& log : readers) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    for (const Sample& s : log.samples) {
      if (!s.ok) continue;
      const double ms = Millis(s.send, s.recv);
      latency.push_back(ms);
      group_latency[GroupOf(s.request.op)].push_back(ms);
    }
  }
  std::vector<double> bind_ms, lag_ms;
  for (const BindEvent& b : binds) {
    ++out.attempted;
    if (!b.ok) {
      ++out.failed;
      continue;
    }
    if (b.due < window_start) continue;
    bind_ms.push_back(Millis(b.due, b.recv));
    lag_ms.push_back(Millis(b.due, b.send));
  }

  // Verification: the sampled answers against private Services bound
  // identically, one per (dataset, version) so every activation is warm.
  std::vector<std::vector<std::unique_ptr<server::Service>>> refs(
      in.exact.size());
  for (std::size_t d = 0; d < in.exact.size(); ++d) {
    for (const auto& bind : in.binds[d]) {
      refs[d].push_back(std::make_unique<server::Service>(
          MakeServiceOptions(in, scratch)));
      if (Status s = refs[d].back()->Bind(bind, 0).status(); !s.ok()) {
        return Fail("reference bind", s);
      }
    }
  }
  std::uint64_t mismatches = 0;
  for (const ReaderLog& log : readers) {
    for (const Sample& s : log.samples) {
      if (!s.answer.has_value()) continue;
      const std::size_t d = s.request.dataset;
      const std::vector<int> versions =
          refs[d].size() > 1 ? VersionsDuring(binds, s.send, s.recv)
                             : std::vector<int>{0};
      bool matched = false;
      for (int v : versions) {
        Result<Answer> expected =
            ViaService(*refs[d][v], s.request.op, s.request.query);
        if (expected.ok() && Same(*s.answer, expected.ValueOrDie())) {
          matched = true;
          break;
        }
      }
      if (!matched) ++mismatches;
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "uts_e2e: %llu sampled answers differ from the "
                 "reference Service\n",
                 static_cast<unsigned long long>(mismatches));
  }
  out.failed += mismatches;

  const std::size_t reads = latency.size();
  out.values["setup_s"] = Median(setup_s);
  out.values["peak_rss_mb"] = peak_rss_mb;
  out.values["throughput_ops"] = static_cast<double>(reads) / window_s;
  out.values["latency_p50_ms"] = Median(latency);
  out.values["latency_p99_ms"] = Quantile(latency, 0.99);
  out.values["bench.p99_tail_samples"] =
      static_cast<double>(TailCount(reads, 0.99));
  for (int g = 0; g < kGroups; ++g) {
    if (!group_latency[g].empty()) {
      out.values[kGroupMetric[g]] = Median(group_latency[g]);
    }
  }
  if (in.config.rebind_writer) {
    out.values["bind_p50_ms"] = Median(bind_ms);
  }
  if (!args.trace) return out;

  // Per-layer numbers.
  const double n_reads = std::max<double>(1.0, static_cast<double>(reads));
  const double faults = static_cast<double>(pool_end.faults - pool_start.faults);
  const double pins = static_cast<double>(pool_end.pins - pool_start.pins);
  out.values["ts.faults_per_req"] = faults / n_reads;
  out.values["ts.pins_per_req"] = pins / n_reads;
  out.values["ts.hit_ratio"] = pins > 0 ? 1.0 - faults / pins : 0.0;
  out.values["ts.peak_resident_mb"] =
      static_cast<double>(pool_end.peak_resident) / kMiB;
  if (!binds.empty()) {
    // Context counters are read only while idle, so they cover the warm-up
    // binds too; spilled bytes cover the window's binds only.
    const double window_binds = std::max<double>(1.0, bind_ms.size());
    out.values["ts.spilled_mb_per_bind"] =
        static_cast<double>(pool_end.spilled - pool_start.spilled) / kMiB /
        window_binds;
    out.values["query.packs_per_bind"] =
        static_cast<double>(ctx_after.pdf_packs + ctx_after.certain_packs -
                            ctx_before.pdf_packs - ctx_before.certain_packs) /
        static_cast<double>(binds.size());
    out.values["bench.writer_lag_ms"] = Median(lag_ms);
  }
  const double acquires = static_cast<double>(ctx_after.acquires_served +
                                              ctx_after.acquires_declined);
  out.values["query.acquire_decline_ratio"] =
      acquires > 0 ? ctx_after.acquires_declined / acquires : 0.0;
  out.values["query.dust_table_builds"] =
      static_cast<double>(ctx_after.dust_table_builds);

  const double queue_mean = Mean(queue_sampler.lengths);
  const double dispatch_rate =
      static_cast<double>(dispatched_end - dispatched_start) / window_s;
  out.values["server.queue_len_mean"] = queue_mean;
  out.values["server.queue_wait_ms"] =
      dispatch_rate > 0 ? queue_mean / dispatch_rate * 1000.0 : 0.0;
  const double admitted =
      static_cast<double>(server_end.admitted - server_start.admitted);
  out.values["server.rejected_per_1k"] =
      admitted > 0 ? static_cast<double>(server_end.rejected -
                                         server_start.rejected) /
                         admitted * 1000.0
                   : 0.0;
  out.values["bench.trace_overhead"] = queue_sampler.busy_s / window_s;

  const server::BindDatasetRequest& bind0 = in.binds[0][0];
  const uncertain::ErrorSpec spec0 = SpecOf(in.config.datasets[0]);
  out.values["uncertain.perturb_ms"] = MedianMillis([&] {
    auto pdf = uncertain::PerturbDataset(in.exact[0], spec0, in.seed);
    (void)pdf;
  });
  out.values["server.bind_codec_ms"] = MedianMillis([&] {
    const std::vector<std::uint8_t> payload = bind0.Encode();
    (void)server::BindDatasetRequest::Decode(payload);
  });

  // The ladder runs on the versions the idle server holds now.
  int current = 0;
  for (const BindEvent& b : binds) {
    if (b.ok) current = b.version;
  }
  std::vector<server::Service*> ladder_services;
  for (std::size_t d = 0; d < refs.size(); ++d) {
    ladder_services.push_back(
        refs[d][std::min<std::size_t>(current, refs[d].size() - 1)].get());
  }
  if (Status s = Ladder(in, socket, ladder_services, out); !s.ok()) {
    return Fail("ladder", s);
  }
  out.values["exec.pools_created"] =
      static_cast<double>(exec::ThreadPool::TotalCreated() - pools_before);
  return out;
}

}  // namespace uts::e2e
