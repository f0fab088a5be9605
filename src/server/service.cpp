#include "server/service.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "ts/time_series.hpp"
#include "uncertain/error_spec.hpp"
#include "uncertain/perturb.hpp"

namespace uts::server {

namespace {

prob::ErrorKind ToErrorKind(WireErrorKind kind) {
  switch (kind) {
    case WireErrorKind::kUniform:
      return prob::ErrorKind::kUniform;
    case WireErrorKind::kExponential:
      return prob::ErrorKind::kExponential;
    case WireErrorKind::kNormal:
    default:
      return prob::ErrorKind::kNormal;
  }
}

query::Measure ToMeasure(WireMeasure measure) {
  switch (measure) {
    case WireMeasure::kDust:
      return query::Measure::kDust;
    case WireMeasure::kProud:
      return query::Measure::kProud;
    case WireMeasure::kMunich:
      return query::Measure::kMunich;
    case WireMeasure::kEuclid:
    default:
      return query::Measure::kEuclidean;
  }
}

}  // namespace

std::string ShardKeyOf(MessageType type,
                       std::span<const std::uint8_t> payload) {
  switch (type) {
    case MessageType::kBindDataset:
    case MessageType::kKnn:
    case MessageType::kRange:
    case MessageType::kPrq:
    case MessageType::kMeasureSweep:
    case MessageType::kKnnSweep: {
      // Both request schemas lead with the dataset name; peek it without
      // decoding the rest (bind payloads carry whole datasets).
      PayloadReader reader(payload);
      Result<std::string> name = reader.Str();
      return name.ok() ? name.ValueOrDie() : std::string();
    }
    case MessageType::kPing: {
      Result<PingRequest> ping = PingRequest::Decode(payload);
      return ping.ok() ? ping.ValueOrDie().dataset : std::string();
    }
    default:
      return std::string();
  }
}

Service::Service(ServiceOptions options)
    : options_(options), context_([&options] {
        query::EngineContextOptions context_options;
        context_options.threads = options.threads;
        context_options.simd = options.simd;
        context_options.index = options.index;
        context_options.shared_pool = options.shared_pool;
        context_options.memory_budget_bytes = options.memory_budget_bytes;
        context_options.spill_dir = options.spill_dir;
        return context_options;
      }()) {}

Result<BindOkResponse> Service::Bind(const BindDatasetRequest& request,
                                     std::uint64_t request_seq) {
  if (request.name.empty()) {
    return Status::InvalidArgument("bind: dataset name must be non-empty");
  }
  if (request.series.empty()) {
    return Status::InvalidArgument("bind: dataset must be non-empty");
  }
  const std::size_t length = request.series.front().size();
  if (length == 0) {
    return Status::InvalidArgument("bind: series must be non-empty");
  }
  // σ is read only by the constant spec; the mixed spec has fixed levels.
  if (request.mixed_sigma == 0 &&
      !(std::isfinite(request.sigma) && request.sigma > 0.0)) {
    return Status::InvalidArgument("bind: sigma must be finite and > 0");
  }
  ts::Dataset exact(request.name);
  for (std::size_t i = 0; i < request.series.size(); ++i) {
    if (request.series[i].size() != length) {
      return Status::InvalidArgument(
          "bind: the engines require uniform series lengths");
    }
    // A non-finite value perturbs into NaN distances, and NaN breaks the
    // strict weak ordering the kNN heaps and sorts rely on.
    for (double v : request.series[i]) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("bind: series values must be finite");
      }
    }
    const int label = i < request.labels.size()
                          ? static_cast<int>(request.labels[i])
                          : ts::TimeSeries::kNoLabel;
    exact.Add(ts::TimeSeries(request.series[i], label));
  }

  const prob::ErrorKind kind = ToErrorKind(request.kind);
  const uncertain::ErrorSpec spec =
      request.mixed_sigma != 0 ? uncertain::ErrorSpec::MixedSigma(kind)
                               : uncertain::ErrorSpec::Constant(kind,
                                                                request.sigma);
  // Deterministic perturbation: the same exact values + spec + seed yield
  // bit-identical uncertain datasets here and in any in-process reference,
  // on the context's pool or inline (no pool at one thread per shard).
  exec::ThreadPool* pool = context_.pool();
  uncertain::UncertainDataset pdf =
      uncertain::PerturbDataset(exact, spec, request.seed, pool);
  std::optional<uncertain::MultiSampleDataset> samples;
  if (request.samples_per_point > 0) {
    samples = uncertain::PerturbDatasetMultiSample(
        exact, spec, request.samples_per_point, request.seed, pool);
  }
  const double proud_sigma = spec.RepresentativeSigma();
  UTS_RETURN_NOT_OK(context_.AddResident(request.name, std::move(pdf),
                                         std::move(samples), request.seed,
                                         proud_sigma));

  BindOkResponse response;
  response.request_seq = request_seq;
  response.name = request.name;
  response.num_series = static_cast<std::uint32_t>(request.series.size());
  response.length = static_cast<std::uint32_t>(length);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.binds;
  }
  return response;
}

DatasetListResponse Service::List(std::uint64_t request_seq) {
  DatasetListResponse response;
  response.request_seq = request_seq;
  response.names = context_.ResidentNames();
  return response;
}

Status Service::Activate(const std::string& name, std::uint32_t query) {
  UTS_RETURN_NOT_OK(context_.ActivateResident(name));
  const auto* pdf = context_.ResidentPdf(name);
  if (pdf != nullptr && query >= pdf->size()) {
    return Status::NotFound("query index " + std::to_string(query) +
                            " out of range (dataset has " +
                            std::to_string(pdf->size()) + " series)");
  }
  return Status::OK();
}

Result<query::QueryAnswer> Service::Answer(const QueryRequest& request,
                                           query::QueryKind kind) {
  UTS_RETURN_NOT_OK(Activate(request.dataset, request.query));
  const query::Measure measure = ToMeasure(request.measure);
  // Activate bound the resident, so the engine's PROUD kernels run at the
  // σ its Bind reported.
  UTS_ASSIGN_OR_RETURN(query::UncertainEngine * engine,
                       context_.Acquire(measure));
  UTS_ASSIGN_OR_RETURN(query::QueryAnswer answer,
                       engine->Answer({.measure = measure,
                                       .kind = kind,
                                       .query = request.query,
                                       .k = request.k,
                                       .epsilon = request.epsilon,
                                       .taus = {request.tau},
                                       .munich = options_.munich}));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
  }
  return answer;
}

Result<KnnResponse> Service::Knn(const QueryRequest& request,
                                 std::uint64_t request_seq) {
  UTS_ASSIGN_OR_RETURN(query::QueryAnswer answer,
                       Answer(request, query::QueryKind::kKnn));
  KnnResponse response;
  response.request_seq = request_seq;
  response.query = request.query;
  response.neighbors = std::move(answer.neighbors);
  response.cost = WireSearchCost::From(answer.cost);
  return response;
}

Result<IndexListResponse> Service::Range(const QueryRequest& request,
                                         std::uint64_t request_seq) {
  UTS_ASSIGN_OR_RETURN(query::QueryAnswer answer,
                       Answer(request, query::QueryKind::kRange));
  IndexListResponse response;
  response.request_seq = request_seq;
  response.indices.assign(answer.matches.front().begin(),
                          answer.matches.front().end());
  response.cost = WireSearchCost::From(answer.cost);
  return response;
}

Result<IndexListResponse> Service::Prq(const QueryRequest& request,
                                       std::uint64_t request_seq) {
  UTS_ASSIGN_OR_RETURN(query::QueryAnswer answer,
                       Answer(request, query::QueryKind::kPrq));
  IndexListResponse response;
  response.request_seq = request_seq;
  response.indices.assign(answer.matches.front().begin(),
                          answer.matches.front().end());
  return response;
}

Result<SweepResponse> Service::MeasureSweep(const QueryRequest& request,
                                            std::uint64_t request_seq) {
  if (request.measure == WireMeasure::kEuclid) {
    return Status::InvalidArgument(
        "sweep: dense sweeps serve the uncertain measures (dust|proud|"
        "munich)");
  }
  UTS_ASSIGN_OR_RETURN(query::QueryAnswer answer,
                       Answer(request, query::QueryKind::kSweep));
  SweepResponse response;
  response.request_seq = request_seq;
  response.values = std::move(answer.scores);
  return response;
}

void Service::NoteSweepItem() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.sweep_items;
}

Service::Stats Service::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace uts::server
