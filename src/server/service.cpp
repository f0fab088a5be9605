#include "server/service.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

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

/// ε as a range, PRQ or probability-measure query reads it: a distance
/// threshold, so finite and non-negative (NaN fails).
Status CheckEpsilon(const char* what, double epsilon) {
  if (std::isfinite(epsilon) && epsilon >= 0.0) return Status::OK();
  return Status::InvalidArgument(std::string(what) +
                                 ": epsilon must be finite and >= 0");
}

/// The measures whose kNN and sweeps rank by match probability at ε.
bool ReadsEpsilon(WireMeasure measure) {
  return measure == WireMeasure::kProud || measure == WireMeasure::kMunich;
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

Result<query::UncertainEngine*> Service::AcquireFor(WireMeasure measure) {
  switch (measure) {
    case WireMeasure::kEuclid:
    case WireMeasure::kProud:
      // Activate bound the resident, so the engine's PROUD kernels run at
      // the σ its Bind reported.
      return context_.AcquireEuclidean();
    case WireMeasure::kDust:
      return context_.AcquireDust();
    case WireMeasure::kMunich:
      return context_.AcquireMunich();
    default:
      return Status::InvalidArgument("unknown measure");
  }
}

Result<KnnResponse> Service::Knn(const QueryRequest& request,
                                 std::uint64_t request_seq) {
  if (request.k == 0) return Status::InvalidArgument("knn: k must be >= 1");
  if (ReadsEpsilon(request.measure)) {
    UTS_RETURN_NOT_OK(CheckEpsilon("knn", request.epsilon));
  }
  UTS_RETURN_NOT_OK(Activate(request.dataset, request.query));
  KnnResponse response;
  response.request_seq = request_seq;
  response.query = request.query;
  UTS_ASSIGN_OR_RETURN(query::UncertainEngine * engine,
                       AcquireFor(request.measure));
  index::SearchCost cost;
  switch (request.measure) {
    case WireMeasure::kEuclid:
      response.neighbors =
          engine->KNearestEuclidean(request.query, request.k, &cost);
      break;
    case WireMeasure::kDust: {
      UTS_ASSIGN_OR_RETURN(
          response.neighbors,
          engine->KNearestDust(request.query, request.k, &cost));
      break;
    }
    case WireMeasure::kProud:
      response.neighbors =
          engine->KNearestProud(request.query, request.epsilon, request.k);
      break;
    case WireMeasure::kMunich: {
      UTS_ASSIGN_OR_RETURN(response.neighbors,
                           engine->KNearestMunich(request.query,
                                                  request.epsilon, request.k,
                                                  options_.munich));
      break;
    }
    default:
      return Status::InvalidArgument("knn: unsupported measure");
  }
  response.cost = WireSearchCost::From(cost);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
  }
  return response;
}

Result<IndexListResponse> Service::Range(const QueryRequest& request,
                                         std::uint64_t request_seq) {
  if (ReadsEpsilon(request.measure)) {
    return Status::InvalidArgument(
        "range: PROUD/MUNICH are probabilistic — use PRQ");
  }
  UTS_RETURN_NOT_OK(CheckEpsilon("range", request.epsilon));
  UTS_RETURN_NOT_OK(Activate(request.dataset, request.query));
  IndexListResponse response;
  response.request_seq = request_seq;
  UTS_ASSIGN_OR_RETURN(query::UncertainEngine * engine,
                       AcquireFor(request.measure));
  index::SearchCost cost;
  std::vector<std::size_t> matches;
  if (request.measure == WireMeasure::kEuclid) {
    matches =
        engine->RangeSearchEuclidean(request.query, request.epsilon, &cost);
  } else {
    UTS_ASSIGN_OR_RETURN(
        matches, engine->RangeSearchDust(request.query, request.epsilon,
                                         &cost));
  }
  response.indices.assign(matches.begin(), matches.end());
  response.cost = WireSearchCost::From(cost);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
  }
  return response;
}

Result<IndexListResponse> Service::Prq(const QueryRequest& request,
                                       std::uint64_t request_seq) {
  if (!ReadsEpsilon(request.measure)) {
    return Status::InvalidArgument(
        "prq: only the probabilistic measures (PROUD, MUNICH) answer PRQ");
  }
  UTS_RETURN_NOT_OK(CheckEpsilon("prq", request.epsilon));
  // Φ⁻¹(τ) is ∓inf at 0 and 1: every candidate would match, or none.
  if (!(request.tau > 0.0 && request.tau < 1.0)) {
    return Status::InvalidArgument("prq: tau must lie in (0, 1)");
  }
  UTS_RETURN_NOT_OK(Activate(request.dataset, request.query));
  UTS_ASSIGN_OR_RETURN(query::UncertainEngine * engine,
                       AcquireFor(request.measure));
  IndexListResponse response;
  response.request_seq = request_seq;
  std::vector<std::size_t> matches;
  if (request.measure == WireMeasure::kProud) {
    matches = engine->ProbabilisticRangeSearchProud(
        request.query, request.epsilon, request.tau);
  } else {
    UTS_ASSIGN_OR_RETURN(matches, engine->ProbabilisticRangeSearchMunich(
                                      request.query, request.epsilon,
                                      request.tau, options_.munich));
  }
  response.indices.assign(matches.begin(), matches.end());
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
  }
  return response;
}

Result<SweepResponse> Service::MeasureSweep(const QueryRequest& request,
                                            std::uint64_t request_seq) {
  if (request.measure == WireMeasure::kEuclid) {
    return Status::InvalidArgument(
        "sweep: dense sweeps serve the uncertain measures (dust|proud|"
        "munich)");
  }
  if (ReadsEpsilon(request.measure)) {
    UTS_RETURN_NOT_OK(CheckEpsilon("sweep", request.epsilon));
  }
  UTS_RETURN_NOT_OK(Activate(request.dataset, request.query));
  UTS_ASSIGN_OR_RETURN(query::UncertainEngine * engine,
                       AcquireFor(request.measure));
  SweepResponse response;
  response.request_seq = request_seq;
  switch (request.measure) {
    case WireMeasure::kDust: {
      UTS_ASSIGN_OR_RETURN(response.values,
                           engine->DustDistances(request.query));
      break;
    }
    case WireMeasure::kProud:
      response.values =
          engine->ProudMatchProbabilities(request.query, request.epsilon);
      break;
    case WireMeasure::kMunich: {
      UTS_ASSIGN_OR_RETURN(
          response.values,
          engine->MunichMatchProbabilities(request.query, request.epsilon,
                                           options_.munich));
      break;
    }
    default:
      return Status::InvalidArgument("sweep: unsupported measure");
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
  }
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
