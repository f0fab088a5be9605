/// \file uncertts_cli.cpp
/// \brief `uncertts` — command-line front end to the library.
///
/// Subcommands:
///
///   uncertts datasets
///       List the 17 built-in UCR-like generators with their sizes and
///       summary characteristics.
///
///   uncertts generate --name GunPoint --out gp.ucr [--series N] [--length N]
///                     [--seed S] [--znorm]
///       Write a synthetic dataset in UCR format.
///
///   uncertts perturb --in data.ucr --out noisy.ucr --error normal
///                    --sigma 0.5 [--mixed] [--seed S]
///       Perturb an exact UCR file with measurement error (observations
///       only; the error model is echoed on stderr for downstream use).
///
///   uncertts match --in data.ucr --query 0 --k 10
///                  [--measure euclid|dust|uma|uema|dtw] [--sigma 0.5]
///       Top-k similarity search inside a UCR file under a chosen measure;
///       `--sigma` supplies the reported per-point error std for the
///       uncertainty-aware measures.
///
///   uncertts motifs --in data.ucr --k 5
///       Top-k motif pairs under Euclidean distance.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "checked_parse.hpp"
#include "core/report.hpp"
#include "datagen/registry.hpp"
#include "distance/dtw.hpp"
#include "distance/lp.hpp"
#include "io/ucr_io.hpp"
#include "measures/dust.hpp"
#include "prob/distribution.hpp"
#include "query/engine.hpp"
#include "query/search.hpp"
#include "ts/buffer_pool.hpp"
#include "ts/filters.hpp"
#include "ts/normalize.hpp"
#include "uncertain/perturb.hpp"

using namespace uts;

namespace {

/// Minimal --flag value parser: collects `--key value` pairs and bare flags.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::size_t GetSize(const std::string& key, std::size_t fallback) const {
    if (!Has(key)) return fallback;
    std::size_t value = 0;
    if (!tools::ParseSize(("--" + key).c_str(), Get(key).c_str(), &value)) {
      std::exit(2);
    }
    return value;
  }

  double GetDouble(const std::string& key, double fallback) const {
    if (!Has(key)) return fallback;
    double value = 0.0;
    if (!tools::ParseDouble(("--" + key).c_str(), Get(key).c_str(), &value)) {
      std::exit(2);
    }
    return value;
  }

  /// --sigma, the reported per-point error std: finite and > 0, the rule
  /// the server's Bind applies.
  double GetSigma() const {
    const double sigma = GetDouble("sigma", 0.5);
    if (!(sigma > 0.0)) {
      std::fprintf(stderr, "--sigma: must be > 0, got %g\n", sigma);
      std::exit(2);
    }
    return sigma;
  }

  std::string Require(const std::string& key) const {
    if (!Has(key) || Get(key).empty()) {
      std::fprintf(stderr, "missing required --%s\n", key.c_str());
      std::exit(2);
    }
    return Get(key);
  }

 private:
  std::map<std::string, std::string> values_;
};

int CmdDatasets() {
  core::TextTable table({"name", "series", "length", "classes",
                         "avg pairwise dist (z-norm, sampled)"});
  for (const auto& spec : datagen::UcrLikeSpecs()) {
    const ts::Dataset sample =
        datagen::GenerateScaled(spec, 1, 48, 128).ZNormalizedCopy();
    const auto info = sample.Summarize(48);
    table.AddRow({spec.name, std::to_string(spec.num_series),
                  std::to_string(spec.length),
                  std::to_string(spec.shape.num_classes),
                  core::TextTable::Num(info.avg_pairwise_distance, 2)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdGenerate(const Args& args) {
  const std::string name = args.Require("name");
  const std::string out = args.Require("out");
  auto spec = datagen::SpecByName(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  ts::Dataset dataset = datagen::GenerateScaled(
      spec.ValueOrDie(), args.GetSize("seed", 42), args.GetSize("series", 0),
      args.GetSize("length", 0));
  if (args.Has("znorm")) dataset = dataset.ZNormalizedCopy();
  const Status st = io::WriteUcrFile(dataset, out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu series of length %zu to %s\n", dataset.size(),
              dataset.empty() ? 0 : dataset[0].size(), out.c_str());
  return 0;
}

Result<uncertain::ErrorSpec> SpecFromArgs(const Args& args) {
  const std::string kind_name = args.Get("error", "normal");
  prob::ErrorKind kind;
  if (kind_name == "normal") {
    kind = prob::ErrorKind::kNormal;
  } else if (kind_name == "uniform") {
    kind = prob::ErrorKind::kUniform;
  } else if (kind_name == "exponential") {
    kind = prob::ErrorKind::kExponential;
  } else {
    return Status::InvalidArgument("unknown --error '" + kind_name +
                                   "' (normal|uniform|exponential)");
  }
  const double sigma = args.GetSigma();
  if (args.Has("mixed")) {
    return uncertain::ErrorSpec::MixedSigma(kind, 0.2, 1.0, 0.4);
  }
  return uncertain::ErrorSpec::Constant(kind, sigma);
}

int CmdPerturb(const Args& args) {
  auto dataset = io::ReadUcrFile(args.Require("in"), "input");
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  auto spec = SpecFromArgs(args);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  const auto perturbed = uncertain::PerturbDataset(
      dataset.ValueOrDie(), spec.ValueOrDie(), args.GetSize("seed", 42));
  ts::Dataset observed("noisy");
  for (const auto& series : perturbed.series) {
    observed.Add(series.AsTimeSeries());
  }
  const Status st = io::WriteUcrFile(observed, args.Require("out"));
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "error model: %s\n",
               spec.ValueOrDie().Describe().c_str());
  std::printf("wrote %zu perturbed series\n", observed.size());
  return 0;
}

int CmdMatch(const Args& args) {
  auto loaded = io::ReadUcrFile(args.Require("in"), "input");
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const ts::Dataset& dataset = loaded.ValueOrDie();
  const std::size_t query = args.GetSize("query", 0);
  const std::size_t k = args.GetSize("k", 10);
  if (query >= dataset.size()) {
    std::fprintf(stderr, "--query %zu out of range (dataset has %zu series)\n",
                 query, dataset.size());
    return 1;
  }
  const std::string measure = args.Get("measure", "euclid");
  const double sigma = args.GetSigma();

  // Build the reported-error view used by the uncertainty-aware measures.
  std::vector<uncertain::UncertainSeries> uncertain_view;
  if (measure == "dust" || measure == "uma" || measure == "uema") {
    auto err = prob::MakeNormalError(sigma);
    for (const auto& s : dataset) {
      uncertain_view.emplace_back(
          std::vector<double>(s.begin(), s.end()),
          std::vector<prob::ErrorDistributionPtr>(s.size(), err), s.label(),
          s.id());
    }
  }

  query::DistanceToFn distance_to;
  measures::Dust dust;
  std::vector<std::vector<double>> filtered;
  if (measure == "euclid") {
    distance_to = [&](std::size_t i) {
      return distance::Euclidean(dataset[query].values(),
                                 dataset[i].values());
    };
  } else if (measure == "dtw") {
    distance_to = [&](std::size_t i) {
      return distance::Dtw(dataset[query].values(), dataset[i].values());
    };
  } else if (measure == "dust") {
    distance_to = [&](std::size_t i) {
      return dust.Distance(uncertain_view[query], uncertain_view[i])
          .ValueOr(std::numeric_limits<double>::infinity());
    };
  } else if (measure == "uma" || measure == "uema") {
    ts::FilterOptions options;
    options.half_window = args.GetSize("window", 2);
    options.lambda = measure == "uema" ? args.GetDouble("lambda", 1.0) : 0.0;
    if (options.lambda < 0.0) {
      std::fprintf(stderr, "--lambda: must be >= 0, got %g\n",
                   options.lambda);
      return 2;
    }
    for (const auto& s : uncertain_view) {
      auto smoothed =
          measure == "uema"
              ? ts::UncertainExponentialMovingAverage(s.observations(),
                                                      s.Stddevs(), options)
              : ts::UncertainMovingAverage(s.observations(), s.Stddevs(),
                                           options);
      if (!smoothed.ok()) {
        std::fprintf(stderr, "%s\n", smoothed.status().ToString().c_str());
        return 1;
      }
      filtered.push_back(std::move(smoothed).ValueOrDie());
    }
    distance_to = [&](std::size_t i) {
      return distance::Euclidean(filtered[query], filtered[i]);
    };
  } else {
    std::fprintf(stderr,
                 "unknown --measure '%s' (euclid|dtw|dust|uma|uema)\n",
                 measure.c_str());
    return 2;
  }

  std::vector<query::Neighbor> neighbors;
  bool report_cost = false;
  index::SearchCost cost;
  const std::size_t budget_mb = args.GetSize("memory-budget-mb", 0);
  if (measure == "euclid" && (args.Has("index") || budget_mb > 0)) {
    // Engine path: prune-before-score cascade and/or the paged storage
    // tier. Results are identical to the plain scan either way.
    query::EngineOptions eopts;
    eopts.index.enabled = args.Has("index");
    eopts.index.synopsis_coefficients = args.GetSize("coefficients", 16);
    if (budget_mb > 0) {
      ts::BufferPool::Options popts;
      popts.budget_bytes = budget_mb << 20;
      auto pool = ts::BufferPool::Create(popts);
      if (pool.ok()) {
        eopts.buffer_pool = std::move(pool).ValueOrDie();
      } else {
        std::fprintf(stderr, "--memory-budget-mb: %s; running resident\n",
                     pool.status().ToString().c_str());
      }
    }
    auto engine = query::DistanceMatrixEngine::Create(dataset, eopts);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return 1;
    }
    auto nearest = engine.ValueOrDie().KNearestEuclidean(query, k, &cost);
    if (!nearest.ok()) {
      std::fprintf(stderr, "%s\n", nearest.status().ToString().c_str());
      return 1;
    }
    neighbors = std::move(nearest).ValueOrDie();
    report_cost = args.Has("index");
  } else {
    if (args.Has("index")) {
      std::fprintf(stderr, "--index only applies to --measure euclid\n");
    }
    if (budget_mb > 0) {
      std::fprintf(stderr,
                   "--memory-budget-mb only applies to --measure euclid\n");
    }
    neighbors = query::KNearest(dataset.size(), query, k, distance_to);
  }
  core::TextTable table({"rank", "index", "id", "label", "distance"});
  for (std::size_t r = 0; r < neighbors.size(); ++r) {
    const auto& nb = neighbors[r];
    table.AddRow({std::to_string(r + 1), std::to_string(nb.index),
                  dataset[nb.index].id(),
                  std::to_string(dataset[nb.index].label()),
                  core::TextTable::Num(nb.distance, 4)});
  }
  std::printf("top-%zu of %s under %s (query %zu, label %d):\n", k,
              args.Get("in").c_str(), measure.c_str(), query,
              dataset[query].label());
  table.Print(std::cout);
  if (report_cost) {
    std::printf(
        "index cascade: touched %zu of %zu candidates "
        "(%zu pruned by synopsis bound, %zu abandoned early)\n",
        cost.candidates_touched, cost.candidates_total,
        cost.pruned_lower_bound, cost.abandoned_early);
  }
  return 0;
}

int CmdMotifs(const Args& args) {
  auto loaded = io::ReadUcrFile(args.Require("in"), "input");
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto engine = query::DistanceMatrixEngine::Create(loaded.ValueOrDie());
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  const auto motifs =
      engine.ValueOrDie().TopKMotifsEuclidean(args.GetSize("k", 5));
  core::TextTable table({"rank", "a", "b", "distance"});
  for (std::size_t r = 0; r < motifs.size(); ++r) {
    table.AddRow({std::to_string(r + 1), std::to_string(motifs[r].a),
                  std::to_string(motifs[r].b),
                  core::TextTable::Num(motifs[r].distance, 4)});
  }
  table.Print(std::cout);
  return 0;
}

void PrintUsage() {
  std::printf(
      "uncertts — uncertain time-series similarity toolkit\n\n"
      "  uncertts datasets\n"
      "  uncertts generate --name GunPoint --out gp.ucr [--series N]"
      " [--length N] [--seed S] [--znorm]\n"
      "  uncertts perturb  --in data.ucr --out noisy.ucr"
      " [--error normal|uniform|exponential] [--sigma X] [--mixed] [--seed S]\n"
      "  uncertts match    --in data.ucr --query I --k N"
      " [--measure euclid|dtw|dust|uma|uema] [--sigma X]\n"
      "                    [--window N] [--lambda X]  (uma/uema smoothing)\n"
      "                    [--index [--coefficients K]]  (euclid only:\n"
      "                    prune-before-score cascade, identical results;\n"
      "                    reports candidates touched vs pruned)\n"
      "                    [--memory-budget-mb N]  (euclid only: page the\n"
      "                    SoA store through an N-MiB buffer pool; results\n"
      "                    are bitwise identical to the resident run)\n"
      "  uncertts motifs   --in data.ucr --k N\n"
      "  uncertts --help   this text\n\n"
      "Any command also accepts --force-scalar: pin the bit-exact scalar\n"
      "kernels instead of the runtime-dispatched SIMD level (equivalent to\n"
      "setting UNCERTTS_FORCE_SCALAR=1 in the environment).\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (args.Has("force-scalar")) {
    // Engines read the override via distance::ResolveDispatch at
    // construction, so one env flip covers every engine the command builds.
    setenv("UNCERTTS_FORCE_SCALAR", "1", 1);
  }
  if (command == "datasets") return CmdDatasets();
  if (command == "generate") return CmdGenerate(args);
  if (command == "perturb") return CmdPerturb(args);
  if (command == "match") return CmdMatch(args);
  if (command == "motifs") return CmdMotifs(args);
  if (command == "--help" || command == "help") {
    PrintUsage();
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  PrintUsage();
  return 2;
}
