#include "io/ucr_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace uts::io {

namespace {

/// Split a UCR line on commas and/or whitespace into numeric tokens.
Result<std::vector<double>> ParseLine(const std::string& line,
                                      std::size_t line_number) {
  std::vector<double> fields;
  std::string token;
  auto flush = [&]() -> Status {
    if (token.empty()) return Status::OK();
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &consumed);
    } catch (const std::exception&) {
      return Status::Corruption("non-numeric field '" + token + "' on line " +
                                std::to_string(line_number));
    }
    if (consumed != token.size()) {
      return Status::Corruption("trailing garbage in field '" + token +
                                "' on line " + std::to_string(line_number));
    }
    // std::stod accepts "nan" and "inf"; a NaN distance would break the
    // strict weak order every ranking relies on.
    if (!std::isfinite(value)) {
      return Status::Corruption("non-finite field '" + token + "' on line " +
                                std::to_string(line_number));
    }
    fields.push_back(value);
    token.clear();
    return Status::OK();
  };

  for (char c : line) {
    if (c == ',' || c == ' ' || c == '\t' || c == '\r') {
      UTS_RETURN_NOT_OK(flush());
    } else {
      token.push_back(c);
    }
  }
  UTS_RETURN_NOT_OK(flush());
  return fields;
}

}  // namespace

Result<ts::Dataset> ReadUcrStream(std::istream& in, const std::string& name) {
  ts::Dataset dataset(name);
  std::string line;
  std::size_t line_number = 0;
  std::size_t expected_length = 0;
  while (std::getline(in, line)) {
    ++line_number;
    auto fields = ParseLine(line, line_number);
    if (!fields.ok()) return fields.status();
    std::vector<double>& values = fields.ValueOrDie();
    if (values.empty()) continue;  // blank line
    if (values.size() < 2) {
      return Status::Corruption("line " + std::to_string(line_number) +
                                " has a label but no values");
    }
    const double raw_label = values.front();
    const int label = static_cast<int>(std::llround(raw_label));
    values.erase(values.begin());
    if (expected_length == 0) {
      expected_length = values.size();
    } else if (values.size() != expected_length) {
      return Status::Corruption(
          "ragged series length on line " + std::to_string(line_number) +
          " (expected " + std::to_string(expected_length) + ", got " +
          std::to_string(values.size()) + ")");
    }
    dataset.Add(ts::TimeSeries(
        std::move(values), label,
        name + "/" + std::to_string(dataset.size())));
  }
  if (dataset.empty()) {
    return Status::Corruption("no series found in UCR input");
  }
  return dataset;
}

Result<ts::Dataset> ReadUcrFile(const std::string& path,
                                const std::string& name) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  return ReadUcrStream(in, name);
}

Result<ts::Dataset> ReadUcrPair(const std::string& train_path,
                                const std::string& test_path,
                                const std::string& name) {
  auto train = ReadUcrFile(train_path, name);
  if (!train.ok()) return train.status();
  auto test = ReadUcrFile(test_path, name);
  if (!test.ok()) return test.status();
  return ts::Dataset::Merge(name, train.ValueOrDie(), test.ValueOrDie());
}

Status WriteUcrStream(const ts::Dataset& dataset, std::ostream& out) {
  // Round-trip fidelity must not depend on the caller's stream state: 17
  // significant digits reproduce any double exactly, whereas the default 6
  // silently loses precision for direct WriteUcrStream callers. The caller's
  // precision is restored on exit.
  const std::streamsize saved_precision = out.precision(17);
  for (const auto& series : dataset) {
    out << series.label();
    for (double v : series) out << ',' << v;
    out << '\n';
  }
  out.precision(saved_precision);
  if (!out) return Status::IOError("write failure");
  return Status::OK();
}

Status WriteUcrFile(const ts::Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot create '" + path + "'");
  return WriteUcrStream(dataset, out);
}

}  // namespace uts::io
