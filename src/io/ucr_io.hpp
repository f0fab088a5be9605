/// \file ucr_io.hpp
/// \brief Reading and writing datasets in the UCR archive text format.
///
/// Each line is one series: a numeric class label followed by the values,
/// separated by commas or whitespace. With these routines the synthetic
/// generators can be swapped for the *real* UCR files with no other code
/// changes — the paper's exact datasets drop in when available.

#ifndef UTS_IO_UCR_IO_HPP_
#define UTS_IO_UCR_IO_HPP_

#include <iosfwd>
#include <string>

#include "common/result.hpp"
#include "ts/dataset.hpp"

namespace uts::io {

/// \brief Parse a UCR-format stream into a dataset named `name`.
///
/// Lines must agree on length; empty lines are skipped. Labels are rounded
/// to the nearest integer (UCR labels are integral but sometimes written as
/// floats). Fails with Corruption on non-numeric or non-finite fields (NaN
/// and ±inf, label included) or ragged rows.
Result<ts::Dataset> ReadUcrStream(std::istream& in, const std::string& name);

/// \brief Load a UCR-format file.
Result<ts::Dataset> ReadUcrFile(const std::string& path,
                                const std::string& name);

/// \brief Load and join a UCR train/test pair ("The training and testing
/// sets were joined together", Section 4.1.1).
Result<ts::Dataset> ReadUcrPair(const std::string& train_path,
                                const std::string& test_path,
                                const std::string& name);

/// \brief Write a dataset in UCR format (comma-separated).
Status WriteUcrStream(const ts::Dataset& dataset, std::ostream& out);

/// \brief Write a dataset to a UCR-format file.
Status WriteUcrFile(const ts::Dataset& dataset, const std::string& path);

}  // namespace uts::io

#endif  // UTS_IO_UCR_IO_HPP_
