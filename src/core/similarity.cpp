#include "core/similarity.hpp"

namespace uts::core {

Result<std::vector<std::size_t>> Matcher::Retrieve(std::size_t qi,
                                                   std::size_t n,
                                                   double epsilon) {
  return Collect(qi, n, [&](std::size_t ci) { return Matches(qi, ci, epsilon); });
}

Result<std::vector<std::vector<std::size_t>>> Matcher::RetrieveEachTau(
    std::size_t, std::size_t, double, std::span<const double>) {
  return Status::InvalidArgument("matcher '" + name() +
                                 "' has no probabilistic threshold");
}

}  // namespace uts::core
