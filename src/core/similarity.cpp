#include "core/similarity.hpp"

namespace uts::core {

Result<std::vector<std::size_t>> Matcher::Retrieve(std::size_t qi,
                                                   std::size_t n,
                                                   double epsilon) {
  std::vector<std::size_t> retrieved;
  for (std::size_t ci = 0; ci < n; ++ci) {
    if (ci == qi) continue;
    auto matched = Matches(qi, ci, epsilon);
    if (!matched.ok()) return matched.status();
    if (matched.ValueOrDie()) retrieved.push_back(ci);
  }
  return retrieved;
}

Result<std::vector<std::vector<std::size_t>>> Matcher::RetrieveEachTau(
    std::size_t qi, std::size_t n, double epsilon,
    std::span<const double> taus) {
  const double saved = tau();
  std::vector<std::vector<std::size_t>> each;
  each.reserve(taus.size());
  for (double t : taus) {
    set_tau(t);
    auto retrieved = Retrieve(qi, n, epsilon);
    if (!retrieved.ok()) {
      set_tau(saved);
      return retrieved.status();
    }
    each.push_back(std::move(retrieved).ValueOrDie());
  }
  set_tau(saved);
  return each;
}

}  // namespace uts::core
