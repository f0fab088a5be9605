#include "distance/simd.hpp"

#include <cstdlib>
#include <cstring>

namespace uts::distance {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelDispatch& ScalarDispatch() {
  static const KernelDispatch table = {
      .level = SimdLevel::kScalar,
      .squared_euclidean_range = &SquaredEuclideanBatchRange,
      .squared_euclidean_multi_query = &SquaredEuclideanMultiQueryBatch,
      .squared_euclidean_early_abandon_range =
          &SquaredEuclideanEarlyAbandonBatchRange,
      .dust_range = &DustBatchRange,
      .dust_classed_range = &DustClassedBatchRange,
      .proud_moment_range = &ProudMomentBatchRange,
  };
  return table;
}

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  // FMA is probed alongside AVX2: the kernels contract into vfmadd, and a
  // (hypothetical) AVX2-without-FMA part must take the scalar path.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool ForceScalarEnv() {
  const char* value = std::getenv("UNCERTTS_FORCE_SCALAR");
  if (value == nullptr) return false;
  if (value[0] == '\0') return false;
  return std::strcmp(value, "0") != 0;
}

const KernelDispatch& ResolveDispatch(SimdMode mode) {
  if (mode == SimdMode::kForceScalar) return ScalarDispatch();
  if (ForceScalarEnv()) return ScalarDispatch();
  if (!Avx2CompiledIn() || !CpuSupportsAvx2()) return ScalarDispatch();
  return Avx2Dispatch();
}

}  // namespace uts::distance
