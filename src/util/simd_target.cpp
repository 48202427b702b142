#include "util/simd_target.hpp"

#include <initializer_list>

namespace fdb {
namespace {

SimdTarget detect_target() {
  for (const auto target : {SimdTarget::kAvx512f, SimdTarget::kAvx2Fma}) {
    if (simd_target_supported(target)) return target;
  }
  return SimdTarget::kScalar;
}

}  // namespace

const char* simd_target_name(SimdTarget target) {
  switch (target) {
    case SimdTarget::kAvx512f:
      return "avx512f";
    case SimdTarget::kAvx2Fma:
      return "avx2+fma";
    case SimdTarget::kScalar:
      break;
  }
  return "scalar";
}

bool simd_target_supported(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return true;
#if defined(__x86_64__)
    case SimdTarget::kAvx512f:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f");
    case SimdTarget::kAvx2Fma:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
    default:
      return false;
  }
}

SimdTarget simd_dispatch_target() {
  static const SimdTarget target = detect_target();
  return target;
}

}  // namespace fdb
