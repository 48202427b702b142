// Runtime ISA selection for the batch kernels that carry a vector build
// of their inner loop (Rng::fill_cn's noise block, with AVX2+FMA and
// AVX-512F bodies, and the correlator's chip-box kernel, with one
// AVX2+FMA body). On x86-64 each body is compiled as a target-attribute
// function into every build, and the widest one the running CPU
// supports runs — chosen from the host, not from the build's -march.
// Other hosts run the baseline body only.
#pragma once

namespace fdb {

/// Instruction sets a dispatched kernel can be instantiated for. Each
/// kernel's target attribute names exactly the features that
/// simd_target_supported checks for it ("avx2,fma" and "avx512f").
enum class SimdTarget { kScalar, kAvx2Fma, kAvx512f };

/// "scalar", "avx2+fma" or "avx512f".
const char* simd_target_name(SimdTarget target);

/// True when the running CPU (and OS) can execute `target`.
bool simd_target_supported(SimdTarget target);

/// The widest supported target; detected on the first call, once per
/// process.
SimdTarget simd_dispatch_target();

}  // namespace fdb
