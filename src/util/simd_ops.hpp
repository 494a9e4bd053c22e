// Internal dispatch table for the SIMD microkernels.
//
// Each ISA target fills one immutable `Ops` table; `simd.cpp` owns the
// scalar table and the startup selection, `simd_<isa>.cpp` owns that
// ISA's table behind a compile-time gate (returning nullptr when the
// translation unit was built without the ISA).  Adding a new target —
// AVX-512, NEON — means one new source file implementing these seven
// entry points plus a line in the selection ladder; the public API in
// simd.hpp never changes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xdmodml::simd {
struct SvmBlocks;
}

namespace xdmodml::simd::detail {

struct Ops {
  double (*dot)(const double*, const double*, std::size_t);
  void (*dot_rows)(const double*, const double*, std::size_t, std::size_t,
                   double*);
  double (*squared_norm)(const double*, std::size_t);
  void (*exp_inplace)(double*, std::size_t);
  void (*rbf_row_transform)(double*, const double*, std::size_t, double,
                            double);
  void (*poly_row_transform_powi)(double*, std::size_t, double, double,
                                  std::uint64_t);
  void (*svm_block_sums)(const SvmBlocks&, const double*, std::size_t,
                         double*, double*);
};

/// Always present.
const Ops* scalar_ops();

/// AVX2+FMA table, or nullptr when the build lacks the AVX2 TU.
const Ops* avx2_ops();

}  // namespace xdmodml::simd::detail
