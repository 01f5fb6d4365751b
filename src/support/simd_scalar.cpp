// The portable dispatch table: the reference implementations every vector
// level must match bit for bit. This is what CLB_SIMD=scalar runs, on any
// architecture.

#include "support/simd.hpp"
#include "support/simd_detail.hpp"

namespace congestlb::simd::detail {

namespace {

const Kernels kTable = {
    Level::kScalar,
    scalar_and_rows,
    scalar_and_not_rows,
    scalar_popcount,
    scalar_and_popcount,
    scalar_first_bit,
    scalar_count_nonzero_u8,
    scalar_sum_u32,
    scalar_accumulate_u32_to_u64,
};

}  // namespace

const Kernels* scalar_table() { return &kTable; }

}  // namespace congestlb::simd::detail
