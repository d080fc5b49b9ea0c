// Internal declarations shared by the kernel variant translation units
// (kernel_scalar.cpp, kernel_bitparallel.cpp, kernel_avx2.cpp, kernel.cpp).
// Not installed, not part of the public surface: include lcs/kernel.hpp for
// dispatch and lcs/be_lcs.hpp for the entry points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/token.hpp"
#include "lcs/prepared_axis.hpp"

namespace bes {
class lcs_context;
}

namespace bes::lcs_detail {

// All functions follow the lcs_kernel calling convention: the length
// entries take the prepared query axis as the columns and the candidate as
// the rows; the weighted ones take (rows, cols) with cols the shorter
// string. min_needed == 0 means unbounded.

// Scalar reference kernels (kernel_scalar.cpp). The length entries run the
// rolling DPs over the prepared side's tokens.
std::size_t scalar_signed(const prepared_axis& cols,
                          std::span<const token> rows, std::size_t min_needed,
                          lcs_context& ctx);
std::size_t scalar_exact(const prepared_axis& cols, std::span<const token> rows,
                         std::size_t min_needed, lcs_context& ctx);
double scalar_weighted(std::span<const token> rows, std::span<const token> cols,
                       double dummy_weight, lcs_context& ctx);

// Bit-parallel exact two-layer kernel (kernel_bitparallel.cpp); serves both
// the signed and exact lcs_kernel entries.
std::size_t bitparallel_exact(const prepared_axis& cols,
                              std::span<const token> rows,
                              std::size_t min_needed, lcs_context& ctx);

// AVX2 SoA-row weighted kernel (kernel_avx2.cpp). avx2_available() reports
// whether this build compiled it AND the running CPU supports it; calling
// avx2_weighted when it returns false is undefined.
bool avx2_available() noexcept;
double avx2_weighted(std::span<const token> rows, std::span<const token> cols,
                     double dummy_weight, lcs_context& ctx);

}  // namespace bes::lcs_detail
