// The fixed-point row kernel: acc[c] += Σ_i div.mul(w(i, c), x[i]).
//
// This is the one inner loop of the fused fixed datapath: each LSTM step
// accumulates the packed [W_x; W_h] block against [x_t; h_{t-1}], one
// unit-stride weight row per operand. On x86-64 CPUs with AVX-512 IFMA it
// keeps the accumulator row in registers across every row of the block
// and runs eight products per instruction through the 52-bit
// invariant-divisor reciprocal (InvariantScale::magic52); everywhere else,
// and for every row its guard rejects, it is the loop of scalar
// InvariantScale::mul. Integer sums do not depend on order, so both bodies
// are bit-identical to that loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fixed/scaled_fixed.hpp"

namespace csdml::fixedpt {

/// Largest |x| for which every product of a weight of magnitude at most
/// `max_w` stays inside the vector body's exact window,
/// |w|·|x| + scale/2 < 2^52: (2^52 - 1 - scale/2) / max(max_w, 1). -1 when
/// the divisor has no 52-bit reciprocal (scale 1 or above 2^52), so every
/// row takes the scalar loop.
std::int64_t x_limit_for_max(const InvariantScale& div, std::uint64_t max_w);

/// x_limit_for_max over the largest |w[c]|.
std::int64_t row_x_limit(const InvariantScale& div, std::span<const std::int64_t> w);

/// Sign-mask bytes per row of a block `cols` wide: two per eight columns.
constexpr std::size_t sign_bytes(std::size_t cols) { return 2 * ((cols + 7) / 8); }

/// A row-major weight block as mul_add_rows reads it (non-owning; see
/// PackedRows for the layout). `stride` is the block's row pitch and is
/// independent of how many columns a call accumulates.
struct RowBlock {
  const std::uint64_t* magnitude{nullptr};  ///< |w(i, c)| at i·stride + c
  const std::uint8_t* sign{nullptr};        ///< sign_bytes(stride) per row
  std::size_t rows{0};
  std::size_t stride{0};
  std::int64_t x_limit{-1};  ///< x_limit_for_max over every |w| in the block
};

/// A rows × cols weight matrix staged once for mul_add_rows. The vector
/// body reads |w| and, per row and eight columns, two sign masks: bit k of
/// byte v is set where w(i, 8v+k) < 0 (the lanes where w·x is negative for
/// x > 0), and bit k of byte lanes + v where w(i, 8v+k) > 0 (the same for
/// x < 0), lanes = ceil(cols / 8). The scalar loop rebuilds w from them.
class PackedRows {
 public:
  PackedRows() = default;
  /// A zero matrix whose limit is taken for `div`.
  PackedRows(const InvariantScale& div, std::size_t rows, std::size_t cols);

  /// Writes row i (cols() weights) and lowers x_limit() when one of them
  /// is the largest |w| yet.
  void set_row(std::size_t i, std::span<const std::int64_t> w);
  /// The signed weight at (i, c).
  std::int64_t at(std::size_t i, std::size_t c) const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::int64_t x_limit() const { return x_limit_; }
  RowBlock block() const {
    return {magnitude_.data(), sign_.data(), rows_, cols_, x_limit_};
  }

 private:
  std::vector<std::uint64_t> magnitude_;
  std::vector<std::uint8_t> sign_;
  std::size_t rows_{0};
  std::size_t cols_{0};
  std::int64_t room_{-1};  ///< x_limit_for_max(div, 1)
  std::uint64_t max_w_{0};
  std::int64_t x_limit_{-1};
};

/// acc[c] += div.mul(w(i, c), x[i]) for every row i and c in [0, n),
/// n <= w.stride: bit-identical to the loop of mul_add_row_scalar over the
/// rows, and throwing when that loop throws (acc is then unspecified). `w`
/// must be staged for `div`. Rows with x[i] == 0 are skipped (their
/// products are exactly zero); a row with |x[i]| <= w.x_limit takes the
/// vector body, any other the scalar loop.
void mul_add_rows(const InvariantScale& div, const RowBlock& w, const std::int64_t* x,
                  std::int64_t* acc, std::size_t n);

/// The scalar body for one signed row: the loop of InvariantScale::mul.
/// Fallback and oracle.
void mul_add_row_scalar(const InvariantScale& div, const std::int64_t* w,
                        std::int64_t x, std::int64_t* acc, std::size_t n);

/// The body mul_add_rows takes for the rows its guard passes: "avx512ifma"
/// or "scalar". Detected once, on first use.
const char* row_kernel_isa();

}  // namespace csdml::fixedpt
