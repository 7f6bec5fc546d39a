// Sparse assembly for the appendix oracle (appendix_oracle.hpp), which
// emits the no-internal-RAID absorption matrix as triplets. Triplets are
// the mutable assembly form (duplicates accumulate, like
// Chain::add_transition); CsrMatrix is the compressed sparse row form
// that accumulates them in a fixed order and expands to dense.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "diffharness/matrix.hpp"

namespace nsrel::linalg::sparse {

/// One assembly entry: (row, col, value). Duplicate coordinates sum.
struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets: entries are bucketed by row, sorted by
  /// column, and duplicates accumulated IN TRIPLET ORDER (so assembly
  /// reproduces the exact floating-point sums a dense `+=` loop over
  /// the same triplets would produce). Exact zeros are kept.
  [[nodiscard]] static CsrMatrix from_triplets(
      std::size_t rows, std::size_t cols,
      const std::vector<Triplet>& triplets);

  /// Expands to dense.
  [[nodiscard]] Matrix to_dense() const;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_index_;
  std::vector<double> values_;
};

}  // namespace nsrel::linalg::sparse
