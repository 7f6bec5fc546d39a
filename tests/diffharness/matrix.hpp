// Dense row-major matrix of doubles: part of the test-only linear-algebra
// oracle (with lu.hpp, sparse_matrix.hpp and dense_oracle.hpp). The
// library solves every chain with the GTH elimination kernel; the tests
// check it against dense partial-pivot LU on chains small enough for
// O(n^2) memory and O(n^3) factorizations.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace nsrel::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix of zeros.
  Matrix(std::size_t rows, std::size_t cols);

  /// From nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool square() const { return rows_ == cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    NSREL_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    NSREL_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Matrix product; requires cols() == other.rows().
  [[nodiscard]] Matrix multiply(const Matrix& other) const;
  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    return a.multiply(b);
  }

  /// Matrix-vector product; requires cols() == v.size().
  [[nodiscard]] Vector multiply(const Vector& v) const;

  [[nodiscard]] Matrix transpose() const;

  /// Submatrix dropping one row and one column (used by adjugate-based
  /// identities in the appendix tests).
  [[nodiscard]] Matrix minor_matrix(std::size_t drop_row,
                                    std::size_t drop_col) const;

  /// Max absolute entry (infinity norm of the vectorization).
  [[nodiscard]] double max_abs() const;

  /// Row-sum norm (induced infinity norm).
  [[nodiscard]] double inf_norm() const;

  /// Column-sum norm (induced 1-norm) — the norm the Hager condition
  /// estimator works in.
  [[nodiscard]] double one_norm() const;

  [[nodiscard]] bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  [[nodiscard]] std::string to_string(int precision = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm.
[[nodiscard]] double norm2(const Vector& v);
/// Max-abs norm.
[[nodiscard]] double norm_inf(const Vector& v);
/// Dot product; requires equal sizes.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

}  // namespace nsrel::linalg
