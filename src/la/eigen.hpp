// appscope/la/eigen.hpp
//
// Symmetric eigenproblem solver: jacobi_eigen, the full spectrum via cyclic
// Jacobi rotations. k-Shape shape extraction uses it on the m×m Gram matrix
// of a cluster's members (m = cluster size); it is also available for
// spectral analyses of correlation matrices.
#pragma once

#include <cstddef>
#include <vector>

#include "la/matrix.hpp"

namespace appscope::la {

struct EigenDecomposition {
  /// Eigenvalues sorted in descending order.
  std::vector<double> values;
  /// eigenvectors.row(i) is the unit eigenvector for values[i].
  Matrix vectors;
};

/// Full eigendecomposition of a symmetric matrix via the cyclic Jacobi
/// method. O(n^3) per sweep; intended for n up to a few hundred. values[0]
/// is the largest algebraic eigenvalue (not the largest in magnitude).
/// Throws PreconditionError if `m` is empty or not symmetric.
EigenDecomposition jacobi_eigen(const Matrix& m, double tolerance = 1e-12,
                                std::size_t max_sweeps = 64);

}  // namespace appscope::la
