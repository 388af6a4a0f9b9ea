// Canonical HPF source programs used by tests, examples and benches.
//
// gaxpy_source() reproduces the paper's Figure 3 (parameterized in N and
// P); the others exercise the elementwise FORALL path.
#pragma once

#include <cstdint>
#include <string>

namespace oocc::hpf {

/// The Figure 3 GAXPY matrix-multiplication program.
std::string gaxpy_source(std::int64_t n, std::int64_t nprocs);

/// `y(1:n,k) = x(1:n,k)*alpha + k` — a communication-free elementwise
/// FORALL over two column-block arrays.
std::string elementwise_source(std::int64_t rows, std::int64_t cols,
                               std::int64_t nprocs, std::int64_t alpha);

/// The 5-point Jacobi sweep as a halo-stencil FORALL over a column-block
/// ping-pong pair:
///   forall (k=2:n-1)
///     b(2:n-1,k) = (a(1:n-2,k) + a(3:n,k) + a(2:n-1,k-1) + a(2:n-1,k+1))/4
/// The operand order matches apps/jacobi.cpp's hand-coded kernel term for
/// term, so the compiled program is bit-identical to that oracle.
std::string stencil_source(std::int64_t n, std::int64_t nprocs);

}  // namespace oocc::hpf
