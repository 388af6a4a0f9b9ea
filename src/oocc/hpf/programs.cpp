#include "oocc/hpf/programs.hpp"

#include <sstream>

namespace oocc::hpf {

std::string gaxpy_source(std::int64_t n, std::int64_t nprocs) {
  std::ostringstream oss;
  oss << "      parameter (n=" << n << ", nprocs=" << nprocs << ")\n"
      << "      real a(n,n), b(n,n), c(n,n), temp(n,n)\n"
      << "!hpf$ processors Pr(nprocs)\n"
      << "!hpf$ template d(n)\n"
      << "!hpf$ distribute d(block) onto Pr\n"
      << "!hpf$ align (*,:) with d :: a, c, temp\n"
      << "!hpf$ align (:,*) with d :: b\n"
      << "      do j=1, n\n"
      << "        forall (k=1:n)\n"
      << "          temp(1:n,k) = b(k,j)*a(1:n,k)\n"
      << "        end forall\n"
      << "        c(1:n,j) = SUM(temp,2)\n"
      << "      end do\n"
      << "      end\n";
  return oss.str();
}

std::string elementwise_source(std::int64_t rows, std::int64_t cols,
                               std::int64_t nprocs, std::int64_t alpha) {
  std::ostringstream oss;
  oss << "      parameter (m=" << rows << ", n=" << cols << ", p=" << nprocs
      << ")\n"
      << "      real x(m,n), y(m,n)\n"
      << "!hpf$ processors Pr(p)\n"
      << "!hpf$ template d(n)\n"
      << "!hpf$ distribute d(block) onto Pr\n"
      << "!hpf$ align (*,:) with d :: x, y\n"
      << "      forall (k=1:n)\n"
      << "        y(1:m,k) = x(1:m,k)*" << alpha << " + k\n"
      << "      end forall\n"
      << "      end\n";
  return oss.str();
}

std::string stencil_source(std::int64_t n, std::int64_t nprocs) {
  std::ostringstream oss;
  oss << "      parameter (n=" << n << ", p=" << nprocs << ")\n"
      << "      real a(n,n), b(n,n)\n"
      << "!hpf$ processors Pr(p)\n"
      << "!hpf$ template d(n)\n"
      << "!hpf$ distribute d(block) onto Pr\n"
      << "!hpf$ align (*,:) with d :: a, b\n"
      << "      forall (k=2:n-1)\n"
      << "        b(2:n-1,k) = (a(1:n-2,k) + a(3:n,k) + a(2:n-1,k-1)"
      << " + a(2:n-1,k+1))/4\n"
      << "      end forall\n"
      << "      end\n";
  return oss.str();
}

}  // namespace oocc::hpf
