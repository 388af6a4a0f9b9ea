#include "progen.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace oocc::progen {

namespace {

/// splitmix64 — tiny, seedable, and fully deterministic across platforms
/// (no <random> distribution wobble between standard libraries).
struct Rng {
  std::uint64_t state;

  explicit Rng(std::uint64_t seed) : state(seed) {}

  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform-ish in [0, bound); modulo bias is irrelevant at test bounds.
  std::uint64_t pick(std::uint64_t bound) { return next() % bound; }

  template <typename T>
  T choose(const std::vector<T>& options) {
    return options[static_cast<std::size_t>(pick(options.size()))];
  }
};

/// Sizes divisible by every generated P so block distributions are even —
/// the differential harness compares processor-0 priced counters against
/// rank-0 measured ones, and even blocks keep every rank's schedule (and
/// therefore the shared assertions) identical.
std::int64_t pick_n(Rng& rng) {
  return rng.choose<std::int64_t>({16, 24, 32, 48});
}

int pick_p(Rng& rng) { return rng.choose<int>({1, 2, 4}); }

/// One elementwise assignment text: lhs(1:n,k) = f(defined arrays, k, the
/// parameter p).
std::string chain_stmt(Rng& rng, const std::string& lhs,
                       const std::vector<std::string>& defined) {
  const std::string s1 = rng.choose(defined);
  const std::string s2 = rng.choose(defined);
  const std::int64_t c = 2 + static_cast<std::int64_t>(rng.pick(4));
  std::ostringstream oss;
  switch (rng.pick(4)) {
    case 0:
      oss << lhs << "(1:n,k) = " << s1 << "(1:n,k)*" << c << " + p";
      break;
    case 1:
      oss << lhs << "(1:n,k) = " << s1 << "(1:n,k) + " << s2 << "(1:n,k)*"
          << c;
      break;
    case 2:
      oss << lhs << "(1:n,k) = " << s1 << "(1:n,k)*" << s2
          << "(1:n,k) + k";
      break;
    default:
      oss << lhs << "(1:n,k) = " << s1 << "(1:n,k)/" << c << " + " << s2
          << "(1:n,k)";
      break;
  }
  return oss.str();
}

void emit_forall(std::ostringstream& oss, const std::string& stmt) {
  oss << "      forall (k=1:n)\n"
      << "        " << stmt << "\n"
      << "      end forall\n";
}

void emit_header(std::ostringstream& oss, std::int64_t n, int p,
                 const std::vector<std::string>& col_arrays,
                 const std::vector<std::string>& row_arrays) {
  oss << "      parameter (n=" << n << ", p=" << p << ")\n";
  oss << "      real";
  bool first = true;
  for (const std::string& a : col_arrays) {
    oss << (first ? " " : ", ") << a << "(n,n)";
    first = false;
  }
  for (const std::string& a : row_arrays) {
    oss << (first ? " " : ", ") << a << "(n,n)";
    first = false;
  }
  oss << "\n"
      << "!hpf$ processors Pr(p)\n"
      << "!hpf$ template d(n)\n"
      << "!hpf$ distribute d(block) onto Pr\n";
  oss << "!hpf$ align (*,:) with d ::";
  first = true;
  for (const std::string& a : col_arrays) {
    oss << (first ? " " : ", ") << a;
    first = false;
  }
  oss << "\n";
  if (!row_arrays.empty()) {
    oss << "!hpf$ align (:,*) with d ::";
    first = true;
    for (const std::string& a : row_arrays) {
      oss << (first ? " " : ", ") << a;
      first = false;
    }
    oss << "\n";
  }
}

void emit_gaxpy_nest(std::ostringstream& oss) {
  oss << "      do j=1, n\n"
      << "        forall (k=1:n)\n"
      << "          temp(1:n,k) = b(k,j)*a(1:n,k)\n"
      << "        end forall\n"
      << "        c(1:n,j) = SUM(temp,2)\n"
      << "      end do\n";
}

/// The oocc_compile / serve default budget rule (a quarter of the largest
/// local array plus reduction-temporary headroom), replicated here so the
/// generator has no serve dependency.
std::int64_t default_budget(std::int64_t n, int p) {
  const std::int64_t largest = n * (n / p);
  return largest / 4 + 4 * n;
}

GeneratedProgram gen_chain(Rng& rng, std::uint64_t seed) {
  GeneratedProgram gp;
  gp.seed = seed;
  gp.n = pick_n(rng);
  gp.nprocs = pick_p(rng);
  const int k = 1 + static_cast<int>(rng.pick(4));
  // Budget in whole columns: 6 columns always lowers every statement
  // (<= 3 arrays each); small multipliers force fusion declines and the
  // searcher's share-fraction candidates, large ones let everything fuse.
  gp.memory_budget_elements = gp.n * rng.choose<std::int64_t>({6, 8, 12, 16});

  const std::vector<std::string> pool = {"u", "v", "w", "y", "z"};
  std::vector<std::string> defined = {"x"};
  std::size_t fresh = 0;
  std::vector<std::string> stmts;
  for (int i = 0; i < k; ++i) {
    std::string lhs;
    // Mostly fresh outputs (chains), occasionally an in-place update.
    if (fresh < pool.size() && (defined.size() < 2 || rng.pick(4) != 0)) {
      lhs = pool[fresh++];
    } else {
      lhs = defined[1 + rng.pick(defined.size() - 1)];  // never input x
    }
    stmts.push_back(chain_stmt(rng, lhs, defined));
    if (std::find(defined.begin(), defined.end(), lhs) == defined.end()) {
      defined.push_back(lhs);
    }
  }

  std::ostringstream oss;
  emit_header(oss, gp.n, gp.nprocs, defined, {});
  for (const std::string& s : stmts) {
    emit_forall(oss, s);
  }
  oss << "      end\n";
  gp.source = oss.str();
  gp.statements = k;
  std::ostringstream d;
  d << "chain-" << k << " n=" << gp.n << " p=" << gp.nprocs
    << " mem=" << gp.memory_budget_elements;
  gp.describe = d.str();
  return gp;
}

GeneratedProgram gen_gaxpy(Rng& rng, std::uint64_t seed) {
  GeneratedProgram gp;
  gp.seed = seed;
  gp.n = pick_n(rng);
  gp.nprocs = pick_p(rng);
  gp.memory_budget_elements =
      default_budget(gp.n, gp.nprocs) *
      rng.choose<std::int64_t>({1, 2, 4});
  std::ostringstream oss;
  emit_header(oss, gp.n, gp.nprocs, {"a", "c", "temp"}, {"b"});
  emit_gaxpy_nest(oss);
  oss << "      end\n";
  gp.source = oss.str();
  gp.statements = 1;
  gp.has_gaxpy = true;
  std::ostringstream d;
  d << "gaxpy n=" << gp.n << " p=" << gp.nprocs
    << " mem=" << gp.memory_budget_elements;
  gp.describe = d.str();
  return gp;
}

GeneratedProgram gen_stencil(Rng& rng, std::uint64_t seed) {
  GeneratedProgram gp;
  gp.seed = seed;
  gp.n = pick_n(rng);
  gp.nprocs = pick_p(rng);
  // Budget = 4n(d + w0): the heuristic width lands exactly on w0; larger
  // w0 gives the searcher room to find even-divisor widths.
  const std::int64_t w0 = rng.choose<std::int64_t>({1, 2, 3, 4, 6});
  gp.memory_budget_elements = 4 * gp.n * (1 + w0);
  std::ostringstream oss;
  emit_header(oss, gp.n, gp.nprocs, {"a", "b"}, {});
  oss << "      forall (k=2:n-1)\n"
      << "        b(2:n-1,k) = (a(1:n-2,k) + a(3:n,k) + a(2:n-1,k-1)"
      << " + a(2:n-1,k+1))/4\n"
      << "      end forall\n"
      << "      end\n";
  gp.source = oss.str();
  gp.statements = 1;
  gp.has_stencil = true;
  std::ostringstream d;
  d << "stencil n=" << gp.n << " p=" << gp.nprocs
    << " mem=" << gp.memory_budget_elements;
  gp.describe = d.str();
  return gp;
}

GeneratedProgram gen_mixed(Rng& rng, std::uint64_t seed) {
  GeneratedProgram gp;
  gp.seed = seed;
  gp.n = pick_n(rng);
  gp.nprocs = pick_p(rng);
  gp.memory_budget_elements =
      default_budget(gp.n, gp.nprocs) * rng.choose<std::int64_t>({1, 2});

  // Elementwise statements around the GAXPY barrier operate on arrays the
  // reduction never touches: the GAXPY may reorganize a/c to row-major
  // storage, and an elementwise sweep over a reorganized array would be a
  // (correctly rejected) storage conflict, not a test of the search.
  const int pre = static_cast<int>(rng.pick(3));        // 0..2
  const int post = 1 + static_cast<int>(rng.pick(2));   // 1..2
  const std::vector<std::string> pool = {"u", "v", "w"};
  std::vector<std::string> defined = {"x"};
  std::size_t fresh = 0;
  std::vector<std::string> pre_stmts;
  std::vector<std::string> post_stmts;
  for (int i = 0; i < pre + post; ++i) {
    std::string lhs;
    if (fresh < pool.size()) {
      lhs = pool[fresh++];
    } else {
      lhs = defined[1 + rng.pick(defined.size() - 1)];
    }
    (i < pre ? pre_stmts : post_stmts)
        .push_back(chain_stmt(rng, lhs, defined));
    if (std::find(defined.begin(), defined.end(), lhs) == defined.end()) {
      defined.push_back(lhs);
    }
  }

  std::vector<std::string> col = defined;
  col.push_back("a");
  col.push_back("c");
  col.push_back("temp");
  std::ostringstream oss;
  emit_header(oss, gp.n, gp.nprocs, col, {"b"});
  for (const std::string& s : pre_stmts) {
    emit_forall(oss, s);
  }
  emit_gaxpy_nest(oss);
  for (const std::string& s : post_stmts) {
    emit_forall(oss, s);
  }
  oss << "      end\n";
  gp.source = oss.str();
  gp.statements = pre + 1 + post;
  gp.has_gaxpy = true;
  std::ostringstream d;
  d << "mixed-" << pre << "+gaxpy+" << post << " n=" << gp.n
    << " p=" << gp.nprocs << " mem=" << gp.memory_budget_elements;
  gp.describe = d.str();
  return gp;
}

}  // namespace

GeneratedProgram generate_program(std::uint64_t seed) {
  // Mix the seed so consecutive seeds land on unrelated streams.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x6a09e667f3bcc909ULL);
  switch (rng.pick(4)) {
    case 0:
      return gen_chain(rng, seed);
    case 1:
      return gen_gaxpy(rng, seed);
    case 2:
      return gen_stencil(rng, seed);
    default:
      return gen_mixed(rng, seed);
  }
}

}  // namespace oocc::progen
