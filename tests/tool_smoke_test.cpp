// End-to-end smoke test for the oocc_compile driver: compile one of the
// bundled HPF programs and check that the tool exits cleanly and emits a
// decision report plus a node program. Keeps the tool target wired into the
// pipeline — a regression in the parser, compiler, or driver plumbing that
// breaks the CLI fails here even if the unit suites still pass.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "oocc/hpf/programs.hpp"
#include "oocc/io/file_backend.hpp"

#ifndef OOCC_COMPILE_BIN
#define OOCC_COMPILE_BIN ""
#endif

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class OoccCompileSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(OOCC_COMPILE_BIN).empty()) {
      GTEST_SKIP() << "oocc_compile was not built (OOCC_BUILD_TOOLS=OFF)";
    }
  }
};

TEST_F(OoccCompileSmoke, CompilesBundledGaxpyProgram) {
  oocc::io::TempDir dir("oocc-smoke");
  const auto program = dir.file("gaxpy.hpf");
  {
    std::ofstream out(program);
    out << oocc::hpf::gaxpy_source(64, 4);
  }
  const auto stdout_path = dir.file("out.txt");
  const auto stderr_path = dir.file("err.txt");

  const std::string cmd = std::string("\"") + OOCC_COMPILE_BIN + "\" \"" +
                          program.string() + "\" > \"" +
                          stdout_path.string() + "\" 2> \"" +
                          stderr_path.string() + "\"";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "stderr:\n" << read_file(stderr_path);

  const std::string output = read_file(stdout_path);
  EXPECT_FALSE(output.empty());
  EXPECT_NE(output.find("decision report"), std::string::npos) << output;
  EXPECT_NE(output.find("node program"), std::string::npos) << output;
}

TEST_F(OoccCompileSmoke, DumpPlanPrintsStepProgram) {
  oocc::io::TempDir dir("oocc-smoke");
  const auto program = dir.file("chain.hpf");
  {
    std::ofstream out(program);
    out << "parameter (n=16, p=2)\n"
           "real x(n,n), y(n,n), z(n,n)\n"
           "!hpf$ processors Pr(p)\n"
           "!hpf$ template d(n)\n"
           "!hpf$ distribute d(block) onto Pr\n"
           "!hpf$ align (*,:) with d :: x, y, z\n"
           "forall (k=1:n)\n"
           "  y(1:n,k) = x(1:n,k)*2 + 1\n"
           "end forall\n"
           "forall (k=1:n)\n"
           "  z(1:n,k) = y(1:n,k)*y(1:n,k)\n"
           "end forall\n"
           "end\n";
  }
  const auto stdout_path = dir.file("out.txt");
  const auto stderr_path = dir.file("err.txt");
  const std::string cmd = std::string("\"") + OOCC_COMPILE_BIN + "\" \"" +
                          program.string() + "\" --dump-plan > \"" +
                          stdout_path.string() + "\" 2> \"" +
                          stderr_path.string() + "\"";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "stderr:\n" << read_file(stderr_path);

  const std::string output = read_file(stdout_path);
  // The two statements fuse into one sweep whose step IR reads x once and
  // writes both produced arrays; the step price table rides along.
  EXPECT_NE(output.find("step program"), std::string::npos) << output;
  EXPECT_NE(output.find("for-each-slab"), std::string::npos) << output;
  EXPECT_NE(output.find("read-slab x"), std::string::npos) << output;
  EXPECT_NE(output.find("write-slab z"), std::string::npos) << output;
  EXPECT_NE(output.find("step I/O price"), std::string::npos) << output;
  EXPECT_EQ(output.find("read-slab y"), std::string::npos) << output;
}

TEST_F(OoccCompileSmoke, AutoPrefetchAndNoCacheFlags) {
  oocc::io::TempDir dir("oocc-smoke");
  const auto program = dir.file("gaxpy.hpf");
  {
    std::ofstream out(program);
    out << oocc::hpf::gaxpy_source(32, 2);
  }
  const auto stdout_path = dir.file("out.txt");
  const auto stderr_path = dir.file("err.txt");
  const std::string cmd = std::string("\"") + OOCC_COMPILE_BIN + "\" \"" +
                          program.string() +
                          "\" --prefetch=auto --no-cache --run > \"" +
                          stdout_path.string() + "\" 2> \"" +
                          stderr_path.string() + "\"";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "stderr:\n" << read_file(stderr_path);

  const std::string output = read_file(stdout_path);
  // The auto decision is reported, and --no-cache suppresses the pool's
  // counter line.
  EXPECT_NE(output.find("prefetch: auto:"), std::string::npos) << output;
  EXPECT_NE(output.find("=== execution ==="), std::string::npos) << output;
  EXPECT_EQ(output.find("slab cache:"), std::string::npos) << output;
}

TEST_F(OoccCompileSmoke, UnfusedChainRunsAtItsOwnBudget) {
  // Regression: at this budget the statement-at-a-time chain's cover hits
  // once left no room to assemble beside their pinned sources, and --run
  // died with ResourceExhausted although the plan verified. Such a read is
  // now served from disk: the run succeeds and matches the uncached one.
  oocc::io::TempDir dir("oocc-smoke");
  const auto stdout_path = dir.file("out.txt");
  const auto stderr_path = dir.file("err.txt");
  std::string hashes[2];
  for (const bool cache : {true, false}) {
    const std::string cmd =
        std::string("\"") + OOCC_COMPILE_BIN + "\" \"" + OOCC_EXAMPLES_DIR +
        "/elementwise_chain.hpf\" --memory 2048 --no-fuse --run "
        "--result-hash" +
        (cache ? "" : " --no-cache") + " > \"" + stdout_path.string() +
        "\" 2> \"" + stderr_path.string() + "\"";
    const int rc = std::system(cmd.c_str());
    EXPECT_EQ(rc, 0) << "stderr:\n" << read_file(stderr_path);
    const std::string output = read_file(stdout_path);
    const std::size_t at = output.find("result hash: ");
    ASSERT_NE(at, std::string::npos) << output;
    hashes[cache ? 0 : 1] = output.substr(at, output.find('\n', at) - at);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
}

TEST_F(OoccCompileSmoke, DumpPlanPricesTheSlabCache) {
  oocc::io::TempDir dir("oocc-smoke");
  const auto program = dir.file("chain.hpf");
  {
    std::ofstream out(program);
    out << "parameter (n=16, p=2)\n"
           "real x(n,n), y(n,n), z(n,n)\n"
           "!hpf$ processors Pr(p)\n"
           "!hpf$ template d(n)\n"
           "!hpf$ distribute d(block) onto Pr\n"
           "!hpf$ align (*,:) with d :: x, y, z\n"
           "forall (k=1:n)\n"
           "  y(1:n,k) = x(1:n,k)*2 + 1\n"
           "end forall\n"
           "forall (k=1:n)\n"
           "  z(1:n,k) = y(1:n,k)*x(1:n,k)\n"
           "end forall\n"
           "end\n";
  }
  const auto stdout_path = dir.file("out.txt");
  const auto stderr_path = dir.file("err.txt");
  // --no-fuse keeps two statements; at this budget both sweeps are single
  // slabs of identical geometry, so statement 2's reads of x and y are
  // exactly the two priced cache hits.
  const std::string cmd = std::string("\"") + OOCC_COMPILE_BIN + "\" \"" +
                          program.string() +
                          "\" --memory 1024 --no-fuse --dump-plan > \"" +
                          stdout_path.string() + "\" 2> \"" +
                          stderr_path.string() + "\"";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "stderr:\n" << read_file(stderr_path);

  const std::string output = read_file(stdout_path);
  EXPECT_NE(output.find("step I/O price with slab cache"), std::string::npos)
      << output;
  EXPECT_NE(output.find("cache hits: 2"), std::string::npos) << output;
}

TEST_F(OoccCompileSmoke, StencilDemoRunsAndVerifies) {
  oocc::io::TempDir dir("oocc-smoke");
  const auto stdout_path = dir.file("out.txt");
  const auto stderr_path = dir.file("err.txt");
  const std::string cmd = std::string("\"") + OOCC_COMPILE_BIN +
                          "\" --stencil=32,4 --memory 512 --run --verify "
                          "--iters 3 > \"" +
                          stdout_path.string() + "\" 2> \"" +
                          stderr_path.string() + "\"";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "stderr:\n" << read_file(stderr_path);

  const std::string output = read_file(stdout_path);
  EXPECT_NE(output.find("stencil-forall"), std::string::npos) << output;
  EXPECT_NE(output.find("3 sweep(s) run"), std::string::npos) << output;
  EXPECT_NE(output.find("BIT-IDENTICAL"), std::string::npos) << output;
}

/// Runs oocc_compile with `args`; returns its stdout, `rc` its status.
std::string run_tool(const std::string& args, int& rc) {
  oocc::io::TempDir dir("oocc-smoke");
  const auto stdout_path = dir.file("out.txt");
  const std::string cmd = std::string("\"") + OOCC_COMPILE_BIN + "\" " +
                          args + " > \"" + stdout_path.string() +
                          "\" 2>&1";
  rc = std::system(cmd.c_str());
  return read_file(stdout_path);
}

/// The rest of the line that starts with `prefix`; empty when none does.
std::string line_after(const std::string& output, const std::string& prefix) {
  std::istringstream in(output);
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with(prefix)) {
      return line.substr(prefix.size());
    }
  }
  return "";
}

TEST_F(OoccCompileSmoke, EveryExampleVerifiesAgainstASerialReference) {
  // Elementwise programs used to print no verification line at all, and a
  // GAXPY result passed on a tolerance alone. Every example must now match
  // its reference bit for bit.
  int checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(OOCC_EXAMPLES_DIR)) {
    if (entry.path().extension() != ".hpf") {
      continue;
    }
    int rc = 0;
    // Appended piecewise, as GCC 12's -O3 -Wrestrict misfires on
    // "literal" + std::string.
    std::string args = "\"";
    args += entry.path().string();
    args += "\" --run --verify";
    const std::string output = run_tool(args, rc);
    EXPECT_EQ(rc, 0) << entry.path() << "\n" << output;
    const std::string verdict = line_after(output, "verification: ");
    EXPECT_TRUE(verdict.ends_with("-> BIT-IDENTICAL"))
        << entry.path() << "\n" << output;
    ++checked;
  }
  EXPECT_GE(checked, 6);
}

TEST_F(OoccCompileSmoke, RunPricesTheTrafficItMeasures) {
  // Processor 0's LAF traffic priced over every sweep run equals what the
  // run measured; the 2,048-element pool keeps target slabs alive from one
  // sweep to the one that overwrites them, so dead slabs are dropped.
  std::vector<std::string> runs;
  for (const char* iters : {"1", "3", "8"}) {
    for (const char* memory : {"", " --memory 2048"}) {
      runs.push_back(std::string("/stencil.hpf\" --run --iters ") + iters +
                     memory);
    }
  }
  runs.push_back("/elementwise_chain.hpf\" --run");
  runs.push_back("/elementwise_chain.hpf\" --run --no-fuse");
  for (const std::string& run : runs) {
    int rc = 0;
    const std::string output = run_tool(
        std::string("\"") + OOCC_EXAMPLES_DIR + run, rc);
    EXPECT_EQ(rc, 0) << run << "\n" << output;
    const std::string priced = line_after(output, "priced (processor 0): ");
    EXPECT_FALSE(priced.empty()) << run << "\n" << output;
    EXPECT_EQ(priced, line_after(output, "measured (processor 0): "))
        << run << "\n" << output;
  }
  int rc = 0;
  const std::string output =
      run_tool(std::string("\"") + OOCC_EXAMPLES_DIR +
                   "/stencil.hpf\" --run --iters 8 --memory 2048",
               rc);
  EXPECT_EQ(line_after(output, "slab cache: ").find(", 0 dead slabs"),
            std::string::npos)
      << output;
}

TEST_F(OoccCompileSmoke, RejectsMissingInputWithUsage) {
  oocc::io::TempDir dir("oocc-smoke");
  const auto stderr_path = dir.file("err.txt");
  const std::string cmd = std::string("\"") + OOCC_COMPILE_BIN +
                          "\" > /dev/null 2> \"" + stderr_path.string() + "\"";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2);
  EXPECT_NE(read_file(stderr_path).find("usage:"), std::string::npos);
}

}  // namespace
