// Unit tests for oocc/util: errors, tables, env parsing, RNG, hash.
#include <gtest/gtest.h>

#include <cstdlib>

#include "oocc/util/env.hpp"
#include "oocc/util/error.hpp"
#include "oocc/util/hash.hpp"
#include "oocc/util/rng.hpp"
#include "oocc/util/table.hpp"

namespace oocc {
namespace {

TEST(ErrorTest, CarriesCodeAndMessage) {
  try {
    OOCC_THROW(ErrorCode::kIoError, "disk " << 3 << " on fire");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    EXPECT_NE(std::string(e.what()).find("disk 3 on fire"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("IoError"), std::string::npos);
  }
}

TEST(ErrorTest, CheckPassesOnTrueCondition) {
  EXPECT_NO_THROW(OOCC_CHECK(1 + 1 == 2, ErrorCode::kInvalidArgument, "no"));
}

TEST(ErrorTest, RequireThrowsInvalidArgument) {
  try {
    OOCC_REQUIRE(false, "bad argument " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST(ErrorTest, AssertReportsLocation) {
  try {
    OOCC_ASSERT(false, "invariant " << "broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRuntimeError);
    EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
  }
}

TEST(ErrorTest, EveryCodeHasAName) {
  for (ErrorCode code :
       {ErrorCode::kInvalidArgument, ErrorCode::kOutOfRange,
        ErrorCode::kIoError, ErrorCode::kParseError, ErrorCode::kSemanticError,
        ErrorCode::kCompileError, ErrorCode::kRuntimeError,
        ErrorCode::kResourceExhausted}) {
    EXPECT_FALSE(error_code_name(code).empty());
    EXPECT_NE(error_code_name(code), "Unknown");
  }
}

TEST(TableTest, AlignsColumns) {
  TextTable t({"Slab Ratio", "4 Procs"});
  t.add_row({"1/8", "1045.84"});
  t.add_row({"1", "923.11"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("Slab Ratio | 4 Procs"), std::string::npos);
  EXPECT_NE(out.find("1/8"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, RejectsAritymismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(TableTest, NumericRowFormatting) {
  TextTable t({"label", "x", "y"});
  t.add_numeric_row("row", {1.23456, 2.0}, 2);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("row,1.23,2.00"), std::string::npos);
}

TEST(TableTest, FormatRatio) {
  EXPECT_EQ(format_ratio(1, 8), "1/8");
  EXPECT_EQ(format_ratio(1, 1), "1");
  EXPECT_THROW(format_ratio(1, 0), Error);
}

TEST(EnvTest, IntFallbacks) {
  ::unsetenv("OOCC_TEST_INT");
  EXPECT_EQ(env_int("OOCC_TEST_INT", 7), 7);
  ::setenv("OOCC_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("OOCC_TEST_INT", 7), 42);
  ::setenv("OOCC_TEST_INT", "not-a-number", 1);
  EXPECT_EQ(env_int("OOCC_TEST_INT", 7), 7);
  ::unsetenv("OOCC_TEST_INT");
}

TEST(EnvTest, Flags) {
  ::unsetenv("OOCC_TEST_FLAG");
  EXPECT_FALSE(env_flag("OOCC_TEST_FLAG"));
  ::setenv("OOCC_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env_flag("OOCC_TEST_FLAG"));
  ::setenv("OOCC_TEST_FLAG", "off", 1);
  EXPECT_FALSE(env_flag("OOCC_TEST_FLAG"));
  ::unsetenv("OOCC_TEST_FLAG");
}

TEST(EnvTest, IntList) {
  ::unsetenv("OOCC_TEST_LIST");
  EXPECT_EQ(env_int_list("OOCC_TEST_LIST", {4, 16}), (std::vector<int>{4, 16}));
  ::setenv("OOCC_TEST_LIST", "4,16,32,64", 1);
  EXPECT_EQ(env_int_list("OOCC_TEST_LIST", {}),
            (std::vector<int>{4, 16, 32, 64}));
  ::setenv("OOCC_TEST_LIST", "4,bogus", 1);
  EXPECT_EQ(env_int_list("OOCC_TEST_LIST", {1}), (std::vector<int>{1}));
  ::unsetenv("OOCC_TEST_LIST");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundsRespected) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, RoughlyUniform) {
  Rng r(7);
  int buckets[10] = {};
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    buckets[r.next_below(10)]++;
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, trials / 10, trials / 100);
  }
}

TEST(HashTest, Fnv1aStandardVectors) {
  EXPECT_EQ(fnv1a("", 0, kFnv1aOffsetBasis), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a", 1, kFnv1aOffsetBasis), 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, FileChecksumSeedKeepsEarlierFilesReadable) {
  // The WAL and checkpoint checksum of a fixed 64-byte payload, as builds
  // before the shared hash computed it: a different seed would make every
  // file they wrote fail its checksum.
  unsigned char payload[64];
  for (int i = 0; i < 64; ++i) {
    payload[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  EXPECT_EQ(fnv1a(payload, sizeof(payload), kFileChecksumSeed),
            0x286d4b6114e61fc3ULL);
}

}  // namespace
}  // namespace oocc
