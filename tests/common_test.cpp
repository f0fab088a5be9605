// Unit tests for Status / Result (src/common) and the command-line tools'
// checked numeric parsing (tools/checked_parse.hpp).

#include <gtest/gtest.h>

#include <sstream>

#include "../tools/checked_parse.hpp"
#include "common/result.hpp"
#include "common/status.hpp"

namespace uts {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FactoryOk) {
  EXPECT_TRUE(Status::OK().ok());
}

TEST(StatusTest, InvalidArgumentCarriesMessage) {
  Status s = Status::InvalidArgument("bad window");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad window");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad window");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NumericError("x").code(), StatusCode::kNumericError);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_EQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_EQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_EQ(StatusCodeName(StatusCode::kNotSupported), "NotSupported");
  EXPECT_EQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeName(StatusCode::kNumericError), "NumericError");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::IOError("a"));
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << Status::Corruption("ragged row");
  EXPECT_EQ(os.str(), "Corruption: ragged row");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status Chain(int x) {
  UTS_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_EQ(Chain(-1).code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ValueOrFallback) {
  Result<int> good = 7;
  Result<int> bad = Status::IOError("x");
  EXPECT_EQ(good.ValueOr(-1), 7);
  EXPECT_EQ(bad.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, MutableAccess) {
  Result<std::vector<int>> r = std::vector<int>{1, 2};
  r.ValueOrDie().push_back(3);
  EXPECT_EQ(r.ValueOrDie().size(), 3u);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoubleIt(int x) {
  UTS_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = DoubleIt(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 42);
  auto bad = DoubleIt(0);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckedParseTest, ParseDoubleRejectsNonFiniteText) {
  for (const char* text : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
    double value = 0.5;
    EXPECT_FALSE(tools::ParseDouble("--sigma", text, &value)) << text;
    EXPECT_EQ(value, 0.5) << text;  // untouched on failure
  }
  double value = 0.0;
  ASSERT_TRUE(tools::ParseDouble("--sigma", "-0.25", &value));
  EXPECT_EQ(value, -0.25);
}

}  // namespace
}  // namespace uts
