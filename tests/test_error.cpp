#include "msoc/common/error.hpp"

#include <gtest/gtest.h>

#include <source_location>
#include <string>

#include "msoc/common/format.hpp"

namespace msoc {
namespace {

TEST(Require, PassesOnTrue) {
  EXPECT_NO_THROW(require(true, "unused"));
}

TEST(Require, ThrowsInfeasibleWithMessage) {
  try {
    require(false, "the message");
    FAIL() << "expected InfeasibleError";
  } catch (const InfeasibleError& e) {
    EXPECT_STREQ(e.what(), "the message");
  }
}

TEST(CheckInvariant, CarriesSourceLocation) {
  try {
    check_invariant(false, "broken");
    FAIL() << "expected LogicError";
  } catch (const LogicError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("broken"), std::string::npos);
    EXPECT_NE(what.find("test_error.cpp"), std::string::npos);
  }
}

// The literal overloads must be drop-in: same exception type, same
// message, same call-site annotation as the std::string ones.
TEST(Require, LiteralOverloadThrowsLikeTheStringOverload) {
  std::string from_literal;
  std::string from_string;
  try {
    require(false, "a literal longer than the small-string buffer");
  } catch (const InfeasibleError& e) {
    from_literal = e.what();
  }
  try {
    require(false,
            std::string("a literal longer than the small-string buffer"));
  } catch (const InfeasibleError& e) {
    from_string = e.what();
  }
  EXPECT_EQ(from_literal, "a literal longer than the small-string buffer");
  EXPECT_EQ(from_literal, from_string);
  EXPECT_NO_THROW(require(true, "a literal longer than the buffer"));
}

TEST(CheckInvariant, LiteralOverloadThrowsLikeTheStringOverload) {
  const std::source_location here = std::source_location::current();
  std::string from_literal;
  std::string from_string;
  try {
    check_invariant(false, "packer failed to advance", here);
  } catch (const LogicError& e) {
    from_literal = e.what();
  }
  try {
    check_invariant(false, std::string("packer failed to advance"), here);
  } catch (const LogicError& e) {
    from_string = e.what();
  }
  EXPECT_EQ(from_literal, from_string);
  EXPECT_NE(from_literal.find("packer failed to advance"), std::string::npos);
  EXPECT_NO_THROW(check_invariant(true, "packer failed to advance"));
}

TEST(CheckInvariant, LiteralOverloadAnnotatesItsCaller) {
  const int line = __LINE__ + 2;
  try {
    check_invariant(false, "a literal longer than the small-string buffer");
    FAIL() << "expected LogicError";
  } catch (const LogicError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_error.cpp:" + std::to_string(line)),
              std::string::npos)
        << what;
  }
}

TEST(ParseErrorType, FormatsFileAndLine) {
  const ParseError e("input.soc", 12, "bad token");
  const std::string what = e.what();
  EXPECT_NE(what.find("input.soc:12:"), std::string::npos);
  EXPECT_NE(what.find("bad token"), std::string::npos);
  EXPECT_EQ(e.file(), "input.soc");
  EXPECT_EQ(e.line(), 12);
}

TEST(ParseErrorType, LineZeroOmitted) {
  const ParseError e("f", 0, "cannot open");
  EXPECT_EQ(std::string(e.what()), "f: cannot open");
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(throw InfeasibleError("x"), Error);
  EXPECT_THROW(throw LogicError("x"), Error);
  EXPECT_THROW(throw ParseError("f", 1, "x"), Error);
}

TEST(Format, WithThousands) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(636113), "636,113");
  EXPECT_EQ(with_thousands(1234567890), "1,234,567,890");
}

TEST(Format, Braces) {
  EXPECT_EQ(braces({"A", "C"}), "{A,C}");
  EXPECT_EQ(braces({"A"}), "{A}");
  EXPECT_EQ(braces({}), "{}");
}

TEST(Format, Percent) {
  EXPECT_EQ(percent(61.53), "61.5");
  EXPECT_EQ(percent(100.0), "100.0");
}

}  // namespace
}  // namespace msoc
