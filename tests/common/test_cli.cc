/** @file Validated numeric flag values of the shared CLI scanner. */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hh"

using namespace alphapim;

TEST(ParseUnsigned, AcceptsPlainDecimalsInRange)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseUnsigned("0", 0, 10, v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUnsigned("24", 1, 24, v));
    EXPECT_EQ(v, 24u);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", 0, UINT64_MAX, v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseUnsigned, RejectsEverythingElse)
{
    std::uint64_t v = 7;
    for (const char *bad : {"", "abc", "-1", "+3", " 3", "3 ", "3x",
                            "0x10", "1e3", "99", "18446744073709551616"})
        EXPECT_FALSE(parseUnsigned(bad, 1, 24, v)) << "'" << bad << "'";
    EXPECT_FALSE(parseUnsigned("0", 1, 24, v));
    EXPECT_FALSE(parseUnsigned(nullptr, 0, 24, v));
    EXPECT_EQ(v, 7u); // untouched on failure
}

TEST(ParseDouble, AcceptsFiniteNumbersInRange)
{
    double v = 0.0;
    EXPECT_TRUE(parseDouble("0.25", 1e-6, 1.0, v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_TRUE(parseDouble("1e-3", 0.0, HUGE_VAL, v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    EXPECT_TRUE(parseDouble("-0.5", -HUGE_VAL, HUGE_VAL, v));
    EXPECT_DOUBLE_EQ(v, -0.5);
}

TEST(ParseDouble, RejectsEverythingElse)
{
    double v = 3.0;
    for (const char *bad : {"", "abc", " 1", "1 ", "0.5x", "nan", "inf",
                            "-inf", "-5", "2", "1e999"})
        EXPECT_FALSE(parseDouble(bad, 0.0, 1.0, v)) << "'" << bad << "'";
    EXPECT_FALSE(parseDouble("inf", 0.0, HUGE_VAL, v));
    EXPECT_EQ(v, 3.0);
}

TEST(CliArgs, NumericValuesFromBothSpellings)
{
    std::vector<std::string> words = {"tool", "--dpus", "64",
                                      "--rate=2.5"};
    std::vector<char *> argv;
    for (auto &w : words)
        argv.push_back(w.data());
    std::vector<std::string> errors;
    CliArgs args(static_cast<int>(argv.size()), argv.data(),
                 [&](const std::string &flag) { errors.push_back(flag); });
    ASSERT_TRUE(args.next());
    EXPECT_EQ(args.unsignedValue(1, 2048), 64u);
    ASSERT_TRUE(args.next());
    EXPECT_DOUBLE_EQ(args.doubleValue(0.0, HUGE_VAL), 2.5);
    EXPECT_FALSE(args.next());
    EXPECT_TRUE(errors.empty());
}

TEST(CliArgs, BadNumericValueIsAUsageError)
{
    std::vector<std::string> words = {"tool", "--tasklets", "99",
                                      "--rate=-5"};
    std::vector<char *> argv;
    for (auto &w : words)
        argv.push_back(w.data());
    std::vector<std::string> errors;
    CliArgs args(static_cast<int>(argv.size()), argv.data(),
                 [&](const std::string &flag) { errors.push_back(flag); });
    ASSERT_TRUE(args.next());
    EXPECT_EQ(args.unsignedValue(1, 24), 1u); // handler returned: lo
    ASSERT_TRUE(args.next());
    EXPECT_DOUBLE_EQ(args.doubleValue(0.0, HUGE_VAL), 0.0);
    EXPECT_EQ(errors, (std::vector<std::string>{"--tasklets", "--rate"}));
}
