/**
 * @file
 * Strict numeric option parsing tests.
 *
 * Every defect class that strtoull/atoi used to swallow silently must
 * come back as its own ParseStatus: "8x" is Trailing (not 8), "-1" is
 * Signed (not 18446744073709551615), 2^64 is Overflow (not saturated).
 * The session-flag parser that the CLI and every bench share exits 1
 * on a missing or malformed value and hands every other argument back
 * to its caller.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/option_parse.h"

namespace speclens {
namespace core {
namespace {

std::uint64_t
mustParse(const std::string &text)
{
    std::uint64_t out = 0;
    EXPECT_EQ(parseUnsigned(text, out), ParseStatus::Ok) << text;
    return out;
}

TEST(ParseUnsigned, AcceptsPlainDecimals)
{
    EXPECT_EQ(mustParse("0"), 0u);
    EXPECT_EQ(mustParse("8"), 8u);
    EXPECT_EQ(mustParse("007"), 7u);
    EXPECT_EQ(mustParse("30000"), 30'000u);
    EXPECT_EQ(mustParse("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseUnsigned, RejectsEmpty)
{
    std::uint64_t out = 99;
    EXPECT_EQ(parseUnsigned("", out), ParseStatus::Empty);
    EXPECT_EQ(out, 99u) << "out must be untouched on failure";
}

TEST(ParseUnsigned, RejectsSigns)
{
    std::uint64_t out = 0;
    EXPECT_EQ(parseUnsigned("-1", out), ParseStatus::Signed);
    EXPECT_EQ(parseUnsigned("+4", out), ParseStatus::Signed);
}

TEST(ParseUnsigned, RejectsNonDigitsAndTrailingJunk)
{
    std::uint64_t out = 0;
    EXPECT_EQ(parseUnsigned("abc", out), ParseStatus::BadDigit);
    EXPECT_EQ(parseUnsigned(" 8", out), ParseStatus::BadDigit);
    EXPECT_EQ(parseUnsigned("8x", out), ParseStatus::Trailing);
    EXPECT_EQ(parseUnsigned("8 ", out), ParseStatus::Trailing);
    EXPECT_EQ(parseUnsigned("1e3", out), ParseStatus::Trailing);
    EXPECT_EQ(parseUnsigned("0x10", out), ParseStatus::Trailing);
    EXPECT_EQ(parseUnsigned("3.5", out), ParseStatus::Trailing);
}

TEST(ParseUnsigned, RejectsOverflow)
{
    std::uint64_t out = 0;
    // One past uint64 max, and something absurdly long.
    EXPECT_EQ(parseUnsigned("18446744073709551616", out),
              ParseStatus::Overflow);
    EXPECT_EQ(parseUnsigned(std::string(40, '9'), out),
              ParseStatus::Overflow);
}

TEST(ParseStatusDetail, EveryStatusHasAMessage)
{
    for (ParseStatus status :
         {ParseStatus::Ok, ParseStatus::Empty, ParseStatus::Signed,
          ParseStatus::BadDigit, ParseStatus::Trailing,
          ParseStatus::Overflow})
        EXPECT_FALSE(parseStatusDetail(status).empty());
    EXPECT_EQ(parseStatusDetail(ParseStatus::Trailing),
              "trailing characters after number");
}

/** Mutable argv over @p args (argv[0] is "prog"). */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : args_(std::move(args))
    {
        args_.insert(args_.begin(), "prog");
        for (std::string &arg : args_)
            pointers_.push_back(arg.data());
    }

    int argc() const { return static_cast<int>(pointers_.size()); }
    char **argv() { return pointers_.data(); }

  private:
    std::vector<std::string> args_;
    std::vector<char *> pointers_;
};

SessionFlags
parseRejectingOthers(Argv &args)
{
    return parseSessionFlags(args.argc(), args.argv(), 1,
                             [](int &) { return false; });
}

TEST(SessionFlagsDeathTest, MissingValueExits)
{
    Argv args({"--instructions", "1000", "--jobs"});
    EXPECT_EXIT(parseRejectingOthers(args), testing::ExitedWithCode(1),
                "--jobs requires a value");
}

TEST(SessionFlagsDeathTest, BadMetricsFormatExits)
{
    Argv args({"--metrics-format", "xml"});
    EXPECT_EXIT(parseRejectingOthers(args), testing::ExitedWithCode(1),
                "xml");
}

TEST(SessionFlagsDeathTest, RejectedArgumentExits)
{
    Argv args({"--frobnicate"});
    EXPECT_EXIT(parseRejectingOthers(args), testing::ExitedWithCode(1),
                "unknown option: --frobnicate");
}

TEST(SessionFlags, NonSessionArgumentsGoToTheCaller)
{
    // micro_substrate hands everything it does not know to
    // google-benchmark, so the parser must return it in order.
    Argv args({"--benchmark_filter=Cache", "--jobs", "3", "pos",
               "--seed-salt", "7"});
    std::vector<std::string> others;
    SessionFlags flags =
        parseSessionFlags(args.argc(), args.argv(), 1, [&](int &i) {
            others.emplace_back(args.argv()[i]);
            return true;
        });
    EXPECT_EQ(others,
              (std::vector<std::string>{"--benchmark_filter=Cache", "pos"}));
    EXPECT_EQ(flags.jobs, 3u);
    EXPECT_EQ(flags.seed_salt, 7u);
    EXPECT_FALSE(flags.instructions.has_value());
}

TEST(SessionFlags, WindowDefaultsFillOnlyWhatWasNotGiven)
{
    Argv args({"--warmup", "500"});
    SessionFlags flags = parseRejectingOthers(args);
    Window window = flags.window({150'000, 40'000});
    EXPECT_EQ(window.instructions, 150'000u);
    EXPECT_EQ(window.warmup, 500u);

    ServiceConfig config = serviceConfig(flags, {120'000, 30'000});
    EXPECT_EQ(config.characterization.instructions, 120'000u);
    EXPECT_EQ(config.characterization.warmup, 500u);
}

} // namespace
} // namespace core
} // namespace speclens
