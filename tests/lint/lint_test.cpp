/**
 * @file
 * Diagnostics-engine tests: severity vocabulary, rule battery shape,
 * linter driver, report renderers and the clean-suite guarantee.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "lint/linter.h"
#include "lint/rules.h"
#include "obs/json.h"

namespace speclens {
namespace lint {
namespace {

TEST(Severity, NamesRoundTrip)
{
    for (Severity s :
         {Severity::Info, Severity::Warning, Severity::Error})
        EXPECT_EQ(severityFromName(severityName(s)), s);
    EXPECT_EQ(severityName(Severity::Error), "error");
    EXPECT_THROW(severityFromName("fatal"), std::invalid_argument);
}

TEST(Severity, OrderingSupportsFiltering)
{
    EXPECT_LT(Severity::Info, Severity::Warning);
    EXPECT_LT(Severity::Warning, Severity::Error);
}

TEST(Severity, CountSeverity)
{
    std::vector<Diagnostic> diagnostics{
        {"SL001", Severity::Error, "a", "m", ""},
        {"SL002", Severity::Warning, "b", "m", ""},
        {"SL003", Severity::Error, "c", "m", ""},
    };
    EXPECT_EQ(countSeverity(diagnostics, Severity::Error), 2u);
    EXPECT_EQ(countSeverity(diagnostics, Severity::Warning), 1u);
    EXPECT_EQ(countSeverity(diagnostics, Severity::Info), 0u);
}

TEST(RuleBattery, TwentySixRulesWithUniqueOrderedCodes)
{
    auto rules = defaultRules();
    ASSERT_EQ(rules.size(), 26u);
    std::set<std::string> codes;
    for (std::size_t i = 0; i < rules.size(); ++i) {
        const Rule &rule = *rules[i];
        EXPECT_TRUE(codes.insert(rule.code()).second)
            << "duplicate code " << rule.code();
        EXPECT_EQ(rule.code(),
                  "SL" + std::string(i + 1 < 10 ? "00" : "0") +
                      std::to_string(i + 1));
        EXPECT_FALSE(rule.name().empty());
        EXPECT_FALSE(rule.description().empty());
    }
}

TEST(RuleBattery, RuleByCode)
{
    EXPECT_EQ(ruleByCode("SL007")->name(), "cache-monotonic");
    EXPECT_THROW(ruleByCode("SL099"), std::invalid_argument);
}

TEST(ReportFormat, FromName)
{
    EXPECT_EQ(reportFormatFromName("text"), ReportFormat::Text);
    EXPECT_EQ(reportFormatFromName("json"), ReportFormat::Json);
    EXPECT_THROW(reportFormatFromName("xml"), std::invalid_argument);
}

TEST(LintReport, CountsAndCleanliness)
{
    LintReport report;
    EXPECT_TRUE(report.clean());
    report.diagnostics.push_back(
        {"SL001", Severity::Warning, "loc", "msg", ""});
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.warnings(), 1u);
    report.diagnostics.push_back(
        {"SL002", Severity::Error, "loc", "msg", ""});
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.errors(), 1u);
}

TEST(RenderText, ListsFindingsWithHints)
{
    LintReport report;
    report.rules_run = 2;
    report.diagnostics.push_back({"SL003", Severity::Error,
                                  "505.mcf_r/exec.base_cpi",
                                  "base CPI is -1", "make it positive"});
    std::string text = renderText(report);
    EXPECT_NE(text.find("SL003"), std::string::npos);
    EXPECT_NE(text.find("[error]"), std::string::npos);
    EXPECT_NE(text.find("505.mcf_r/exec.base_cpi"), std::string::npos);
    EXPECT_NE(text.find("hint: make it positive"), std::string::npos);
    EXPECT_NE(text.find("2 rules, 1 errors, 0 warnings"),
              std::string::npos);
}

TEST(RenderText, SeverityFilterHidesButStillCounts)
{
    LintReport report;
    report.rules_run = 1;
    report.diagnostics.push_back(
        {"SL015", Severity::Info, "cpu2017", "skipped", ""});
    report.diagnostics.push_back(
        {"SL001", Severity::Error, "x/mix.load", "bad", ""});
    std::string text = renderText(report, Severity::Error);
    EXPECT_EQ(text.find("skipped"), std::string::npos);
    EXPECT_NE(text.find("x/mix.load"), std::string::npos);
    EXPECT_NE(text.find("(1 below severity filter)"),
              std::string::npos);
}

TEST(RenderJson, EscapesAndStructuresFindings)
{
    LintReport report;
    report.rules_run = 15;
    report.diagnostics.push_back({"SL001", Severity::Error,
                                  "a\"b", "line1\nline2",
                                  "tab\there"});
    std::string json = renderJson(report);
    EXPECT_NE(json.find("\"rules_run\": 15"), std::string::npos);
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(json.find("a\\\"b"), std::string::npos);
    // No raw control characters may survive escaping...
    EXPECT_EQ(json.find("line1\nline2"), std::string::npos);
    // ...and every escaped field decodes back to its text.
    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(json, doc));
    ASSERT_EQ(doc["diagnostics"].items().size(), 1u);
    const obs::JsonValue &finding = doc["diagnostics"].items()[0];
    std::string location, message, fix_hint;
    EXPECT_TRUE(finding["location"].getString(location));
    EXPECT_TRUE(finding["message"].getString(message));
    EXPECT_TRUE(finding["fix_hint"].getString(fix_hint));
    EXPECT_EQ(location, "a\"b");
    EXPECT_EQ(message, "line1\nline2");
    EXPECT_EQ(fix_hint, "tab\there");
}

TEST(RenderJson, EmptyReportYieldsEmptyArray)
{
    LintReport report;
    report.rules_run = 15;
    std::string json = renderJson(report);
    EXPECT_NE(json.find("\"diagnostics\": []"), std::string::npos);
}

TEST(LintContext, AllBenchmarksSpansEveryDatabase)
{
    LintContext context = shippedContext();
    EXPECT_EQ(context.allBenchmarks().size(),
              context.cpu2017.size() + context.cpu2006.size() +
                  context.emerging.size());
    EXPECT_EQ(context.cpu2017.size(), 43u);
    EXPECT_EQ(context.machines.size(), 7u);
    EXPECT_FALSE(context.input_groups.empty());
}

/**
 * The acceptance guarantee of the whole subsystem: the shipped
 * calibration data is clean under the full battery.  Deep
 * (simulation-backed) checks are exercised separately in
 * rules_test.cpp with a small window.
 */
TEST(CleanSuite, ShippedDataHasZeroFindings)
{
    LintContext context = shippedContext();
    context.deep = false;
    LintReport report = Linter().run(context);
    ASSERT_EQ(report.rules_run, 26u);
    for (const Diagnostic &d : report.diagnostics)
        EXPECT_EQ(d.severity, Severity::Info)
            << d.code << " " << d.location << ": " << d.message;
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.warnings(), 0u);
}

} // namespace
} // namespace lint
} // namespace speclens
