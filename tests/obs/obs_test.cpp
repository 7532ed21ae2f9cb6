/**
 * @file
 * Observability-layer tests (ctest label `obs`).
 *
 * Covers the metrics registry (instrument identity, snapshot ordering,
 * exact counts under concurrent mutation), the RAII timing span, both
 * exporters against golden renderings, the strict JSON reader and
 * quoter, and the run-manifest renderer, writer and schema check.
 *
 * Tests that assert recorded *values* skip themselves when the build
 * was configured with -DSPECLENS_METRICS=OFF (mutation hooks compile
 * to no-ops); structural tests run in both configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"

namespace speclens {
namespace obs {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            ("speclens_obs_test_" + name))
        .string();
}

// ====================================================================
// Registry + instruments
// ====================================================================

TEST(Registry, InstrumentsAreCreatedOnceAndStable)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Registry registry;
    Counter &a = registry.counter("x.events");
    Counter &b = registry.counter("x.events");
    EXPECT_EQ(&a, &b);
    Gauge &g1 = registry.gauge("x.ratio");
    Gauge &g2 = registry.gauge("x.ratio");
    EXPECT_EQ(&g1, &g2);
    Timing &t1 = registry.timing("x.time");
    Timing &t2 = registry.timing("x.time");
    EXPECT_EQ(&t1, &t2);

    // Same name, different kind: distinct instruments.
    Snapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counters.size(), 1u);
    EXPECT_EQ(snapshot.gauges.size(), 1u);
    EXPECT_EQ(snapshot.timings.size(), 1u);
}

TEST(Registry, SnapshotIsSortedByName)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Registry registry;
    registry.counter("zeta");
    registry.counter("alpha");
    registry.counter("mid.dle");
    Snapshot snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.counters.size(), 3u);
    EXPECT_EQ(snapshot.counters[0].first, "alpha");
    EXPECT_EQ(snapshot.counters[1].first, "mid.dle");
    EXPECT_EQ(snapshot.counters[2].first, "zeta");
}

TEST(Registry, GlobalIsASingleton)
{
    EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(Counter, CountsExactlyUnderConcurrency)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Registry registry;
    Counter &counter = registry.counter("concurrent.events");
    Timing &timing = registry.timing("concurrent.time");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 20'000;

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&counter, &timing] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                counter.add();
                timing.record(i % 97);
            }
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(counter.value(), kThreads * kPerThread);
    TimingStats stats = timing.stats();
    EXPECT_EQ(stats.count, kThreads * kPerThread);
    EXPECT_EQ(stats.min_ns, 0u);
    EXPECT_EQ(stats.max_ns, 96u);
}

TEST(Timing, TracksCountTotalMinMax)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Timing timing;
    TimingStats empty = timing.stats();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.min_ns, 0u); // Not UINT64_MAX before any record.
    EXPECT_EQ(empty.max_ns, 0u);

    timing.record(30);
    timing.record(10);
    timing.record(20);
    TimingStats stats = timing.stats();
    EXPECT_EQ(stats.count, 3u);
    EXPECT_EQ(stats.total_ns, 60u);
    EXPECT_EQ(stats.min_ns, 10u);
    EXPECT_EQ(stats.max_ns, 30u);

    timing.reset();
    EXPECT_EQ(timing.stats().count, 0u);
    EXPECT_EQ(timing.stats().min_ns, 0u);
}

TEST(Gauge, StoresLastWrittenDouble)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Gauge gauge;
    gauge.set(0.25);
    gauge.set(0.875);
    EXPECT_EQ(gauge.value(), 0.875);
}

TEST(Span, RecordsEnclosedScopeOnDestruction)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    Timing timing;
    {
        Span span(timing);
    }
    {
        Span span(timing);
    }
    EXPECT_EQ(timing.stats().count, 2u);
}

TEST(MetricsOff, MutationsAreNoOps)
{
    if (kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled in";
    Counter counter;
    counter.add(42);
    EXPECT_EQ(counter.value(), 0u);
    Timing timing;
    timing.record(99);
    EXPECT_EQ(timing.stats().count, 0u);
    Gauge gauge;
    gauge.set(1.0);
    EXPECT_EQ(gauge.value(), 0.0);
}

// ====================================================================
// Exporters (golden renderings)
// ====================================================================

/** A registry with one instrument of each kind, known values. */
Registry &
goldenRegistry()
{
    // Registry is not movable (it owns a mutex): populate in place.
    static Registry registry;
    static const bool populated = [] {
        registry.counter("core.test.events").add(3);
        registry.gauge("core.test.ratio").set(0.5);
        registry.timing("core.test.span").record(10);
        registry.timing("core.test.span").record(20);
        return true;
    }();
    (void)populated;
    return registry;
}

TEST(ExportPrometheus, GoldenRendering)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    const std::string expected =
        "# TYPE speclens_core_test_events_total counter\n"
        "speclens_core_test_events_total 3\n"
        "# TYPE speclens_core_test_ratio gauge\n"
        "speclens_core_test_ratio 0.5\n"
        "# TYPE speclens_core_test_span_count counter\n"
        "speclens_core_test_span_count 2\n"
        "# TYPE speclens_core_test_span_total_ns counter\n"
        "speclens_core_test_span_total_ns 30\n"
        "# TYPE speclens_core_test_span_min_ns gauge\n"
        "speclens_core_test_span_min_ns 10\n"
        "# TYPE speclens_core_test_span_max_ns gauge\n"
        "speclens_core_test_span_max_ns 20\n";
    EXPECT_EQ(renderPrometheus(goldenRegistry().snapshot()), expected);
}

TEST(ExportJson, GoldenRendering)
{
    if (!kMetricsEnabled)
        GTEST_SKIP() << "metrics compiled out";
    const std::string expected = "{\n"
                                 "  \"counters\": {\n"
                                 "    \"core.test.events\": 3\n"
                                 "  },\n"
                                 "  \"gauges\": {\n"
                                 "    \"core.test.ratio\": 0.5\n"
                                 "  },\n"
                                 "  \"timings\": {\n"
                                 "    \"core.test.span\": {\"count\": 2, "
                                 "\"total_ns\": 30, \"min_ns\": 10, "
                                 "\"max_ns\": 20}\n"
                                 "  }\n"
                                 "}\n";
    std::string json = renderJson(goldenRegistry().snapshot());
    EXPECT_EQ(json, expected);
    EXPECT_TRUE(validateJson(json));
}

TEST(ExportJson, EmptySnapshotIsValidJson)
{
    Snapshot empty;
    std::string json = renderJson(empty);
    EXPECT_TRUE(validateJson(json));
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"timings\""), std::string::npos);
}

TEST(ExportFormatName, RoundTripAndRejection)
{
    EXPECT_EQ(exportFormatFromName("prom"), ExportFormat::Prometheus);
    EXPECT_EQ(exportFormatFromName("prometheus"),
              ExportFormat::Prometheus);
    EXPECT_EQ(exportFormatFromName("json"), ExportFormat::Json);
    EXPECT_THROW(exportFormatFromName("xml"), std::invalid_argument);
    EXPECT_THROW(exportFormatFromName(""), std::invalid_argument);
}

TEST(WriteMetricsFile, WritesRenderedSnapshot)
{
    const std::string path = tempPath("metrics.prom");
    std::filesystem::remove(path);
    ASSERT_TRUE(
        writeMetricsFile(path, ExportFormat::Prometheus, goldenRegistry()));
    EXPECT_EQ(readFile(path),
              renderPrometheus(goldenRegistry().snapshot()));

    ASSERT_TRUE(
        writeMetricsFile(path, ExportFormat::Json, goldenRegistry()));
    EXPECT_TRUE(validateJson(readFile(path)));
    std::filesystem::remove(path);
}

TEST(WriteMetricsFile, UnwritablePathReportsFailureSoftly)
{
    EXPECT_FALSE(writeMetricsFile(
        "/proc/speclens_no_such_dir/metrics.json", ExportFormat::Json,
        goldenRegistry()));
}

// ====================================================================
// JSON well-formedness checker
// ====================================================================

TEST(ValidateJson, AcceptsWellFormedDocuments)
{
    EXPECT_TRUE(validateJson("{}"));
    EXPECT_TRUE(validateJson("[]"));
    EXPECT_TRUE(validateJson("  { \"a\": [1, 2.5, -3e2] }  "));
    EXPECT_TRUE(validateJson("{\"nested\": {\"b\": [true, false, null]}}"));
    EXPECT_TRUE(validateJson("\"esc \\\" \\\\ \\n \\u00e9\""));
    EXPECT_TRUE(validateJson("42"));
    std::string shallow(10, '[');
    shallow += std::string(10, ']');
    EXPECT_TRUE(validateJson(shallow));
}

TEST(ValidateJson, RejectsMalformedDocuments)
{
    EXPECT_FALSE(validateJson(""));
    EXPECT_FALSE(validateJson("{"));
    EXPECT_FALSE(validateJson("{\"a\":}"));
    EXPECT_FALSE(validateJson("[1,]"));
    EXPECT_FALSE(validateJson("{} trailing"));
    EXPECT_FALSE(validateJson("\"unterminated"));
    EXPECT_FALSE(validateJson("\"bad \\q escape\""));
    EXPECT_FALSE(validateJson("\"raw \n newline\""));
    EXPECT_FALSE(validateJson("{'single': 1}"));
    EXPECT_FALSE(validateJson("nul"));
    // A serve request whose benchmark name holds a raw newline.
    EXPECT_FALSE(validateJson(
        "{\"op\": \"characterize\", \"benchmarks\": [\"505.mcf\n_r\"]}"));
    // Duplicate keys, at any depth.
    EXPECT_FALSE(validateJson("{\"a\": 1, \"a\": 1}"));
    EXPECT_FALSE(validateJson("[{\"x\": {\"k\": 1, \"j\": 2, \"k\": 3}}]"));
    // Lone or mismatched surrogate halves, and bad hex.
    EXPECT_FALSE(validateJson("\"\\ud83d\""));
    EXPECT_FALSE(validateJson("\"\\ude00\""));
    EXPECT_FALSE(validateJson("\"\\ud83d\\u0041\""));
    EXPECT_FALSE(validateJson("\"\\u12g4\""));
    // Numbers outside the RFC 8259 grammar.
    for (const char *bad : {"01", "+1", ".5", "1.", "1e", "-", "0x10"})
        EXPECT_FALSE(validateJson(bad)) << bad;
}

TEST(ValidateJson, DepthLimitStopsPathologicalNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_FALSE(validateJson(deep));
    // The cap: 64 levels below the top-level value.
    auto nested = [](int n) {
        return std::string(n, '[') + std::string(n, ']');
    };
    EXPECT_TRUE(validateJson(nested(kJsonMaxDepth + 1)));
    EXPECT_FALSE(validateJson(nested(kJsonMaxDepth + 2)));
}

TEST(ValidateJson, ValueLimitStopsPathologicalWidth)
{
    // An array holding n zeros is n + 1 values.
    auto zeros = [](std::size_t n) {
        std::string doc = "[0";
        for (std::size_t i = 1; i < n; ++i)
            doc += ",0";
        return doc + "]";
    };
    EXPECT_TRUE(validateJson(zeros(kJsonMaxValues - 1)));
    EXPECT_FALSE(validateJson(zeros(kJsonMaxValues)));
}

TEST(JsonReader, KeepsMemberOrderAndFindsMembers)
{
    JsonValue doc;
    ASSERT_TRUE(parseJson("{\"b\": 1, \"a\": [true, null], \"c\": {}}", doc));
    ASSERT_EQ(doc.members().size(), 3u);
    EXPECT_EQ(doc.members()[0].key, "b");
    EXPECT_EQ(doc.members()[1].key, "a");
    EXPECT_EQ(doc["a"].items().size(), 2u);
    EXPECT_TRUE(doc["c"].isObject());
    EXPECT_EQ(doc.find("missing"), nullptr);
    // A missing member reads as null all the way down.
    std::string text;
    EXPECT_FALSE(doc["missing"]["deeper"].getString(text));
    EXPECT_FALSE(doc["missing"].isObject());
}

TEST(JsonReader, DecodesEscapesToUtf8)
{
    JsonValue doc;
    std::string text;
    ASSERT_TRUE(parseJson(
        "\"\\u0041\\u00e9\\u20ac\\ud83d\\ude00\\u0000\\/\\b\\f\\n\\r\\t\"",
        doc));
    ASSERT_TRUE(doc.getString(text));
    EXPECT_EQ(text, std::string("A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80") +
                        std::string(1, '\0') + "/\b\f\n\r\t");
}

TEST(JsonReader, NumbersReadExactly)
{
    JsonValue doc;
    std::uint64_t u = 0;
    double d = 0.0;
    ASSERT_TRUE(parseJson("18446744073709551615", doc));
    EXPECT_TRUE(doc.getU64(u));
    EXPECT_EQ(u, 18446744073709551615ull);
    ASSERT_TRUE(parseJson("18446744073709551616", doc));
    EXPECT_FALSE(doc.getU64(u)); // overflow refused
    EXPECT_TRUE(doc.getDouble(d));
    for (const char *not_unsigned : {"-1", "1.0", "1e3", "-0"}) {
        ASSERT_TRUE(parseJson(not_unsigned, doc)) << not_unsigned;
        EXPECT_FALSE(doc.getU64(u)) << not_unsigned;
        EXPECT_TRUE(doc.getDouble(d)) << not_unsigned;
    }
    ASSERT_TRUE(parseJson("-2.5e-3", doc));
    EXPECT_TRUE(doc.getDouble(d));
    EXPECT_DOUBLE_EQ(d, -2.5e-3);
    ASSERT_TRUE(parseJson("1e999", doc));
    EXPECT_FALSE(doc.getDouble(d)); // outside double range
    ASSERT_TRUE(parseJson("\"7\"", doc));
    EXPECT_FALSE(doc.getU64(u)); // a string is not a number
}

TEST(JsonQuote, RoundTripsEveryByte)
{
    std::string all;
    for (int c = 0; c < 256; ++c)
        all.push_back(static_cast<char>(c));
    std::string quoted = jsonQuote(all);
    EXPECT_NE(quoted.find("\\u001f"), std::string::npos);
    EXPECT_NE(quoted.find("\\\""), std::string::npos);
    JsonValue doc;
    std::string decoded;
    ASSERT_TRUE(parseJson(quoted, doc));
    ASSERT_TRUE(doc.getString(decoded));
    EXPECT_EQ(decoded, all);
}

// ====================================================================
// Run manifest
// ====================================================================

Manifest
sampleManifest()
{
    Manifest manifest;
    manifest.engine_version = 7;
    manifest.config_fingerprint = "00ff00ff00ff00ff";
    manifest.run = {{"store_dir", "/tmp/store"}, {"metrics", "on"}};
    manifest.totals = {{"entries", 301}, {"hits", 301}};
    manifest.rejected = {{"corrupt", 0}, {"orphaned_temp", 2}};
    manifest.metrics.counters.emplace_back("core.store.hits", 301);
    return manifest;
}

TEST(ManifestRender, SchemaV1KeysAndValidJson)
{
    std::string json = renderManifest(sampleManifest());
    EXPECT_TRUE(validateJson(json));
    for (const char *key :
         {"\"manifest_version\"", "\"engine_version\"",
          "\"config_fingerprint\"", "\"run\"", "\"totals\"",
          "\"rejected\"", "\"metrics\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_NE(json.find("\"manifest_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"engine_version\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"00ff00ff00ff00ff\""), std::string::npos);
    EXPECT_NE(json.find("\"orphaned_temp\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"core.store.hits\": 301"), std::string::npos);
}

TEST(ManifestRender, EscapesStringFields)
{
    Manifest manifest = sampleManifest();
    manifest.run = {{"store_dir", "dir with \"quote\"\nnewline"}};
    std::string json = renderManifest(manifest);
    EXPECT_TRUE(validateJson(json));
    EXPECT_NE(json.find("\\\"quote\\\""), std::string::npos);
    EXPECT_EQ(json.find("\nnewline"), std::string::npos);
}

TEST(ManifestSchema, NamesEveryDefect)
{
    Manifest manifest = sampleManifest();
    JsonValue doc;
    ASSERT_TRUE(parseJson(renderManifest(manifest), doc));
    std::vector<std::string> defects = manifestSchemaErrors(doc);
    // sampleManifest() records only part of the totals and rejected
    // breakdown.
    EXPECT_EQ(defects.size(), 5u);
    EXPECT_NE(std::find(defects.begin(), defects.end(),
                        "totals block lacks 'misses'"),
              defects.end());

    manifest.totals = {{"entries", 1}, {"hits", 0}, {"misses", 1},
                       {"simulations", 1}, {"saves", 1}};
    manifest.rejected = {{"corrupt", 0}, {"stale_version", 0},
                         {"fingerprint_mismatch", 0},
                         {"orphaned_temp", 0}};
    ASSERT_TRUE(parseJson(renderManifest(manifest), doc));
    EXPECT_TRUE(manifestSchemaErrors(doc).empty());

    manifest.config_fingerprint = "00FF00FF00FF00FF";
    ASSERT_TRUE(parseJson(renderManifest(manifest), doc));
    EXPECT_EQ(manifestSchemaErrors(doc),
              std::vector<std::string>{
                  "config_fingerprint is not a 16-hex digest"});
    ASSERT_TRUE(parseJson("[]", doc));
    EXPECT_FALSE(manifestSchemaErrors(doc).empty());
}

TEST(ManifestWrite, RoundTripsThroughDisk)
{
    const std::string path = tempPath(kManifestFileName);
    std::filesystem::remove(path);
    ASSERT_TRUE(writeManifest(path, sampleManifest()));
    std::string body = readFile(path);
    EXPECT_EQ(body, renderManifest(sampleManifest()));
    EXPECT_TRUE(validateJson(body));
    std::filesystem::remove(path);
}

TEST(ManifestWrite, UnwritablePathReportsFailureSoftly)
{
    EXPECT_FALSE(writeManifest(
        "/proc/speclens_no_such_dir/run-manifest.json",
        sampleManifest()));
}

} // namespace
} // namespace obs
} // namespace speclens
