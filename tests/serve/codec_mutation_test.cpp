/**
 * @file
 * Seeded mutation test of the JSON reader and both serve decoders
 * (ctest labels `obs` and `serve`).
 *
 * A corpus of documents rendered in-process — one request per op, a
 * response with hostile output, a metrics export, a run manifest and
 * a v2 BENCH trajectory — is mutated with byte flips, truncations,
 * splices and duplicated spans drawn from a fixed-seed stats::Rng, for
 * a fixed number of mutants per document.  Every mutant goes through
 * obs::parseJson, serve::decodeRequest and serve::decodeResponse.
 * The checks: nothing crashes (the sanitizer builds run this too),
 * the unmutated corpus parses, the decoders accept only what the
 * reader accepts, and every decoded request or response re-encodes
 * to an equal one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/perf_trajectory.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "serve/protocol.h"
#include "stats/rng.h"

using namespace speclens;

namespace {

/** Mutants drawn per corpus document. */
constexpr int kMutantsPerDocument = 3000;

serve::Request
request(serve::Op op)
{
    serve::Request r;
    r.op = op;
    return r;
}

std::vector<std::string>
corpus()
{
    std::vector<std::string> docs;

    serve::Request characterize = request(serve::Op::Characterize);
    characterize.benchmarks = {"505.mcf_r", "557.xz_r"};
    serve::Request memory = request(serve::Op::Memory);
    memory.benchmarks = {"519.lbm_r"};
    serve::Request subset = request(serve::Op::Subset);
    subset.category = "rate-int";
    subset.k = 5;
    serve::Request sensitivity = request(serve::Op::Sensitivity);
    sensitivity.metric = "branch";
    for (const serve::Request &r :
         {characterize, memory, subset, sensitivity,
          request(serve::Op::Stats), request(serve::Op::Shutdown)})
        docs.push_back(serve::encodeRequest(r));

    serve::Response response;
    response.ok = true;
    response.output = std::string("table \"one\"\n\t\\u0041 \\ end\r\n") +
                      std::string(1, '\0') + "\x01\x1f\x7f\xc3\xa9\xff";
    response.error = "none";
    docs.push_back(serve::encodeResponse(response));

    obs::Snapshot snapshot;
    snapshot.counters = {{"core.store.hits", 301}, {"serve.requests", 7}};
    snapshot.gauges = {{"stats.pca_retained", 9.0}};
    snapshot.timings.emplace_back("serve.codec", obs::TimingStats{});
    docs.push_back(obs::renderJson(snapshot));

    obs::Manifest manifest;
    manifest.engine_version = 7;
    manifest.config_fingerprint = "00ff00ff00ff00ff";
    manifest.run = {{"store_dir", "/tmp/store \"quoted\""}};
    manifest.totals = {{"entries", 301}, {"hits", 0}, {"misses", 301},
                       {"simulations", 301}, {"saves", 301}};
    manifest.rejected = {{"corrupt", 0}, {"stale_version", 0},
                         {"fingerprint_mismatch", 0},
                         {"orphaned_temp", 0}};
    manifest.metrics = snapshot;
    docs.push_back(obs::renderManifest(manifest));

    core::TrajectoryResult trajectory;
    trajectory.config.pr = 10;
    trajectory.simulations = 301;
    trajectory.records_per_simulation = 190'000;
    trajectory.records_total = 57'190'000;
    trajectory.campaign_fingerprint = 0xd847d360243018d8ull;
    trajectory.fused_seconds = 3.4;
    docs.push_back(core::renderTrajectoryJson(trajectory));
    return docs;
}

/** A random span [begin, end) of @p text (empty when text is). */
std::pair<std::size_t, std::size_t>
span(stats::Rng &rng, const std::string &text)
{
    std::size_t begin = rng.below(text.size() + 1);
    std::size_t end = begin + rng.below(text.size() - begin + 1);
    return {begin, end};
}

/** One to three byte flips, truncations, splices or duplicated spans. */
std::string
mutate(stats::Rng &rng, std::string text,
       const std::vector<std::string> &docs)
{
    for (std::uint64_t round = 1 + rng.below(3); round > 0; --round) {
        switch (rng.below(4)) {
          case 0: // byte flip
            if (!text.empty())
                text[rng.below(text.size())] ^=
                    static_cast<char>(1 + rng.below(255));
            break;
          case 1: // truncation
            text.resize(rng.below(text.size() + 1));
            break;
          case 2: { // splice a span of another corpus document
            const std::string &donor = docs[rng.below(docs.size())];
            auto [from, to] = span(rng, donor);
            auto [begin, end] = span(rng, text);
            text.replace(begin, end - begin, donor, from, to - from);
            break;
          }
          default: { // duplicated span
            auto [begin, end] = span(rng, text);
            text.insert(end, text.substr(begin, end - begin));
            break;
          }
        }
    }
    return text;
}

bool
sameRequest(const serve::Request &a, const serve::Request &b)
{
    return a.op == b.op && a.benchmarks == b.benchmarks &&
           a.category == b.category && a.k == b.k && a.metric == b.metric;
}

TEST(JsonMutation, CorpusDocumentsParse)
{
    std::vector<std::string> docs = corpus();
    ASSERT_EQ(docs.size(), 10u);
    for (const std::string &doc : docs) {
        obs::JsonValue value;
        EXPECT_TRUE(obs::parseJson(doc, value)) << doc;
    }
    std::string error;
    for (std::size_t i = 0; i < 6; ++i) {
        serve::Request decoded;
        EXPECT_TRUE(serve::decodeRequest(docs[i], decoded, error)) << error;
    }
    serve::Response decoded;
    EXPECT_TRUE(serve::decodeResponse(docs[6], decoded, error)) << error;
}

TEST(JsonMutation, MutantsNeverCrashAndDecodesRoundTrip)
{
    const std::vector<std::string> docs = corpus();
    stats::Rng rng(20180224);
    std::size_t parsed = 0, requests = 0, responses = 0;
    for (const std::string &doc : docs) {
        for (int i = 0; i < kMutantsPerDocument; ++i) {
            const std::string mutant = mutate(rng, doc, docs);
            obs::JsonValue value;
            const bool well_formed = obs::parseJson(mutant, value);
            parsed += well_formed;

            std::string error;
            serve::Request r;
            if (serve::decodeRequest(mutant, r, error)) {
                ++requests;
                ASSERT_TRUE(well_formed) << mutant;
                serve::Request again;
                ASSERT_TRUE(serve::decodeRequest(serve::encodeRequest(r),
                                                 again, error))
                    << mutant;
                ASSERT_TRUE(sameRequest(r, again)) << mutant;
            }
            serve::Response response;
            if (serve::decodeResponse(mutant, response, error)) {
                ++responses;
                ASSERT_TRUE(well_formed) << mutant;
                serve::Response again;
                ASSERT_TRUE(serve::decodeResponse(
                    serve::encodeResponse(response), again, error))
                    << mutant;
                ASSERT_EQ(again.ok, response.ok) << mutant;
                ASSERT_EQ(again.output, response.output) << mutant;
                ASSERT_EQ(again.error, response.error) << mutant;
            }
        }
    }
    // The mutants must reach the accept paths, not only the rejects.
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(requests, 0u);
    EXPECT_GT(responses, 0u);
}

} // namespace
