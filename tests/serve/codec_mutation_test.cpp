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
 *
 * Framing gets the same treatment: byte streams with false length
 * prefixes, truncated headers and payloads, zero-length frames and
 * prefixes either side of the cap go through serve::readFrame over an
 * AF_UNIX socketpair, and each status is checked against a reference
 * parser of the same bytes.  A 1 MiB frame written into a small send
 * buffer while signals interrupt the writer checks that writeFrame
 * resumes partial writes.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
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

/** Big-endian 4-byte frame header declaring @p length. */
std::string
header(std::uint32_t length)
{
    return {static_cast<char>(length >> 24),
            static_cast<char>(length >> 16),
            static_cast<char>(length >> 8), static_cast<char>(length)};
}

/** One frame status, with the payload when it is Ok. */
struct Frame
{
    serve::FrameStatus status = serve::FrameStatus::Ok;
    std::string payload;

    bool operator==(const Frame &) const = default;
};

/**
 * The frames readFrame must report for @p wire followed by EOF, up to
 * and including the first status other than Ok.
 */
std::vector<Frame>
referenceFrames(const std::string &wire, std::size_t max_bytes)
{
    std::vector<Frame> frames;
    auto last = [&frames](serve::FrameStatus status) {
        frames.push_back({status, ""});
        return frames;
    };
    for (std::size_t at = 0;;) {
        const std::size_t left = wire.size() - at;
        if (left == 0)
            return last(serve::FrameStatus::Eof);
        if (left < 4)
            return last(serve::FrameStatus::Error);
        std::uint32_t length = 0;
        for (int i = 0; i < 4; ++i)
            length = length << 8 |
                     static_cast<unsigned char>(wire[at + i]);
        if (length > max_bytes)
            return last(serve::FrameStatus::TooLarge);
        if (left - 4 < length)
            return last(serve::FrameStatus::Error);
        frames.push_back(
            {serve::FrameStatus::Ok, wire.substr(at + 4, length)});
        at += 4 + length;
    }
}

/**
 * Write @p wire into one end of a socketpair and close it, while
 * readFrame reads the other end until a status other than Ok.
 */
std::vector<Frame>
readFrames(const std::string &wire, std::size_t max_bytes)
{
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread writer([&]() {
        std::size_t done = 0;
        while (done < wire.size()) {
            ssize_t n =
                ::write(fds[1], wire.data() + done, wire.size() - done);
            if (n <= 0)
                break;
            done += static_cast<std::size_t>(n);
        }
        ::close(fds[1]);
    });
    std::vector<Frame> frames;
    do {
        Frame &frame = frames.emplace_back();
        frame.status = serve::readFrame(fds[0], frame.payload, max_bytes);
        if (frame.status != serve::FrameStatus::Ok)
            frame.payload.clear();
    } while (frames.back().status == serve::FrameStatus::Ok);
    writer.join();
    ::close(fds[0]);
    return frames;
}

std::string
describe(const std::vector<Frame> &frames)
{
    std::string text;
    for (const Frame &frame : frames)
        text += "status " +
                std::to_string(static_cast<int>(frame.status)) + " (" +
                std::to_string(frame.payload.size()) + " bytes) ";
    return text;
}

} // namespace

TEST(FrameFuzz, HandPickedStreamsGetTheRightStatus)
{
    using serve::FrameStatus;
    constexpr std::size_t kCap = 1024;
    const std::string body(kCap + 1, 'x');
    struct Case
    {
        const char *what;
        std::string wire;
        std::vector<FrameStatus> statuses;
    };
    const std::vector<Case> cases = {
        {"empty stream", "", {FrameStatus::Eof}},
        {"zero-length frame", header(0),
         {FrameStatus::Ok, FrameStatus::Eof}},
        {"two zero-length frames", header(0) + header(0),
         {FrameStatus::Ok, FrameStatus::Ok, FrameStatus::Eof}},
        {"1-byte header", header(7).substr(0, 1), {FrameStatus::Error}},
        {"3-byte header", header(7).substr(0, 3), {FrameStatus::Error}},
        {"truncated payload", header(10) + "12345", {FrameStatus::Error}},
        {"prefix shorter than the payload", header(3) + "abcdef",
         {FrameStatus::Ok, FrameStatus::Error}},
        {"prefix at the cap", header(kCap) + body.substr(0, kCap),
         {FrameStatus::Ok, FrameStatus::Eof}},
        {"prefix below the cap",
         header(kCap - 1) + body.substr(0, kCap - 1),
         {FrameStatus::Ok, FrameStatus::Eof}},
        {"prefix above the cap", header(kCap + 1) + body,
         {FrameStatus::TooLarge}},
        {"largest prefix", header(0xffffffffu), {FrameStatus::TooLarge}},
    };
    for (const Case &c : cases) {
        std::vector<Frame> frames = readFrames(c.wire, kCap);
        std::vector<FrameStatus> statuses;
        for (const Frame &frame : frames)
            statuses.push_back(frame.status);
        EXPECT_EQ(statuses, c.statuses)
            << c.what << ": " << describe(frames);
        EXPECT_EQ(frames, referenceFrames(c.wire, kCap)) << c.what;
    }
    std::vector<Frame> frames = readFrames(header(3) + "abcdef", kCap);
    EXPECT_EQ(frames.front().payload, "abc");

    // The daemon's own request cap, either side.
    const std::string request(serve::kMaxRequestBytes, 'r');
    EXPECT_EQ(readFrames(header(serve::kMaxRequestBytes) + request,
                         serve::kMaxRequestBytes)
                  .front()
                  .payload,
              request);
    EXPECT_EQ(
        readFrames(header(serve::kMaxRequestBytes + 1) + request + "r",
                   serve::kMaxRequestBytes)
            .front()
            .status,
        FrameStatus::TooLarge);
}

// Seeded streams of frames with lying prefixes, cut at random points,
// must read exactly as the reference parser reads the same bytes.
TEST(FrameFuzz, RandomStreamsMatchTheReferenceParser)
{
    constexpr std::size_t kCap = 512;
    constexpr int kStreams = 1500;
    stats::Rng rng(20180224);
    std::size_t by_status[5] = {};
    for (int i = 0; i < kStreams; ++i) {
        std::string wire;
        for (std::uint64_t f = rng.below(4); f > 0; --f) {
            std::uint32_t length = static_cast<std::uint32_t>(
                rng.below(4) == 0 ? rng.below(kCap + 64) : rng.below(40));
            std::uint32_t declared = length;
            switch (rng.below(6)) {
              case 0: declared = length + 1 + rng.below(16); break;
              case 1: declared = length - std::min<std::uint32_t>(
                                              length, 1 + rng.below(16));
                      break;
              case 2:
                declared = static_cast<std::uint32_t>(rng.next());
                break;
              default: break;
            }
            wire += header(declared);
            for (std::uint32_t b = 0; b < length; ++b)
                wire += static_cast<char>(rng.below(256));
        }
        if (rng.below(3) == 0)
            wire.resize(rng.below(wire.size() + 1));
        const std::vector<Frame> expected = referenceFrames(wire, kCap);
        const std::vector<Frame> frames = readFrames(wire, kCap);
        ASSERT_EQ(frames, expected)
            << "stream " << i << ": got " << describe(frames)
            << "expected " << describe(expected);
        for (const Frame &frame : frames)
            ++by_status[static_cast<int>(frame.status)];
    }
    // Every status but Timeout (no timeout is set) must be reached.
    using serve::FrameStatus;
    EXPECT_GT(by_status[static_cast<int>(FrameStatus::Ok)], 0u);
    EXPECT_GT(by_status[static_cast<int>(FrameStatus::Eof)], 0u);
    EXPECT_GT(by_status[static_cast<int>(FrameStatus::Error)], 0u);
    EXPECT_GT(by_status[static_cast<int>(FrameStatus::TooLarge)], 0u);
}

// A 1 MiB frame through a small send buffer, with signals interrupting
// the writer so sendmsg() returns short counts, arrives intact.
TEST(FrameFuzz, PartialWritesDeliverTheWholeFrame)
{
    struct sigaction quiet{}, previous{};
    quiet.sa_handler = [](int) {};
    sigemptyset(&quiet.sa_mask);
    quiet.sa_flags = 0; // no SA_RESTART: interrupted calls return early
    ASSERT_EQ(::sigaction(SIGUSR1, &quiet, &previous), 0);

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    int small = 4096;
    ::setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

    std::string sent(1u << 20, '\0');
    stats::Rng rng(1);
    for (char &c : sent)
        c = static_cast<char>(rng.below(256));

    std::atomic<bool> written{false};
    bool ok = false;
    std::thread writer([&]() {
        ok = serve::writeFrame(fds[1], sent);
        written.store(true);
    });
    std::string received;
    std::thread reader([&]() {
        EXPECT_EQ(
            serve::readFrame(fds[0], received, serve::kMaxFrameBytes),
            serve::FrameStatus::Ok);
    });
    while (!written.load()) {
        ::pthread_kill(writer.native_handle(), SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    writer.join();
    reader.join();
    ::close(fds[0]);
    ::close(fds[1]);
    ::sigaction(SIGUSR1, &previous, nullptr);

    EXPECT_TRUE(ok);
    EXPECT_TRUE(received == sent) << "received " << received.size()
                                  << " bytes of " << sent.size();
}
