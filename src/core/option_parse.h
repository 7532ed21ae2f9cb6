/**
 * @file
 * Command-line option parsing shared by the CLI and the bench harness:
 * strict numbers and the session flags.
 *
 * Command-line numbers used to go through strtoull/atoi, both of which
 * fail silently: "8x" parses as 8, "-1" wraps to a huge unsigned
 * value, and overflow saturates without a word.  A typo'd `--jobs`
 * or `--seed-salt` would then quietly run a different campaign than
 * the one asked for.  parseUnsigned() is built on std::from_chars and
 * rejects all of that explicitly, so every caller can exit 1 with a
 * message naming the defect instead of computing on garbage.
 *
 * The session flags (--instructions, --warmup, --jobs, --seed-salt,
 * --store, --metrics, --metrics-format) are the simulation window and
 * run plumbing that every `speclens` command and every bench binary
 * accepts.  parseSessionFlags() is their one parser and one usage
 * table; serviceConfig()/makeSession() turn them into the analysis
 * configuration, each caller supplying its own default window.
 */

#ifndef SPECLENS_CORE_OPTION_PARSE_H
#define SPECLENS_CORE_OPTION_PARSE_H

#include <charconv>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis_session.h"
#include "obs/export.h"

namespace speclens {
namespace core {

/** Outcome of one strict unsigned parse. */
enum class ParseStatus {
    Ok,       //!< Whole input consumed, value in range.
    Empty,    //!< Input was empty.
    Signed,   //!< Leading '+' or '-' (unsigned options take neither).
    BadDigit, //!< Input does not start with a decimal digit.
    Trailing, //!< Digits followed by junk ("8x", "10 ").
    Overflow, //!< Value exceeds uint64_t.
};

/**
 * Parse @p text as a strict base-10 unsigned integer into @p out.
 * The whole input must be digits: no sign, no whitespace, no suffix.
 * @p out is written only on Ok.
 */
inline ParseStatus
parseUnsigned(std::string_view text, std::uint64_t &out)
{
    if (text.empty())
        return ParseStatus::Empty;
    if (text.front() == '+' || text.front() == '-')
        return ParseStatus::Signed;

    std::uint64_t value = 0;
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value, 10);
    if (ec == std::errc::result_out_of_range)
        return ParseStatus::Overflow;
    if (ec != std::errc())
        return ParseStatus::BadDigit;
    if (ptr != text.data() + text.size())
        return ParseStatus::Trailing;
    out = value;
    return ParseStatus::Ok;
}

/** Human-readable description of a parse failure. */
inline std::string
parseStatusDetail(ParseStatus status)
{
    switch (status) {
      case ParseStatus::Ok: return "ok";
      case ParseStatus::Empty: return "empty value";
      case ParseStatus::Signed:
          return "sign not allowed (value must be a plain non-negative "
                 "integer)";
      case ParseStatus::BadDigit: return "not a decimal number";
      case ParseStatus::Trailing: return "trailing characters after number";
      case ParseStatus::Overflow: return "value out of range";
    }
    return "unknown";
}

/**
 * Strict non-negative integer value @p text of option or argument
 * @p what; exits 1 with a diagnostic naming the defect.
 */
std::uint64_t numericValue(const char *what, const char *text);

/**
 * Value of string flag @p flag: argv[i + 1], with @p i advanced past
 * it.  Exits 1 when the value is missing.
 */
const char *stringFlagValue(const char *flag, int argc, char **argv,
                            int &i);

/** numericValue() of stringFlagValue(). */
std::uint64_t numericFlagValue(const char *flag, int argc, char **argv,
                               int &i);

/** A simulation window: measured and warm-up instructions per pair. */
struct Window
{
    std::uint64_t instructions;
    std::uint64_t warmup;
};

/** The session flags as given on the command line. */
struct SessionFlags
{
    /** --instructions; unset means the caller's default window. */
    std::optional<std::uint64_t> instructions;

    /** --warmup; unset means the caller's default window. */
    std::optional<std::uint64_t> warmup;

    /** Simulation worker threads (0 = one per hardware thread). */
    std::size_t jobs = 0;

    /** Seed salt forwarded to the trace generators. */
    std::uint64_t seed_salt = 0;

    /** Artifact-store directory; empty = no persistence. */
    std::string store_dir;

    /** Metrics output file; empty = no metrics export. */
    std::string metrics_path;

    /** Metrics export format (--metrics-format prom|json). */
    obs::ExportFormat metrics_format = obs::ExportFormat::Prometheus;

    /** The window given, with @p defaults filling what was not. */
    Window window(Window defaults) const;
};

/**
 * Parse argv[first, argc).  Session flags go into the result; every
 * other argument goes to @p other, which takes it (advancing @p i past
 * any value it consumes) and returns true, or returns false to reject
 * it ("unknown option", exit 1).  A missing or malformed session-flag
 * value also exits 1.  Arms the --metrics export before returning.
 */
SessionFlags parseSessionFlags(int argc, char **argv, int first,
                               const std::function<bool(int &i)> &other);

/**
 * "HEAD [--instructions N] ... [--metrics-format prom|json]\n": the
 * session flags' synopsis after @p head, wrapped at 79 columns with
 * continuation lines indented by @p indent.
 */
std::string sessionUsage(const std::string &head, std::size_t indent);

/** One line per session flag describing it, then the @p defaults. */
std::string sessionFlagHelp(Window defaults);

/** The service configuration @p flags select over window @p defaults. */
ServiceConfig serviceConfig(const SessionFlags &flags, Window defaults);

/** A batch session over @p machines, configured by serviceConfig(). */
AnalysisSession makeSession(const SessionFlags &flags, Window defaults,
                            std::vector<uarch::MachineConfig> machines);

} // namespace core
} // namespace speclens

#endif // SPECLENS_CORE_OPTION_PARSE_H
