/**
 * @file
 * Session-flag parser and usage table.
 */

#include "option_parse.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace speclens {
namespace core {

namespace {

/** One session flag: its name, value placeholder, help and setter. */
struct SessionFlagRow
{
    const char *name;
    const char *meta;
    const char *help;
    void (*apply)(SessionFlags &flags, const char *name, const char *value);
};

const SessionFlagRow kSessionFlags[] = {
    {"--instructions", "N", "measured instructions per pair",
     [](SessionFlags &f, const char *name, const char *value) {
         f.instructions = numericValue(name, value);
     }},
    {"--warmup", "N", "warm-up instructions",
     [](SessionFlags &f, const char *name, const char *value) {
         f.warmup = numericValue(name, value);
     }},
    {"--jobs", "N",
     "simulation worker threads (default: one per hardware thread)",
     [](SessionFlags &f, const char *name, const char *value) {
         f.jobs = static_cast<std::size_t>(numericValue(name, value));
     }},
    {"--seed-salt", "N",
     "extra seed entropy for independent re-runs (default 0)",
     [](SessionFlags &f, const char *name, const char *value) {
         f.seed_salt = numericValue(name, value);
     }},
    {"--store", "DIR",
     "persistent artifact store directory (reused results skip "
     "simulation)",
     [](SessionFlags &f, const char *, const char *value) {
         f.store_dir = value;
     }},
    {"--metrics", "FILE",
     "write a metrics snapshot to FILE at exit (stdout is never "
     "touched)",
     [](SessionFlags &f, const char *, const char *value) {
         f.metrics_path = value;
     }},
    {"--metrics-format", "prom|json", "prom (default) or json",
     [](SessionFlags &f, const char *, const char *value) {
         try {
             f.metrics_format = obs::exportFormatFromName(value);
         } catch (const std::invalid_argument &e) {
             std::fprintf(stderr, "error: %s (try --help)\n", e.what());
             std::exit(1);
         }
     }},
};

} // namespace

std::uint64_t
numericValue(const char *what, const char *text)
{
    std::uint64_t value = 0;
    ParseStatus status = parseUnsigned(text, value);
    if (status != ParseStatus::Ok) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got "
                     "'%s': %s\n",
                     what, text, parseStatusDetail(status).c_str());
        std::exit(1);
    }
    return value;
}

const char *
stringFlagValue(const char *flag, int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value (try --help)\n",
                     flag);
        std::exit(1);
    }
    return argv[++i];
}

std::uint64_t
numericFlagValue(const char *flag, int argc, char **argv, int &i)
{
    return numericValue(flag, stringFlagValue(flag, argc, argv, i));
}

Window
SessionFlags::window(Window defaults) const
{
    return {instructions.value_or(defaults.instructions),
            warmup.value_or(defaults.warmup)};
}

SessionFlags
parseSessionFlags(int argc, char **argv, int first,
                  const std::function<bool(int &i)> &other)
{
    SessionFlags flags;
    for (int i = first; i < argc; ++i) {
        const SessionFlagRow *row = nullptr;
        for (const SessionFlagRow &candidate : kSessionFlags)
            if (std::strcmp(argv[i], candidate.name) == 0)
                row = &candidate;
        if (row) {
            row->apply(flags, row->name,
                       stringFlagValue(row->name, argc, argv, i));
        } else if (!other(i)) {
            std::fprintf(stderr, "error: unknown option: %s (try --help)\n",
                         argv[i]);
            std::exit(1);
        }
    }
    if (!flags.metrics_path.empty())
        obs::exportAtExit(flags.metrics_path, flags.metrics_format);
    return flags;
}

std::string
sessionUsage(const std::string &head, std::size_t indent)
{
    constexpr std::size_t kWidth = 79;
    std::string out = head;
    std::size_t line_start = 0;
    for (const SessionFlagRow &row : kSessionFlags) {
        std::string item =
            std::string("[") + row.name + " " + row.meta + "]";
        if (out.size() - line_start + 1 + item.size() > kWidth) {
            out += '\n';
            line_start = out.size();
            out.append(indent, ' ');
        } else {
            out += ' ';
        }
        out += item;
    }
    return out + '\n';
}

std::string
sessionFlagHelp(Window defaults)
{
    std::string out;
    for (const SessionFlagRow &row : kSessionFlags) {
        std::string line = std::string("  ") + row.name;
        line.resize(std::max<std::size_t>(line.size() + 2, 18), ' ');
        out += line + row.help + '\n';
    }
    return out + "default window: " + std::to_string(defaults.instructions) +
           " measured + " + std::to_string(defaults.warmup) +
           " warm-up instructions\n";
}

ServiceConfig
serviceConfig(const SessionFlags &flags, Window defaults)
{
    Window window = flags.window(defaults);
    ServiceConfig config;
    config.characterization.instructions = window.instructions;
    config.characterization.warmup = window.warmup;
    config.characterization.seed_salt = flags.seed_salt;
    config.characterization.jobs = flags.jobs;
    config.store_dir = flags.store_dir;
    return config;
}

AnalysisSession
makeSession(const SessionFlags &flags, Window defaults,
            std::vector<uarch::MachineConfig> machines)
{
    ServiceConfig service = serviceConfig(flags, defaults);
    SessionConfig config;
    config.machines = std::move(machines);
    config.characterization = service.characterization;
    config.store_dir = service.store_dir;
    return AnalysisSession(std::move(config));
}

} // namespace core
} // namespace speclens
