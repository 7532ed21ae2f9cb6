/**
 * @file
 * Run-manifest renderer, writer and schema check.
 */

#include "manifest.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <system_error>
#include <thread>

#include "export.h"
#include "json.h"

namespace speclens {
namespace obs {

namespace {

void
appendObject(
    std::string &out, const char *key,
    const std::vector<std::pair<std::string, std::string>> &fields)
{
    out += "  \"";
    out += key;
    out += "\": {";
    const char *sep = "";
    for (const auto &[name, value] : fields) {
        out += sep;
        out += "\n    " + jsonQuote(name) + ": " + jsonQuote(value);
        sep = ",";
    }
    out += fields.empty() ? "},\n" : "\n  },\n";
}

void
appendObject(
    std::string &out, const char *key,
    const std::vector<std::pair<std::string, std::uint64_t>> &fields)
{
    out += "  \"";
    out += key;
    out += "\": {";
    const char *sep = "";
    for (const auto &[name, value] : fields) {
        out += sep;
        out += "\n    " + jsonQuote(name) + ": " + std::to_string(value);
        sep = ",";
    }
    out += fields.empty() ? "},\n" : "\n  },\n";
}

/** The metrics snapshot JSON, indented one level into the manifest. */
std::string
indentedMetrics(const Snapshot &snapshot)
{
    std::string flat = renderJson(snapshot);
    std::string out;
    out.reserve(flat.size() + 64);
    for (std::size_t i = 0; i < flat.size(); ++i) {
        out.push_back(flat[i]);
        if (flat[i] == '\n' && i + 1 < flat.size())
            out += "  ";
    }
    // renderJson ends with "}\n"; drop the trailing newline so the
    // caller controls what follows.
    while (!out.empty() && out.back() == '\n')
        out.pop_back();
    return out;
}

} // namespace

std::string
renderManifest(const Manifest &manifest)
{
    std::string out = "{\n";
    out += "  \"manifest_version\": " +
           std::to_string(manifest.manifest_version) + ",\n";
    out += "  \"engine_version\": " +
           std::to_string(manifest.engine_version) + ",\n";
    out += "  \"config_fingerprint\": " +
           jsonQuote(manifest.config_fingerprint) + ",\n";
    appendObject(out, "run", manifest.run);
    appendObject(out, "totals", manifest.totals);
    appendObject(out, "rejected", manifest.rejected);
    out += "  \"metrics\": " + indentedMetrics(manifest.metrics) + "\n";
    out += "}\n";
    return out;
}

bool
isHex16(const std::string &text)
{
    return text.size() == 16 &&
           text.find_first_not_of("0123456789abcdef") ==
               std::string::npos;
}

std::string
hex16(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

std::vector<std::string>
manifestSchemaErrors(const JsonValue &document)
{
    std::vector<std::string> errors;
    if (!document.isObject()) {
        errors.push_back("manifest is not a JSON object");
        return errors;
    }
    std::uint64_t value = 0;
    if (!document["manifest_version"].getU64(value) || value != 1)
        errors.push_back("manifest_version is not 1");
    if (!document["engine_version"].getU64(value))
        errors.push_back("engine_version is not an unsigned integer");
    std::string fingerprint;
    if (!document["config_fingerprint"].getString(fingerprint) ||
        !isHex16(fingerprint))
        errors.push_back("config_fingerprint is not a 16-hex digest");
    for (const char *block : {"run", "totals", "rejected", "metrics"})
        if (!document[block].isObject())
            errors.push_back(std::string("missing manifest block \"") +
                             block + "\"");
    const JsonValue &totals = document["totals"];
    if (totals.isObject())
        for (const char *key :
             {"entries", "hits", "misses", "simulations", "saves"})
            if (!totals[key].getU64(value))
                errors.push_back(std::string("totals block lacks '") +
                                 key + "'");
    const JsonValue &rejected = document["rejected"];
    if (rejected.isObject())
        for (const char *key : {"corrupt", "stale_version",
                                "fingerprint_mismatch", "orphaned_temp"})
            if (!rejected[key].getU64(value))
                errors.push_back(std::string("rejected block lacks '") +
                                 key + "'");
    return errors;
}

bool
writeManifest(const std::string &path, const Manifest &manifest)
{
    // Temp file + atomic rename, the artifact store's idiom: a reader
    // (or a SIGINT arriving mid-write) never observes a half-written
    // manifest — either the previous one survives or the new one is
    // complete.  Orphaned `run-manifest.json.tmp*` files a killed
    // process leaves behind are swept when the store is next opened.
    std::string rendered = renderManifest(manifest);
    std::string temp =
        path + ".tmp" +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    {
        std::ofstream file(temp, std::ios::binary | std::ios::trunc);
        if (file)
            file.write(rendered.data(),
                       static_cast<std::streamsize>(rendered.size()));
        if (!file) {
            std::fprintf(
                stderr,
                "[speclens-obs] warning: cannot write manifest to "
                "%s\n",
                path.c_str());
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(temp, path, ec);
    if (ec) {
        std::filesystem::remove(temp, ec);
        std::fprintf(stderr,
                     "[speclens-obs] warning: cannot write manifest to "
                     "%s\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace obs
} // namespace speclens
