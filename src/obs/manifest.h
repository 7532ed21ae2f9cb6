/**
 * @file
 * Per-run manifest: a diffable JSON record of one campaign run.
 *
 * A campaign that leaves artifacts behind (the `--store` cache) should
 * also leave a record of the run that produced or replayed them.  The
 * manifest captures what made the run what it was — engine version and
 * configuration fingerprint — and what happened: store totals, the
 * rejected-entry breakdown (corrupt / stale-version /
 * fingerprint-mismatch / orphaned-temp) and a full metric snapshot.
 * Warm and cold runs over the same store are then diffable: identical
 * identity block, different hit/simulation totals.
 *
 * The schema (version 1):
 *
 *   {
 *     "manifest_version": 1,
 *     "engine_version": <u64>,
 *     "config_fingerprint": "<16-hex>",
 *     "run": { "<key>": "<string>", ... },
 *     "totals": { "<key>": <u64>, ... },
 *     "rejected": { "<class>": <u64>, ... },
 *     "metrics": { "counters": ..., "gauges": ..., "timings": ... }
 *   }
 *
 * The writer lives in obs so it stays dependency-free; the session
 * layer (core/analysis_session.cpp) fills the fields and writes the
 * file next to the store as kManifestFileName.
 */

#ifndef SPECLENS_OBS_MANIFEST_H
#define SPECLENS_OBS_MANIFEST_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace speclens {
namespace obs {

/** File name of the manifest within a store directory. */
constexpr const char *kManifestFileName = "run-manifest.json";

/** Everything one run manifest records. */
struct Manifest
{
    std::uint64_t manifest_version = 1;

    /** Simulation-engine version (core::kStoreEngineVersion). */
    std::uint64_t engine_version = 0;

    /** 16-hex fingerprint of the run configuration. */
    std::string config_fingerprint;

    /** Descriptive string fields (store directory, ...). */
    std::vector<std::pair<std::string, std::string>> run;

    /** Numeric totals (entries, hits, misses, saves, simulations). */
    std::vector<std::pair<std::string, std::uint64_t>> totals;

    /** Rejected-entry breakdown by defect class. */
    std::vector<std::pair<std::string, std::uint64_t>> rejected;

    /** Metric snapshot at the end of the run. */
    Snapshot metrics;
};

/** Render @p manifest as its canonical JSON document. */
std::string renderManifest(const Manifest &manifest);

/** Lower-case 16-digit hex: the shape of every SpecLens fingerprint. */
bool isHex16(const std::string &text);

/** @p value rendered as lower-case 16-digit hex (isHex16 accepts it). */
std::string hex16(std::uint64_t value);

/**
 * Schema-v1 defects of a parsed manifest, one message each; empty when
 * @p document is a valid version-1 manifest.  The one schema check
 * behind lint rule SL022 and `speclens campaign manifest`.
 */
std::vector<std::string> manifestSchemaErrors(const JsonValue &document);

/**
 * Render and write @p manifest to @p path.  Returns false on I/O
 * failure (reported to stderr; a manifest must never take a run
 * down).
 */
bool writeManifest(const std::string &path, const Manifest &manifest);

} // namespace obs
} // namespace speclens

#endif // SPECLENS_OBS_MANIFEST_H
