/**
 * @file
 * Metric snapshot exporters: Prometheus text format and JSON.
 *
 * Both renderers are pure functions of a Snapshot, so their output is
 * deterministic for a deterministic registry state — the golden-file
 * tests compare exact bytes.  writeMetricsFile()/exportAtExit() wire
 * them to the `--metrics FILE` option of the CLI and every bench
 * binary; all output goes to the named file (never stdout), so the
 * byte-identical-stdout contracts hold with metrics enabled.
 */

#ifndef SPECLENS_OBS_EXPORT_H
#define SPECLENS_OBS_EXPORT_H

#include <string>

#include "obs/metrics.h"

namespace speclens {
namespace obs {

/** Metric export format. */
enum class ExportFormat {
    Prometheus, //!< Prometheus text exposition format.
    Json,       //!< Single JSON document.
};

/**
 * Format from its CLI name ("prom" | "prometheus" | "json").
 * @throws std::invalid_argument on anything else.
 */
ExportFormat exportFormatFromName(const std::string &name);

/**
 * Render @p snapshot in the Prometheus text exposition format.
 * Dotted instrument names become `speclens_`-prefixed underscore
 * names; each Timing exports `_count`, `_total_ns`, `_min_ns` and
 * `_max_ns` series.
 */
std::string renderPrometheus(const Snapshot &snapshot);

/**
 * Render @p snapshot as one JSON object with "counters", "gauges" and
 * "timings" members keyed by the original dotted names.
 */
std::string renderJson(const Snapshot &snapshot);

/**
 * Snapshot @p registry (default: the global one) and write it to
 * @p path in @p format.  Returns false on I/O failure (reported to
 * stderr; metrics must never take a run down).
 */
bool writeMetricsFile(const std::string &path, ExportFormat format,
                      const Registry &registry = Registry::global());

/**
 * Arrange for writeMetricsFile(@p path, @p format) to run at process
 * exit — the single hook behind `--metrics FILE`, shared by the CLI
 * and all bench binaries regardless of how their main() is shaped.
 * Calling it again replaces the destination; the snapshot is taken at
 * exit time.
 */
void exportAtExit(std::string path, ExportFormat format);

} // namespace obs
} // namespace speclens

#endif // SPECLENS_OBS_EXPORT_H
