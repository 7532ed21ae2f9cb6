/**
 * @file
 * Activity-based power model (RAPL-counter stand-in).
 *
 * The paper measures package power with RAPL counters on three Intel
 * machines and decomposes it into core, LLC and DRAM domains (Section
 * V-C, Fig. 12): PC1 of the power feature space is dominated by DRAM
 * power, PC2 by core power.  This model reproduces the same structure
 * from simulation activity: core power scales with retirement rate and
 * FP/SIMD content, LLC power with last-level traffic, and DRAM power
 * with memory bandwidth, each on top of a static floor.
 */

#ifndef SPECLENS_UARCH_POWER_MODEL_H
#define SPECLENS_UARCH_POWER_MODEL_H

#include "uarch/cpi_model.h"
#include "uarch/perf_counters.h"

namespace speclens {
namespace uarch {

/** Machine-specific power coefficients. */
struct PowerModelConfig
{
    double frequency_ghz = 3.4;

    // Core domain.
    double core_static_watts = 4.0;
    double energy_per_instruction_nj = 0.45; //!< Baseline int pipeline.
    double fp_energy_extra_nj = 0.60;        //!< Extra per FP op.
    double simd_energy_extra_nj = 1.10;      //!< Extra per SIMD op.
    double mispredict_energy_nj = 2.0;       //!< Wasted speculative work.

    // LLC domain.
    double llc_static_watts = 1.5;
    double llc_access_energy_nj = 1.2;

    // DRAM domain.
    double dram_static_watts = 2.0;
    double dram_access_energy_nj = 18.0;

    /** Feed every field, in declaration order, to @p fp. */
    void hashInto(stats::Fingerprinter &fp) const;
};

/** Per-domain power estimate in watts. */
struct PowerBreakdown
{
    double core_watts = 0.0;
    double llc_watts = 0.0;
    double dram_watts = 0.0;

    double total() const { return core_watts + llc_watts + dram_watts; }

    /** Every rail equal under exact floating-point comparison. */
    bool operator==(const PowerBreakdown &) const = default;
};

/**
 * Estimate average power over a simulation window.
 *
 * @param counters Event counts of the window.
 * @param cpi Total CPI of the window (fixes the time base: a window of
 *        N instructions at the given CPI and frequency spans
 *        N * cpi / f seconds).
 * @param config Machine power coefficients.
 */
PowerBreakdown computePower(const PerfCounters &counters, double cpi,
                            const PowerModelConfig &config);

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_POWER_MODEL_H
