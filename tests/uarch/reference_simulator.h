/**
 * @file
 * Scalar reference simulator: the parity oracle for uarch::simulate().
 *
 * simulate() streams records in structure-of-arrays batches, collapses
 * same-line and same-page runs into repeat-hit counts, resolves a
 * batch's branches through the predictor's batch kernel and may write
 * the prewarm state in closed form.  reference::simulate() does none
 * of that.  It pulls one record at a time from TraceGenerator::next(),
 * probes every structure on every record, calls predict() then update()
 * per branch, always prewarms with the walking path, and reads the
 * structure counters as before/after deltas of the public getters.
 * It shares no playback code with the fast loop, so agreement between
 * the two (uarch::bitIdentical) is evidence, not a tautology.
 */

#ifndef SPECLENS_TESTS_UARCH_REFERENCE_SIMULATOR_H
#define SPECLENS_TESTS_UARCH_REFERENCE_SIMULATOR_H

#include "trace/workload_profile.h"
#include "uarch/machine.h"
#include "uarch/simulation.h"

namespace speclens {
namespace reference {

/**
 * Measure @p profile on @p machine one record at a time.  Honours
 * every field of @p config that simulate() hashes; force_prewarm_walk
 * is moot because the reference always walks.
 */
uarch::SimulationResult simulate(const trace::WorkloadProfile &profile,
                                 const uarch::MachineConfig &machine,
                                 const uarch::SimulationConfig &config);

} // namespace reference
} // namespace speclens

#endif // SPECLENS_TESTS_UARCH_REFERENCE_SIMULATOR_H
