/**
 * @file
 * Closed-form (analytic) cache/TLB prewarm.
 *
 * Playback::prewarm() streams every line of the LLC-resident working
 * sets (plus the code footprint) through the cold hierarchy once; PR 6
 * reduced each step to Cache::coldFill()/repeatLastHit(), but the walk
 * still executes one iteration per distinct line and page.  This
 * solver removes the loop entirely: the warmup stream is a short list
 * of arithmetic progressions of distinct units (lines or pages), so
 * the final state of every set — which tags survive, in which ways,
 * with which replacement metadata and stamp values — has a closed
 * form, derived here set by set without visiting the stream.
 *
 * The proof obligations (DESIGN.md §5e "round 2"):
 *
 *  - LRU/FIFO: in a pure fill stream the per-set stamps are strictly
 *    increasing in fill order (repeats only re-stamp the most recent
 *    fill), so victims are round-robin and the p-th in-set fill lands
 *    in way p mod assoc.  The surviving tag of way w is therefore the
 *    unit of the last in-set fill ordinal congruent to w, and its
 *    stamp is that unit's last element tick — both computable from
 *    the per-set fill count alone.
 *  - Per-set fill counts: the units reaching set s from a progression
 *    {u0 + j*d : j < M} are the solutions of a linear congruence —
 *    count and j-positions follow from gcd/modular-inverse arithmetic
 *    (valid for power-of-two and modulo-indexed set counts alike).
 *  - Tree-PLRU: the cold-fill victim schedule is derived by replaying
 *    2*assoc fills through the exact victim/touch primitives
 *    (plruVictimWay/plruTouchState) and verified periodic on the spot;
 *    the verified schedule gives every way's last fill and the final
 *    tree state in O(1) per set.  If verification ever fails the
 *    whole prewarm falls back to the walk.
 *  - Random: provable only when no set overflows its ways (then fills
 *    occupy the invalid suffix in order and the RNG is never drawn);
 *    any overflow falls back, preserving the global draw order.
 *
 * Fallback contract: apply() either computes the exact walk-equivalent
 * state for the WHOLE hierarchy or mutates nothing and returns false,
 * in which case the caller must run the walking path.  Equivalence is
 * enforced bit-for-bit by tests/uarch/prewarm_equivalence_test.cpp and
 * transitively by the streaming parity suite.
 */

#ifndef SPECLENS_UARCH_PREWARM_H
#define SPECLENS_UARCH_PREWARM_H

#include <cstdint>
#include <vector>

#include "trace/workload_profile.h"
#include "uarch/cache_hierarchy.h"
#include "uarch/tlb.h"

namespace speclens {
namespace uarch {

/** Closed-form prewarm entry point (stateless; see file comment). */
class PrewarmSolver
{
  public:
    /**
     * One run of fills in stream order: an arithmetic progression of
     * @p fills distinct units starting at @p u0 with step @p step,
     * where unit j absorbs @p rep consecutive stream elements (the
     * last unit clamps to the segment's @p elems total).  tick0 /
     * fills0 are the structure's cumulative element and fill counts
     * before the segment, fixing absolute stamp values.
     */
    struct Segment
    {
        std::uint64_t u0 = 0;
        std::uint64_t step = 1;
        std::uint64_t fills = 0;
        std::uint64_t rep = 1;
        std::uint64_t elems = 0;
        std::uint64_t tick0 = 0;
        std::uint64_t fills0 = 0;
    };

    /**
     * Compute the exact final prewarm state of @p caches and @p tlbs
     * for @p profile, or mutate nothing and return false when any
     * structure's reference pattern leaves the provable regime (the
     * caller then walks).  @p llc_lines is the working-set residency
     * bound the walk applies (last-level capacity in lines).
     */
    static bool apply(CacheHierarchy &caches, TlbHierarchy &tlbs,
                      const trace::WorkloadProfile &profile,
                      std::uint64_t llc_lines);

    /**
     * The walking path: stream every LLC-resident line/page through
     * the hierarchy with exact run collapsing.  This is the semantic
     * definition of prewarm; apply() must reproduce its state bit for
     * bit.  Shared by Playback::prewarm() (fallback), the
     * equivalence tests and the scalar reference simulator (reference
     * side).
     */
    static void walk(CacheHierarchy &caches, TlbHierarchy &tlbs,
                     const trace::WorkloadProfile &profile,
                     std::uint64_t llc_lines);

    /**
     * Test support: flatten every prewarm-written field of @p caches
     * and @p tlbs — per-level tags, defined replacement stamps
     * (LRU/FIFO valid ways only; tree-PLRU/Random stamps are never
     * written), PLRU words, cold-fill counters, ticks, last-access
     * indices and all access/miss statistics — into one word vector,
     * so the analytic and walking paths can be compared for exact
     * state equality, not just equal measurement results.
     */
    static std::vector<std::uint64_t>
    stateDigest(const CacheHierarchy &caches, const TlbHierarchy &tlbs);

  private:
    /** Append one structure's prewarm-visible state to @p out. */
    static void appendCacheState(const Cache &cache,
                                 std::vector<std::uint64_t> &out);

    /** Write one structure's final state from its segment list. */
    static void solveCache(Cache &cache,
                           const std::vector<Segment> &segments,
                           std::uint64_t accesses, std::uint64_t hits);

    /** True when every set of @p cache keeps fills <= associativity
     *  (the Random-policy provability condition). */
    static bool fitsWithoutEviction(const Cache &cache,
                                    const std::vector<Segment> &segments);
};

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_PREWARM_H
