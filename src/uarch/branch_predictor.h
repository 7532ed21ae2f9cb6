/**
 * @file
 * Direction branch predictors.
 *
 * The Table IV machines span a decade of predictor sophistication —
 * from simple bimodal tables (Xeon E5405 era) through gshare and
 * tournament designs to TAGE-class predictors (Skylake).  Predictor
 * diversity is what makes measured branch MPKI machine-dependent, which
 * drives both the front-end component of the CPI stacks (Fig. 1) and
 * the branch-sensitivity classification (Table IX).
 *
 * All predictors implement the same predict/update/updateBatch/name
 * interface over a (pc, static-branch-id) pair; the id is folded into
 * the index hash so distinct static branches collide realistically but
 * not pathologically.  They share no base class: PredictorVariant
 * below is the one dispatch path, resolved once per playback window
 * with std::visit.
 */

#ifndef SPECLENS_UARCH_BRANCH_PREDICTOR_H
#define SPECLENS_UARCH_BRANCH_PREDICTOR_H

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace speclens {
namespace verify {
class StateAuditor;
}
namespace uarch {

/** Available predictor designs. */
enum class PredictorKind {
    StaticTaken, //!< Always predicts taken.
    Bimodal,     //!< Per-branch 2-bit saturating counters.
    Gshare,      //!< Global-history XOR indexed 2-bit counters.
    Tournament,  //!< Bimodal + gshare with a meta chooser.
    Perceptron,  //!< Linear perceptron over global history.
    TageLite,    //!< Simplified TAGE: tagged tables, geometric histories.
};

/** Human-readable predictor name. */
std::string predictorKindName(PredictorKind kind);

/*
 * Batched prediction: every concrete predictor also exposes
 *
 *   updateBatch(pc, id, taken, mispred, n)
 *
 * which processes n resolved branches exactly as n predict()/update()
 * pairs would — mispred[k] records whether branch k mispredicted —
 * but restructured for throughput: per-branch table indices (and the
 * global-history value each branch observes, a prefix scan over the
 * outcomes) are precomputed in contiguous autovectorizable loops, and
 * only the inherently sequential counter/state updates run in the
 * ordered tail loop.  Results are bit-exact against the scalar pair
 * (tests/uarch/branch_predictor_test.cpp); the kernels live out of
 * line in branch_predictor.cpp so the autovectorization report stage
 * of tools/check.sh covers them.
 */

/** Always-taken baseline. */
class StaticTakenPredictor final
{
  public:
    bool predict(std::uint64_t, std::uint32_t) { return true; }
    void update(std::uint64_t, std::uint32_t, bool) {}
    void updateBatch(const std::uint64_t *pc, const std::uint32_t *id,
                     const std::uint8_t *taken, std::uint8_t *mispred,
                     std::size_t n);
    std::string name() const { return "static-taken"; }
};

/** Classic 2-bit saturating counter table. */
class BimodalPredictor final
{
  public:
    explicit BimodalPredictor(unsigned size_log2);
    bool predict(std::uint64_t pc, std::uint32_t id);
    void update(std::uint64_t pc, std::uint32_t id, bool taken);
    void updateBatch(const std::uint64_t *pc, const std::uint32_t *id,
                     const std::uint8_t *taken, std::uint8_t *mispred,
                     std::size_t n);
    std::string name() const { return "bimodal"; }

  private:
    std::size_t index(std::uint64_t pc, std::uint32_t id) const;
    std::vector<std::uint8_t> counters_;
    std::size_t mask_;
    std::vector<std::uint32_t> batch_idx_; //!< updateBatch scratch.

    // Composite predictors drive the bimodal table directly in their
    // own batch kernels.
    friend class TournamentPredictor;
    friend class TageLitePredictor;

    /** The invariant prover checks counter range and table geometry. */
    friend class verify::StateAuditor;
};

/** Gshare: global history XORed into the table index. */
class GsharePredictor final
{
  public:
    GsharePredictor(unsigned size_log2, unsigned history_bits);
    bool predict(std::uint64_t pc, std::uint32_t id);
    void update(std::uint64_t pc, std::uint32_t id, bool taken);
    void updateBatch(const std::uint64_t *pc, const std::uint32_t *id,
                     const std::uint8_t *taken, std::uint8_t *mispred,
                     std::size_t n);
    std::string name() const { return "gshare"; }

  private:
    std::size_t index(std::uint64_t pc, std::uint32_t id) const;
    std::vector<std::uint8_t> counters_;
    std::size_t mask_;
    std::uint64_t history_ = 0;
    std::uint64_t history_mask_;
    std::vector<std::uint32_t> batch_idx_;  //!< updateBatch scratch.
    std::vector<std::uint64_t> batch_hist_; //!< History prefix scan.

    friend class TournamentPredictor;
    friend class verify::StateAuditor;
};

/** Tournament of bimodal and gshare with a 2-bit meta chooser. */
class TournamentPredictor final
{
  public:
    explicit TournamentPredictor(unsigned size_log2);
    bool predict(std::uint64_t pc, std::uint32_t id);
    void update(std::uint64_t pc, std::uint32_t id, bool taken);
    void updateBatch(const std::uint64_t *pc, const std::uint32_t *id,
                     const std::uint8_t *taken, std::uint8_t *mispred,
                     std::size_t n);
    std::string name() const { return "tournament"; }

  private:
    BimodalPredictor bimodal_;
    GsharePredictor gshare_;
    std::vector<std::uint8_t> chooser_;
    std::size_t mask_;
    bool last_bimodal_ = false;
    bool last_gshare_ = false;
    std::vector<std::uint64_t> batch_mix_;   //!< updateBatch scratch.
    std::vector<std::uint64_t> batch_ghist_; //!< Gshare history scan.
    std::vector<std::uint32_t> batch_bidx_;
    std::vector<std::uint32_t> batch_gidx_;
    std::vector<std::uint32_t> batch_cidx_;

    friend class verify::StateAuditor;
};

/** Perceptron predictor (Jimenez & Lin, HPCA'01) over global history. */
class PerceptronPredictor final
{
  public:
    PerceptronPredictor(unsigned size_log2, unsigned history_bits);
    bool predict(std::uint64_t pc, std::uint32_t id);
    void update(std::uint64_t pc, std::uint32_t id, bool taken);
    void updateBatch(const std::uint64_t *pc, const std::uint32_t *id,
                     const std::uint8_t *taken, std::uint8_t *mispred,
                     std::size_t n);
    std::string name() const { return "perceptron"; }

  private:
    std::size_t index(std::uint64_t pc, std::uint32_t id) const;
    unsigned history_bits_;
    int threshold_;
    std::vector<std::vector<int>> weights_; //!< [perceptron][bias + hist]
    std::size_t mask_;
    std::uint64_t history_ = 0;
    int last_output_ = 0;

    friend class verify::StateAuditor;
};

/**
 * Simplified TAGE: a bimodal base table plus tagged components indexed
 * with geometrically increasing history lengths; longest matching
 * component provides the prediction.
 */
class TageLitePredictor final
{
  public:
    explicit TageLitePredictor(unsigned size_log2, unsigned num_tables = 4);
    bool predict(std::uint64_t pc, std::uint32_t id);
    void update(std::uint64_t pc, std::uint32_t id, bool taken);
    void updateBatch(const std::uint64_t *pc, const std::uint32_t *id,
                     const std::uint8_t *taken, std::uint8_t *mispred,
                     std::size_t n);
    std::string name() const { return "tage-lite"; }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        std::int8_t counter = 0; //!< Signed; >= 0 predicts taken.
        std::uint8_t useful = 0;
    };

    // History-parameterized forms, shared by the scalar path (which
    // passes history_) and the batch kernel (which passes each
    // branch's prefix-scanned history value).
    std::size_t tableIndex(unsigned table, std::uint64_t pc,
                           std::uint32_t id, std::uint64_t history) const;
    std::uint16_t tableTag(unsigned table, std::uint64_t pc,
                           std::uint32_t id, std::uint64_t history) const;
    std::size_t
    tableIndex(unsigned table, std::uint64_t pc, std::uint32_t id) const
    {
        return tableIndex(table, pc, id, history_);
    }
    std::uint16_t
    tableTag(unsigned table, std::uint64_t pc, std::uint32_t id) const
    {
        return tableTag(table, pc, id, history_);
    }

    BimodalPredictor base_;
    std::vector<std::vector<Entry>> tables_;
    std::vector<unsigned> history_lengths_;
    std::size_t mask_;
    std::uint64_t history_ = 0;

    // Prediction bookkeeping between predict() and update().
    int provider_ = -1;
    bool provider_pred_ = false;
    bool base_pred_ = false;

    // updateBatch scratch: per-branch history values, plus per-table
    // index/tag arrays laid out table-major (table * n + branch).
    std::vector<std::uint64_t> batch_hist_;
    std::vector<std::uint32_t> batch_idx_;
    std::vector<std::uint16_t> batch_tag_;
    std::vector<std::uint32_t> batch_base_idx_;

    friend class verify::StateAuditor;
};

/**
 * Closed set of concrete predictor types for static dispatch.
 *
 * The per-instruction playback loop is dominated by predict()/update()
 * calls.  Holding the predictor as a variant lets the simulator
 * std::visit once per playback window and run the whole loop against
 * the concrete (final) type, where the calls resolve statically and
 * inline.
 */
using PredictorVariant =
    std::variant<StaticTakenPredictor, BimodalPredictor, GsharePredictor,
                 TournamentPredictor, PerceptronPredictor,
                 TageLitePredictor>;

/**
 * Create a predictor.
 *
 * @param kind Design to instantiate.
 * @param size_log2 log2 of the main table size (counters, perceptrons
 *        or per-table TAGE entries); larger machines pass larger values.
 *        Each kind applies its own sizing adjustment to it.
 */
PredictorVariant makePredictorVariant(PredictorKind kind,
                                      unsigned size_log2 = 12);

// ---------------------------------------------------------------------
// Hot-path definitions.  predict()/update() run once per simulated
// branch (roughly a fifth of all instructions), so they live in the
// header where they inline into the playback loop's std::visit body.

namespace predictor_detail {

/**
 * Hash the static-branch identity into a well-distributed index base.
 *
 * Only the id participates: the synthetic trace reports the dynamic
 * fetch address separately from branch identity, and a real predictor
 * indexes by the branch's *home* PC, which is stable per static
 * branch.  The id is that stable identity here.
 */
inline std::uint64_t
mixPcId(std::uint64_t /* pc */, std::uint32_t id)
{
    std::uint64_t x = (static_cast<std::uint64_t>(id) + 0x2545f491ull) *
                      0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 32;
    return x;
}

/** Saturating 2-bit counter update. */
inline void
updateCounter2(std::uint8_t &counter, bool taken)
{
    if (taken) {
        if (counter < 3)
            ++counter;
    } else {
        if (counter > 0)
            --counter;
    }
}

} // namespace predictor_detail

inline std::size_t
BimodalPredictor::index(std::uint64_t pc, std::uint32_t id) const
{
    return static_cast<std::size_t>(predictor_detail::mixPcId(pc, id)) &
           mask_;
}

inline bool
BimodalPredictor::predict(std::uint64_t pc, std::uint32_t id)
{
    return counters_[index(pc, id)] >= 2;
}

inline void
BimodalPredictor::update(std::uint64_t pc, std::uint32_t id, bool taken)
{
    predictor_detail::updateCounter2(counters_[index(pc, id)], taken);
}

inline std::size_t
GsharePredictor::index(std::uint64_t pc, std::uint32_t id) const
{
    return static_cast<std::size_t>(predictor_detail::mixPcId(pc, id) ^
                                    history_) &
           mask_;
}

inline bool
GsharePredictor::predict(std::uint64_t pc, std::uint32_t id)
{
    return counters_[index(pc, id)] >= 2;
}

inline void
GsharePredictor::update(std::uint64_t pc, std::uint32_t id, bool taken)
{
    predictor_detail::updateCounter2(counters_[index(pc, id)], taken);
    history_ = ((history_ << 1) | (taken ? 1u : 0u)) & history_mask_;
}

inline bool
TournamentPredictor::predict(std::uint64_t pc, std::uint32_t id)
{
    last_bimodal_ = bimodal_.predict(pc, id);
    last_gshare_ = gshare_.predict(pc, id);
    std::size_t i =
        static_cast<std::size_t>(predictor_detail::mixPcId(pc, id)) & mask_;
    return chooser_[i] >= 2 ? last_gshare_ : last_bimodal_;
}

inline void
TournamentPredictor::update(std::uint64_t pc, std::uint32_t id, bool taken)
{
    std::size_t i =
        static_cast<std::size_t>(predictor_detail::mixPcId(pc, id)) & mask_;
    bool bimodal_right = last_bimodal_ == taken;
    bool gshare_right = last_gshare_ == taken;
    if (bimodal_right != gshare_right)
        predictor_detail::updateCounter2(chooser_[i], gshare_right);
    bimodal_.update(pc, id, taken);
    gshare_.update(pc, id, taken);
}

inline std::size_t
PerceptronPredictor::index(std::uint64_t pc, std::uint32_t id) const
{
    return static_cast<std::size_t>(predictor_detail::mixPcId(pc, id)) &
           mask_;
}

inline std::size_t
TageLitePredictor::tableIndex(unsigned table, std::uint64_t pc,
                              std::uint32_t id, std::uint64_t history) const
{
    std::uint64_t h_mask = (std::uint64_t{1} << history_lengths_[table]) - 1;
    std::uint64_t folded = history & h_mask;
    // Fold long histories down to the index width.
    folded ^= folded >> 13;
    folded ^= folded >> 7;
    return static_cast<std::size_t>(predictor_detail::mixPcId(pc, id) ^
                                    folded ^ (table * 0x9e3779b9ull)) &
           mask_;
}

inline std::uint16_t
TageLitePredictor::tableTag(unsigned table, std::uint64_t pc,
                            std::uint32_t id, std::uint64_t history) const
{
    std::uint64_t h_mask = (std::uint64_t{1} << history_lengths_[table]) - 1;
    std::uint64_t v = predictor_detail::mixPcId(pc * 31 + 7, id) ^
                      (history & h_mask) ^ (table * 0x2545f491ull);
    return static_cast<std::uint16_t>(v & 0x3ff); // 10-bit tags
}

inline bool
TageLitePredictor::predict(std::uint64_t pc, std::uint32_t id)
{
    base_pred_ = base_.predict(pc, id);
    provider_ = -1;
    provider_pred_ = base_pred_;
    // Longest-history matching component wins.
    for (int t = static_cast<int>(tables_.size()) - 1; t >= 0; --t) {
        const Entry &e =
            tables_[static_cast<unsigned>(t)]
                   [tableIndex(static_cast<unsigned>(t), pc, id)];
        if (e.tag == tableTag(static_cast<unsigned>(t), pc, id)) {
            provider_ = t;
            // A freshly allocated (weak) entry carries no confidence;
            // fall back to the base prediction in that case, as real
            // TAGE does via its alternate-prediction path.
            bool weak = e.counter == 0 || e.counter == -1;
            provider_pred_ = weak ? base_pred_ : e.counter >= 0;
            break;
        }
    }
    return provider_pred_;
}

} // namespace uarch
} // namespace speclens

#endif // SPECLENS_UARCH_BRANCH_PREDICTOR_H
