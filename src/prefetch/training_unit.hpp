/**
 * @file
 * Training Unit: remembers the most recently accessed address for each
 * load PC, producing PC-localized correlated pairs (A, B) (paper
 * Section 3.1, "Training"). Shared by Triage and MISB/ISB, which train
 * on the same PC-localized pairs.
 */
#ifndef TRIAGE_PREFETCH_TRAINING_UNIT_HPP
#define TRIAGE_PREFETCH_TRAINING_UNIT_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/snapshot.hpp"
#include "sim/types.hpp"

namespace triage::prefetch {

/**
 * Small fully-associative PC -> last-address table with LRU.
 *
 * Hot-path layout (docs/performance.md): the per-access match loop
 * scans a packed PC array instead of 32-byte entry structs; last
 * address and LRU stamp live in parallel arrays touched only on a
 * match or an insert. Empty slots occupy the prefix [0, valid_from_)
 * — the table fills from the back, which reproduces the historical
 * victim scan (the last empty slot in scan order won) — so validity
 * needs no per-entry flag.
 */
class TrainingUnit
{
  public:
    explicit TrainingUnit(std::uint32_t entries = 128);

    /**
     * Record that @p pc just accessed @p block.
     * @return the previous block accessed by this PC, if tracked — the
     *         "A" of the correlated pair (A, B = block).
     */
    std::optional<sim::Addr> update(sim::Pc pc, sim::Addr block);

    /** Peek without updating (tests). */
    std::optional<sim::Addr> last_of(sim::Pc pc) const;

    std::uint32_t capacity() const { return capacity_; }

    void
    checkpoint(sim::Snapshot& s)
    {
        s.section("training_unit");
        s.io(valid_from_);
        s.io_pod_vec(pcs_);
        s.io_pod_vec(last_);
        s.io_pod_vec(lru_);
        s.io(clock_);
    }

  private:
    std::uint32_t capacity_;
    /** First valid slot; slots [valid_from_, capacity_) are live. */
    std::uint32_t valid_from_;
    std::vector<sim::Pc> pcs_;        ///< hot: scanned per access
    std::vector<sim::Addr> last_;     ///< parallel cold state
    std::vector<std::uint64_t> lru_;  ///< parallel LRU stamps
    std::uint64_t clock_ = 0;
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_TRAINING_UNIT_HPP
