/**
 * @file
 * MISB (Wu et al., ISCA 2019): the state-of-the-art off-chip temporal
 * prefetcher Triage is compared against.
 *
 * Like ISB, MISB maps PC-localized correlated addresses onto a
 * *structural address space* so that temporal neighbours become
 * spatial neighbours: PS (physical->structural) and SP
 * (structural->physical) mappings live off chip, with small on-chip
 * metadata caches managed at fine granularity. MISB adds a metadata
 * prefetcher that walks ahead in the structural space, and a Bloom
 * filter that suppresses off-chip lookups for untracked addresses.
 *
 * Unlike the idealized STMS/Domino models, MISB's metadata traffic is
 * charged against the DRAM model in full (reads delay the dependent
 * data prefetch; dirty metadata evictions write back), reproducing the
 * paper's "faithfully modeled" comparison (Figures 11-13, 17).
 */
#ifndef TRIAGE_PREFETCH_MISB_HPP
#define TRIAGE_PREFETCH_MISB_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "prefetch/prefetcher.hpp"
#include "prefetch/training_unit.hpp"
#include "util/flat_map.hpp"

namespace triage::prefetch {

/** Tuning knobs. Default on-chip budget is the paper's MISB_48KB. */
struct MisbConfig {
    std::uint32_t ps_cache_entries = 8192; ///< 32 KB at 4 B/entry
    std::uint32_t sp_cache_entries = 4096; ///< 16 KB at 4 B/entry
    std::uint32_t cache_ways = 8;
    std::uint32_t training_unit_entries = 64;
    /** Structural stream chunk; new PC streams start on this boundary. */
    std::uint32_t stream_length = 256;
    /** Metadata entries moved per off-chip 64 B burst. */
    std::uint32_t granule_entries = 16;
    std::uint32_t degree = 1;
    /** Walk-ahead metadata prefetching (MISB's key addition). */
    bool metadata_prefetch = true;
    /** Charge metadata latency/bandwidth (false only in ablations). */
    bool charge_time = true;
    /**
     * Charge an off-chip read when a stream advance needs a PS entry
     * that is no longer cached (MISB's fine-grained PS metadata
     * prefetching: latency hidden, traffic real). ISB's page-synced
     * variant instead pays at page granularity via larger granules.
     */
    bool stream_ps_charge = true;
    /** Display name ("misb" or "isb"). */
    const char* display_name = "misb";
};

/** ISB (Jain & Lin, MICRO 2013): the TLB-synced predecessor of MISB.
 *  Metadata moves at page granularity (64 entries = 4 bursts per
 *  fetch), there is no metadata prefetcher, and cache utilization is
 *  correspondingly poor — the 200-400% traffic regime the paper's
 *  related work describes. */
MisbConfig isb_config(std::uint32_t degree = 1);

/**
 * On-chip metadata cache: set-associative, LRU, key->value entries
 * with dirty bits. Shared by the PS and SP sides.
 */
class MetadataCache
{
  public:
    MetadataCache(std::uint32_t entries, std::uint32_t ways);

    /** Probe; refreshes LRU on hit. */
    std::optional<std::uint64_t> find(std::uint64_t key);

    struct Evicted {
        bool valid = false;
        bool dirty = false;
        std::uint64_t key = 0;
        std::uint64_t value = 0;
    };

    /** Install or update (key -> value). */
    Evicted insert(std::uint64_t key, std::uint64_t value, bool dirty);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    void
    checkpoint(sim::Snapshot& s)
    {
        s.section("misb.mdcache");
        s.io_vec(entries_, [](sim::Snapshot& a, Entry& e) {
            a.io(e.key);
            a.io(e.value);
            a.io(e.lru);
            a.io(e.dirty);
            a.io(e.valid);
        });
        s.io(clock_);
        s.io(hits_);
        s.io(misses_);
    }

  private:
    struct Entry {
        std::uint64_t key = 0;
        std::uint64_t value = 0;
        std::uint64_t lru = 0;
        bool dirty = false;
        bool valid = false;
    };

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Entry> entries_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Off-chip metadata table: MISB's unbounded DRAM-resident PS or SP
 * store, laid out the way MISB moves it. Keys group into granules of
 * ROW_ENTRIES consecutive keys, one 64 B burst of 4-byte entries; a
 * util::FlatMap indexes granule id (key / ROW_ENTRIES) -> row of a
 * chunked row pool. A row holds the granule's values, a presence mask
 * and a confidence mask (the PS side's 1-bit remap confidence, set and
 * cleared independently of the value), so fetching a granule is one
 * map probe plus one contiguous row scan.
 */
class GranuleTable
{
  public:
    static constexpr std::uint32_t ROW_ENTRIES = 16;

    /** Number of mapped keys. */
    std::size_t size() const { return size_; }

    /** Value mapped to @p key, or nullptr. */
    const std::uint64_t*
    find(std::uint64_t key) const
    {
        const Row* r = row_of(key / ROW_ENTRIES);
        const std::uint32_t slot = key % ROW_ENTRIES;
        return r != nullptr && (r->present >> slot & 1u) != 0
                   ? &r->value[slot]
                   : nullptr;
    }

    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    /** Map (or remap) @p key to @p value. */
    void
    set(std::uint64_t key, std::uint64_t value)
    {
        Row& r = row_ref(key / ROW_ENTRIES);
        const std::uint32_t bit = 1u << (key % ROW_ENTRIES);
        size_ += (r.present & bit) == 0;
        r.present |= bit;
        r.value[key % ROW_ENTRIES] = value;
    }

    void
    set_confident(std::uint64_t key)
    {
        row_ref(key / ROW_ENTRIES).confident |= 1u << (key % ROW_ENTRIES);
    }

    /** Clear @p key's confidence bit. @return it was set. */
    bool
    clear_confident(std::uint64_t key)
    {
        const std::uint32_t* ri = index_.find(key / ROW_ENTRIES);
        if (ri == nullptr)
            return false;
        Row& r = row_at(*ri);
        const std::uint32_t bit = 1u << (key % ROW_ENTRIES);
        const bool was = (r.confident & bit) != 0;
        r.confident &= ~bit;
        return was;
    }

    bool
    confident(std::uint64_t key) const
    {
        const Row* r = row_of(key / ROW_ENTRIES);
        return r != nullptr &&
               (r->confident >> (key % ROW_ENTRIES) & 1u) != 0;
    }

    /**
     * Visit the mapped (key, value) pairs among the @p n keys starting
     * at @p first, in ascending key order. @p f must not modify the
     * table.
     */
    template <typename F>
    void
    for_range(std::uint64_t first, std::uint64_t n, F&& f) const
    {
        const std::uint64_t end = first + n;
        for (std::uint64_t k = first; k < end;) {
            const std::uint64_t g = k / ROW_ENTRIES;
            const std::uint64_t base = g * ROW_ENTRIES;
            const std::uint64_t stop = std::min(base + ROW_ENTRIES, end);
            if (const Row* r = row_of(g)) {
                const std::uint32_t lo = static_cast<std::uint32_t>(k - base);
                const std::uint32_t hi =
                    static_cast<std::uint32_t>(stop - base);
                std::uint32_t m =
                    r->present & ((1u << hi) - 1) & ~((1u << lo) - 1);
                for (; m != 0; m &= m - 1) {
                    const auto slot =
                        static_cast<unsigned>(std::countr_zero(m));
                    f(base + slot, r->value[slot]);
                }
            }
            k = stop;
        }
    }

    /** Visit every mapped (key, value) pair in ascending key order. */
    template <typename F>
    void
    for_each(F&& f) const
    {
        for (std::uint64_t g : sorted_granules()) {
            const Row& r = row_at(*index_.find(g));
            for (std::uint32_t m = r.present; m != 0; m &= m - 1) {
                const auto slot =
                    static_cast<unsigned>(std::countr_zero(m));
                f(g * ROW_ENTRIES + slot, r.value[slot]);
            }
        }
    }

    /**
     * Count then (key, value) pairs in ascending key order, then the
     * confident keys the same way: two equal tables serialize to
     * identical bytes whatever their row-allocation history.
     */
    void checkpoint(sim::Snapshot& s);

  private:
    struct Row {
        std::uint64_t value[ROW_ENTRIES];
        std::uint32_t present;
        std::uint32_t confident;
    };
    /** Rows per pool chunk: the pool grows without moving rows. */
    static constexpr std::uint32_t CHUNK_ROWS = 1024;

    Row&
    row_at(std::uint32_t i)
    {
        return chunks_[i / CHUNK_ROWS][i % CHUNK_ROWS];
    }

    const Row&
    row_at(std::uint32_t i) const
    {
        return chunks_[i / CHUNK_ROWS][i % CHUNK_ROWS];
    }

    const Row*
    row_of(std::uint64_t granule) const
    {
        const std::uint32_t* ri = index_.find(granule);
        return ri != nullptr ? &row_at(*ri) : nullptr;
    }

    /** Row of @p granule, allocating a zeroed one if absent. */
    Row& row_ref(std::uint64_t granule);

    std::vector<std::uint64_t> sorted_granules() const;

    /** Drop every entry; the row pool's memory is kept. */
    void clear();

    util::FlatMap<std::uint64_t, std::uint32_t> index_;
    std::vector<std::unique_ptr<Row[]>> chunks_;
    std::uint32_t rows_ = 0; ///< rows in use (a prefix of the pool)
    std::size_t size_ = 0;
};

/** MISB prefetcher. */
class Misb final : public Prefetcher
{
  public:
    explicit Misb(MisbConfig cfg = {});

    void train(const TrainEvent& ev, PrefetchHost& host) override;
    const std::string& name() const override { return name_; }

    const MetadataCache& ps_cache() const { return ps_cache_; }
    const MetadataCache& sp_cache() const { return sp_cache_; }
    /** Off-chip physical -> structural store (tests). */
    const GranuleTable& ps_table() const { return ps_; }

    void
    checkpoint(sim::Snapshot& s) override
    {
        Prefetcher::checkpoint(s);
        s.section("pf.misb");
        ps_.checkpoint(s);
        sp_.checkpoint(s);
        ps_cache_.checkpoint(s);
        sp_cache_.checkpoint(s);
        tu_.checkpoint(s);
        s.io_pod_vec(stream_expected_);
        s.io_pod_vec(stream_structural_);
        s.io_pod_vec(stream_lru_);
        s.io(stream_clock_);
        s.io(next_structural_);
        s.io(pending_dirty_);
    }

  private:
    static constexpr std::uint64_t INVALID = ~std::uint64_t{0};

    /**
     * Look up PS[phys]; on on-chip miss fetch the off-chip granule
     * (charged). @return structural address (INVALID if unmapped) and
     * the time the answer is available.
     */
    std::uint64_t ps_lookup(sim::Addr phys, const TrainEvent& ev,
                            PrefetchHost& host, sim::Cycle& avail);
    sim::Addr sp_lookup(std::uint64_t structural, const TrainEvent& ev,
                        PrefetchHost& host, sim::Cycle& avail);
    void ps_update(sim::Addr phys, std::uint64_t structural,
                   const TrainEvent& ev, PrefetchHost& host);
    void sp_update(std::uint64_t structural, sim::Addr phys,
                   const TrainEvent& ev, PrefetchHost& host);
    void handle_eviction(const MetadataCache::Evicted& ev_entry,
                         const TrainEvent& ev, PrefetchHost& host);
    /** Fetch one off-chip granule into the on-chip cache. */
    sim::Cycle fetch_granule(bool is_ps, std::uint64_t first_key,
                             const TrainEvent& ev, PrefetchHost& host);
    /** Stream buffer to (re)arm: the last invalid one, else the LRU. */
    std::uint32_t stream_victim() const;

    MisbConfig cfg_;
    /**
     * Off-chip backing store (DRAM-resident metadata, unbounded). A PS
     * key doubles as MISB's Bloom filter ("is this address tracked at
     * all?"), and PS confidence bits hold the 1-bit remap confidence
     * per mapped physical block: a block is re-mapped to a new
     * structural address only after two consecutive disagreements, so
     * blocks with several valid successors stop churning the
     * structural space.
     */
    GranuleTable ps_;
    GranuleTable sp_;
    MetadataCache ps_cache_;
    MetadataCache sp_cache_;
    TrainingUnit tu_;

    /**
     * Stream buffers (ISB's key structure): once a stream is active,
     * the next trigger's structural address is known (s+1), so no PS
     * lookup — on or off chip — is needed while the prediction holds.
     * The match scan reads a packed array of expected physical blocks
     * (INVALID = idle buffer); structural address and LRU stamp live
     * in parallel arrays.
     */
    std::vector<sim::Addr> stream_expected_;
    std::vector<std::uint64_t> stream_structural_;
    std::vector<std::uint64_t> stream_lru_;
    std::uint64_t stream_clock_ = 0;

    std::uint64_t next_structural_ = 0;
    std::uint32_t pending_dirty_ = 0; ///< coalescing write buffer fill
    std::string name_;
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_MISB_HPP
