/**
 * @file
 * The three-level memory hierarchy (per-core L1D + L2, shared LLC,
 * shared DRAM) that implements PrefetchHost.
 *
 * Latencies are load-to-use from request issue (Table 1): L1 3, L2 11,
 * LLC 20 (+ optional penalty), DRAM 170 + queueing. In-flight fills are
 * modeled with per-line ready times, so demands that race an ongoing
 * fill merge like MSHR hits. Triage's LLC metadata partition is applied
 * here as way partitioning with flush-on-shrink.
 */
#ifndef TRIAGE_CACHE_HIERARCHY_HPP
#define TRIAGE_CACHE_HIERARCHY_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mshr_queue.hpp"
#include "prefetch/prefetcher.hpp"
#include "prefetch/stride.hpp"
#include "sim/config.hpp"
#include "sim/dram.hpp"
#include "sim/tlb.hpp"
#include "sim/types.hpp"

namespace triage::obs {
class EventTrace;
class LifecycleTracker;
class Registry;
} // namespace triage::obs

namespace triage::cache {

/** Per-core on-/off-chip metadata access counters (energy model). */
struct MetadataEnergy {
    std::uint64_t onchip_accesses = 0;  ///< LLC metadata reads+writes
    std::uint64_t offchip_accesses = 0; ///< DRAM metadata bursts

    /**
     * Energy in "LLC units" (Figure 13): 1 per LLC access,
     * @p dram_unit per DRAM access (paper midpoint 25, bounds 10/50).
     */
    double
    units(double dram_unit = 25.0) const
    {
        return static_cast<double>(onchip_accesses) +
               dram_unit * static_cast<double>(offchip_accesses);
    }
};

/**
 * Shared memory system for @p n_cores cores.
 *
 * Thread-unsafe by design: the (single-threaded) core models interleave
 * accesses in quantum order.
 */
class MemorySystem final : public prefetch::PrefetchHost
{
  public:
    MemorySystem(const sim::MachineConfig& cfg, unsigned n_cores);

    /** Attach the L2 prefetcher under test for @p core (may be null). */
    void set_prefetcher(unsigned core,
                        std::unique_ptr<prefetch::Prefetcher> pf);
    prefetch::Prefetcher* prefetcher(unsigned core);

    /**
     * Demand access from @p core.
     * @return absolute completion (load-to-use) time.
     */
    sim::Cycle access(unsigned core, sim::Pc pc, sim::Addr byte_addr,
                      bool is_write, sim::Cycle now);

    /**
     * Wall-clock-only hint for an access that will be simulated soon:
     * pull the L1/L2/LLC tag rows and the prefetcher's metadata rows
     * toward the host cache. CoreModel::run_records issues this one
     * record ahead, which buys the fetches a whole record's worth of
     * simulation work to complete under — the in-access hints alone
     * fire only a few dozen instructions before the rows are read
     * (docs/performance.md §Hot-path v2). No simulated effect.
     */
    void lookahead_hint(unsigned core, sim::Addr byte_addr);

    // --- PrefetchHost interface -----------------------------------------
    prefetch::PfOutcome issue_prefetch(unsigned core, sim::Addr block,
                                       sim::Cycle when,
                                       prefetch::Prefetcher* owner) override;
    sim::Cycle llc_latency() const override;
    void count_metadata_llc_access(unsigned core, bool is_write) override;
    sim::Cycle offchip_metadata_access(unsigned core, sim::Cycle now,
                                       std::uint32_t bytes, bool is_write,
                                       bool charge_time) override;
    void request_metadata_capacity(unsigned core, std::uint64_t bytes,
                                   sim::Cycle now) override;

    // --- Introspection ---------------------------------------------------
    sim::Dram& dram() { return dram_; }
    const sim::Dram& dram() const { return dram_; }
    SetAssocCache& l1(unsigned core) { return *cores_[core].l1; }
    SetAssocCache& l2(unsigned core) { return *cores_[core].l2; }
    SetAssocCache& llc() { return *llc_; }
    prefetch::StridePrefetcher* l1_stride(unsigned core);
    sim::Tlb* tlb(unsigned core) { return cores_[core].tlb.get(); }
    unsigned num_cores() const { return n_cores_; }
    const sim::MachineConfig& config() const { return cfg_; }

    /** Metadata-energy counters for @p core. */
    const MetadataEnergy& metadata_energy(unsigned core) const;

    /** LLC ways currently reserved for metadata, total across cores. */
    std::uint32_t metadata_ways() const;
    /** Current per-core metadata capacity grant in bytes. */
    std::uint64_t metadata_bytes(unsigned core) const;
    /** Time-weighted average metadata ways attributable to @p core. */
    double avg_metadata_ways(unsigned core, sim::Cycle end_cycle) const;

    /** Reset all statistics (cache contents stay warm). */
    void clear_stats(sim::Cycle now);

    /**
     * Bind the whole hierarchy's counters into @p reg:
     * "core<i>.l1"/"l2"/"tlb"/"pf", "llc", "dram", plus per-core
     * metadata energy and way-allocation formulas.
     */
    void register_stats(obs::Registry& reg) const;

    /** Attach (or detach, with null) the event trace; propagated to
     *  per-core prefetchers. */
    void set_trace(obs::EventTrace* trace);
    obs::EventTrace* trace() { return trace_; }

    /**
     * Attach (or detach, with null) the per-prefetch lifecycle
     * tracker. Only the L2 prefetcher under test is tracked (L1
     * stride prefetches and owner-less direct issues are excluded, so
     * class counts reconcile with that prefetcher's issued count).
     */
    void set_lifecycle(obs::LifecycleTracker* lc) { lifecycle_ = lc; }
    obs::LifecycleTracker* lifecycle() { return lifecycle_; }

    /**
     * Pointer<->index codec over every prefetcher that can own a line
     * (each core's L1 stride and L2 prefetcher, hybrids flattened).
     * Enumeration order is fixed by core index, so a restoring system
     * configured identically decodes to its own equivalent objects.
     */
    PfOwnerCodec pf_owner_codec();

    /**
     * Save/restore the full hierarchy warm state: every cache level,
     * prefetcher, TLB, MSHR file, DRAM channel state, and the
     * partition/energy accounting (docs/parallel-runs.md).
     */
    void checkpoint(sim::Snapshot& s);

  private:
    struct PerCore {
        std::unique_ptr<SetAssocCache> l1;
        std::unique_ptr<SetAssocCache> l2;
        std::unique_ptr<prefetch::StridePrefetcher> stride;
        std::unique_ptr<prefetch::Prefetcher> l2pf;
        std::unique_ptr<sim::Tlb> tlb; ///< null unless cfg.model_tlb
        /** Completion times of outstanding off-chip fills (MSHRs),
         *  retired in batched drains (cache/mshr_queue.hpp). */
        MshrQueue mshrs;
        /** Last two blocks pushed by lookahead_hint(); access() skips
         *  its own (shorter-lead) host-cache hints for them. Two-deep
         *  because the run loop hints record i+1 before it simulates
         *  record i. Wall-clock only — never checkpointed. */
        sim::Addr hinted_block = ~sim::Addr{0};
        sim::Addr hinted_prev = ~sim::Addr{0};
        MetadataEnergy energy;
        std::uint64_t meta_bytes = 0;
        // Time-weighted integral of this core's metadata ways.
        double way_integral = 0.0;
        sim::Cycle way_since = 0;
        double ways_now = 0.0;
    };

    /**
     * Claim an MSHR for a demand fill issued at @p issue; if the file
     * is full, returns the (possibly later) time the request can
     * actually leave. Prefetches use try_claim semantics instead.
     */
    sim::Cycle claim_mshr(PerCore& pcs, sim::Cycle issue,
                          sim::Cycle completion_estimate);

    /** Fill path shared by demands and prefetches below L2. */
    sim::Cycle fetch_into_l2(unsigned core, sim::Pc pc, sim::Addr block,
                             sim::Cycle now, bool is_prefetch,
                             prefetch::Prefetcher* owner,
                             prefetch::PfOutcome* outcome);
    void writeback_to_llc(unsigned core, sim::Addr block, sim::Cycle now);
    void apply_partition(sim::Cycle now);
    void credit_prefetch(unsigned core, sim::Addr block,
                         const LookupResult& r);

    sim::MachineConfig cfg_;
    unsigned n_cores_;
    std::vector<PerCore> cores_;
    std::unique_ptr<SetAssocCache> llc_;
    sim::Dram dram_;
    sim::Cycle stats_epoch_start_ = 0;
    obs::EventTrace* trace_ = nullptr;
    obs::LifecycleTracker* lifecycle_ = nullptr;
};

} // namespace triage::cache

#endif // TRIAGE_CACHE_HIERARCHY_HPP
