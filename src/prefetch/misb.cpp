#include "prefetch/misb.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/log.hpp"
#include "util/simd_probe.hpp"

namespace triage::prefetch {

MetadataCache::MetadataCache(std::uint32_t entries, std::uint32_t ways)
    : sets_(entries / ways), ways_(ways),
      entries_(static_cast<std::size_t>(entries))
{
    TRIAGE_ASSERT(util::is_pow2(sets_), "metadata cache sets");
}

std::optional<std::uint64_t>
MetadataCache::find(std::uint64_t key)
{
    std::size_t set = util::mix64(key) & (sets_ - 1);
    Entry* row = &entries_[set * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].key == key) {
            row[w].lru = ++clock_;
            ++hits_;
            return row[w].value;
        }
    }
    ++misses_;
    return std::nullopt;
}

MetadataCache::Evicted
MetadataCache::insert(std::uint64_t key, std::uint64_t value, bool dirty)
{
    std::size_t set = util::mix64(key) & (sets_ - 1);
    Entry* row = &entries_[set * ways_];
    Entry* victim = &row[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].key == key) {
            row[w].value = value;
            row[w].dirty |= dirty;
            row[w].lru = ++clock_;
            return {};
        }
        if (!row[w].valid)
            victim = &row[w];
        else if (victim->valid && row[w].lru < victim->lru)
            victim = &row[w];
    }
    Evicted ev;
    if (victim->valid)
        ev = {true, victim->dirty, victim->key, victim->value};
    *victim = {key, value, ++clock_, dirty, true};
    return ev;
}

GranuleTable::Row&
GranuleTable::row_ref(std::uint64_t granule)
{
    if (const std::uint32_t* ri = index_.find(granule))
        return row_at(*ri);
    if (rows_ == chunks_.size() * CHUNK_ROWS)
        chunks_.push_back(std::make_unique<Row[]>(CHUNK_ROWS));
    index_.ref(granule) = rows_;
    Row& r = row_at(rows_++);
    r = Row{};
    return r;
}

std::vector<std::uint64_t>
GranuleTable::sorted_granules() const
{
    std::vector<std::uint64_t> granules;
    granules.reserve(index_.size());
    index_.for_each(
        [&](std::uint64_t g, std::uint32_t) { granules.push_back(g); });
    std::sort(granules.begin(), granules.end());
    return granules;
}

void
GranuleTable::clear()
{
    index_.clear();
    rows_ = 0;
    size_ = 0;
}

void
GranuleTable::checkpoint(sim::Snapshot& s)
{
    s.section("misb.granules");
    std::uint64_t n = size_;
    s.io(n);
    if (s.saving()) {
        std::vector<std::uint64_t> confident;
        for (std::uint64_t g : sorted_granules()) {
            const Row& r = row_at(*index_.find(g));
            for (std::uint32_t m = r.present; m != 0; m &= m - 1) {
                const auto slot = static_cast<unsigned>(std::countr_zero(m));
                std::uint64_t k = g * ROW_ENTRIES + slot;
                std::uint64_t v = r.value[slot];
                s.io_pod(k);
                s.io_pod(v);
            }
            for (std::uint32_t m = r.confident; m != 0; m &= m - 1) {
                confident.push_back(
                    g * ROW_ENTRIES +
                    static_cast<unsigned>(std::countr_zero(m)));
            }
        }
        std::uint64_t nc = confident.size();
        s.io(nc);
        for (std::uint64_t k : confident)
            s.io_pod(k);
        return;
    }
    clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t k = 0, v = 0;
        s.io_pod(k);
        s.io_pod(v);
        set(k, v);
    }
    std::uint64_t confident = 0;
    s.io(confident);
    for (std::uint64_t i = 0; i < confident; ++i) {
        std::uint64_t k = 0;
        s.io_pod(k);
        set_confident(k);
    }
}

MisbConfig
isb_config(std::uint32_t degree)
{
    MisbConfig cfg;
    cfg.degree = degree;
    cfg.granule_entries = 64; // page-granular metadata movement
    cfg.metadata_prefetch = false;
    cfg.stream_ps_charge = false; // page residency covers the stream
    cfg.display_name = "isb";
    return cfg;
}

Misb::Misb(MisbConfig cfg)
    : cfg_(cfg),
      ps_cache_(cfg.ps_cache_entries, cfg.cache_ways),
      sp_cache_(cfg.sp_cache_entries, cfg.cache_ways),
      tu_(cfg.training_unit_entries),
      stream_expected_(32, INVALID),
      stream_structural_(32),
      stream_lru_(32),
      name_(cfg.display_name)
{
}

void
Misb::handle_eviction(const MetadataCache::Evicted& ev_entry,
                      const TrainEvent& ev, PrefetchHost& host)
{
    if (!ev_entry.valid || !ev_entry.dirty)
        return;
    // Fine-grained metadata management (MISB's central idea): dirty
    // 4-byte entries coalesce in a write buffer and drain to DRAM one
    // 64 B burst per granule_entries evictions, instead of a full line
    // per entry.
    if (++pending_dirty_ >= cfg_.granule_entries) {
        pending_dirty_ = 0;
        ++stats_.meta_offchip_writes;
        host.offchip_metadata_access(ev.core, ev.now, sim::BLOCK_SIZE,
                                     true, cfg_.charge_time);
    }
}

sim::Cycle
Misb::fetch_granule(bool is_ps, std::uint64_t first_key,
                    const TrainEvent& ev, PrefetchHost& host)
{
    // A granule of granule_entries 4-byte entries moves in 64 B bursts
    // (one burst — one table row — for MISB's 16-entry granules, four
    // for ISB's pages).
    std::uint64_t base =
        first_key / cfg_.granule_entries * cfg_.granule_entries;
    std::uint32_t bursts =
        std::max(1u, cfg_.granule_entries * 4 / 64);
    stats_.meta_offchip_reads += bursts;
    sim::Cycle done = host.offchip_metadata_access(
        ev.core, ev.now, bursts * sim::BLOCK_SIZE, false,
        cfg_.charge_time);
    MetadataCache& mcache = is_ps ? ps_cache_ : sp_cache_;
    (is_ps ? ps_ : sp_).for_range(
        base, cfg_.granule_entries,
        [&](std::uint64_t key, std::uint64_t value) {
            handle_eviction(mcache.insert(key, value, false), ev, host);
        });
    return done;
}

std::uint64_t
Misb::ps_lookup(sim::Addr phys, const TrainEvent& ev, PrefetchHost& host,
                sim::Cycle& avail)
{
    avail = ev.now;
    if (auto v = ps_cache_.find(phys))
        return *v;
    // Bloom filter: untracked addresses never go off chip.
    const std::uint64_t* mapped = ps_.find(phys);
    if (mapped == nullptr)
        return INVALID;
    const std::uint64_t structural = *mapped;
    avail = fetch_granule(true, phys, ev, host);
    return structural;
}

sim::Addr
Misb::sp_lookup(std::uint64_t structural, const TrainEvent& ev,
                PrefetchHost& host, sim::Cycle& avail)
{
    avail = ev.now;
    if (auto v = sp_cache_.find(structural))
        return *v;
    const std::uint64_t* mapped = sp_.find(structural);
    if (mapped == nullptr)
        return INVALID;
    const sim::Addr phys = *mapped;
    avail = fetch_granule(false, structural, ev, host);
    return phys;
}

void
Misb::ps_update(sim::Addr phys, std::uint64_t structural,
                const TrainEvent& ev, PrefetchHost& host)
{
    ps_.set(phys, structural);
    handle_eviction(ps_cache_.insert(phys, structural, true), ev, host);
}

void
Misb::sp_update(std::uint64_t structural, sim::Addr phys,
                const TrainEvent& ev, PrefetchHost& host)
{
    sp_.set(structural, phys);
    handle_eviction(sp_cache_.insert(structural, phys, true), ev, host);
}

std::uint32_t
Misb::stream_victim() const
{
    const auto n = static_cast<std::uint32_t>(stream_expected_.size());
    for (std::uint32_t i = n; i > 0; --i) {
        if (stream_expected_[i - 1] == INVALID)
            return i - 1;
    }
    return util::simd::min_index(stream_lru_.data(), n);
}

void
Misb::train(const TrainEvent& ev, PrefetchHost& host)
{
    ++stats_.train_events;
    if (ev.l2_hit && !ev.was_prefetch_hit)
        return;

    // --- Predict from the current access. An active stream buffer
    // supplies the structural address without any PS access; only
    // stream starts pay for a PS lookup.
    sim::Cycle ps_avail = ev.now;
    std::uint64_t s = INVALID;
    const std::uint32_t hit = util::simd::find_first_eq(
        stream_expected_.data(),
        static_cast<std::uint32_t>(stream_expected_.size()), ev.block);
    const bool from_stream = hit != util::simd::NPOS;
    if (from_stream) {
        s = stream_structural_[hit];
        stream_lru_[hit] = ++stream_clock_;
        // The stream advanced onto this trigger. MISB's metadata
        // prefetcher staged the trigger's PS entry ahead of time —
        // which hides the latency (the prediction below proceeds at
        // ev.now) but not the traffic: PS entries live in physical
        // address space with no locality, so each staged trigger cost
        // one off-chip burst unless it was still cached.
        if (!ps_cache_.find(ev.block)) {
            if (cfg_.stream_ps_charge) {
                ++stats_.meta_offchip_reads;
                host.offchip_metadata_access(ev.core, ev.now,
                                             sim::BLOCK_SIZE, false,
                                             cfg_.charge_time);
            }
            handle_eviction(ps_cache_.insert(ev.block, s, false), ev,
                            host);
        }
    } else {
        s = ps_lookup(ev.block, ev, host, ps_avail);
    }
    if (s != INVALID) {
        sim::Addr first_target = INVALID;
        for (std::uint32_t d = 1; d <= cfg_.degree; ++d) {
            sim::Cycle sp_avail = ps_avail;
            sim::Addr target = sp_lookup(s + d, ev, host, sp_avail);
            if (target == INVALID)
                break;
            if (d == 1)
                first_target = target;
            if (target != ev.block)
                send(ev, host, target, std::max(ps_avail, sp_avail));
        }
        // Arm / advance the stream buffer for the predicted successor.
        if (first_target != INVALID) {
            const std::uint32_t i = from_stream ? hit : stream_victim();
            stream_expected_[i] = first_target;
            stream_structural_[i] = s + 1;
            stream_lru_[i] = ++stream_clock_;
        } else if (from_stream) {
            // The stream ran off its mapped chunk.
            stream_expected_[hit] = INVALID;
        }
        if (cfg_.metadata_prefetch &&
            (s + cfg_.degree + 1) % cfg_.granule_entries ==
                cfg_.granule_entries / 2) {
            // Walk-ahead metadata prefetch, once per granule per
            // stream: stage the next SP granule so upcoming lookups
            // hit on chip.
            std::uint64_t key =
                (s / cfg_.granule_entries + 1) * cfg_.granule_entries;
            if (sp_.contains(key) && !sp_cache_.find(key))
                fetch_granule(false, key, ev, host);
        }
    }

    // --- Train on the PC-localized pair (last, current).
    const std::optional<sim::Addr> last = tu_.update(ev.pc, ev.block);
    if (!last)
        return;
    sim::Addr a = *last;
    sim::Addr b = ev.block;

    sim::Cycle t_ignore = ev.now;
    std::uint64_t sa = ps_lookup(a, ev, host, t_ignore);
    if (sa == INVALID) {
        // Start a new structural stream for this correlation.
        sa = next_structural_;
        next_structural_ += cfg_.stream_length;
        ps_update(a, sa, ev, host);
        sp_update(sa, a, ev, host);
    }
    std::uint64_t expected = sa + 1;
    if (expected % cfg_.stream_length == 0) {
        // Stream chunk exhausted: B begins a new stream.
        expected = next_structural_;
        next_structural_ += cfg_.stream_length;
    }
    std::uint64_t sb = ps_lookup(b, ev, host, t_ignore);
    if (sb == expected) {
        ps_.set_confident(b);
    } else if (sb != INVALID && sb % cfg_.stream_length == 0) {
        // B anchors its own stream chunk (a loop header or stream
        // head). Re-mapping it would shift its whole stream one slot
        // every lap of a cyclic structure; ISB leaves heads in place
        // and lets A's chunk simply end here.
    } else if (sb != INVALID && ps_.clear_confident(b)) {
        // First disagreement: keep the existing mapping (confidence
        // bit cleared); a second one will trigger the remap.
    } else {
        ps_update(b, expected, ev, host);
        sp_update(expected, b, ev, host);
        ps_.set_confident(b);
    }
}

} // namespace triage::prefetch
