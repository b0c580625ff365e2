/**
 * @file
 * Focused tests for MISB internals: the metadata cache, the off-chip
 * granule table, structural stream allocation, remap confidence,
 * stream buffers, and traffic accounting invariants.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "prefetch/misb.hpp"
#include "sim/snapshot.hpp"
#include "util/rng.hpp"

using namespace triage;
using namespace triage::prefetch;

namespace {

class Host final : public PrefetchHost
{
  public:
    std::vector<sim::Addr> issued;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    PfOutcome
    issue_prefetch(unsigned, sim::Addr block, sim::Cycle,
                   Prefetcher*) override
    {
        issued.push_back(block);
        return PfOutcome::IssuedToDram;
    }
    sim::Cycle llc_latency() const override { return 20; }
    void count_metadata_llc_access(unsigned, bool) override {}
    sim::Cycle
    offchip_metadata_access(unsigned, sim::Cycle now, std::uint32_t,
                            bool is_write, bool) override
    {
        (is_write ? writes : reads) += 1;
        return now + 170;
    }
    void request_metadata_capacity(unsigned, std::uint64_t,
                                   sim::Cycle) override
    {}
};

TrainEvent
miss(sim::Pc pc, sim::Addr block)
{
    TrainEvent ev;
    ev.pc = pc;
    ev.block = block;
    ev.l2_hit = false;
    return ev;
}

} // namespace

TEST(MetadataCache, HitAfterInsert)
{
    MetadataCache c(64, 8);
    EXPECT_FALSE(c.find(42).has_value());
    c.insert(42, 7, false);
    auto v = c.find(42);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(MetadataCache, UpdateKeepsOneCopy)
{
    MetadataCache c(64, 8);
    c.insert(42, 7, false);
    c.insert(42, 9, true);
    auto v = c.find(42);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 9u);
}

TEST(MetadataCache, EvictionReportsDirty)
{
    MetadataCache c(8, 8); // one set
    for (std::uint64_t k = 0; k < 8; ++k)
        c.insert(k * 64, k, true);
    auto ev = c.insert(999 * 64, 1, false); // evicts the LRU entry
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(MetadataCache, LruOrderRespected)
{
    MetadataCache c(8, 8);
    for (std::uint64_t k = 0; k < 8; ++k)
        c.insert(k, k, false);
    c.find(0); // refresh key 0
    auto ev = c.insert(100, 1, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.key, 1u); // key 1 is now the LRU
}

namespace {

constexpr std::uint64_t NO_KEY = ~std::uint64_t{0};

/** Restore a one-set MetadataCache from explicit per-way state. */
void
load_ways(MetadataCache& c, const std::vector<std::uint64_t>& keys,
          const std::vector<std::uint64_t>& lru)
{
    sim::Snapshot save;
    save.section("misb.mdcache");
    std::uint64_t n = keys.size();
    save.io(n);
    for (std::size_t w = 0; w < keys.size(); ++w) {
        std::uint64_t key = keys[w] == NO_KEY ? 0 : keys[w];
        std::uint64_t value = 0;
        std::uint64_t stamp = lru[w];
        bool dirty = false;
        bool valid = keys[w] != NO_KEY;
        save.io(key);
        save.io(value);
        save.io(stamp);
        save.io(dirty);
        save.io(valid);
    }
    std::uint64_t clock = 100, hits = 0, misses = 0;
    save.io(clock);
    save.io(hits);
    save.io(misses);
    sim::Snapshot load;
    ASSERT_TRUE(sim::Snapshot::open(save.seal(1, "t"), 1, "t", load));
    c.checkpoint(load);
}

/** Per-way keys of a one-set MetadataCache (NO_KEY = invalid way). */
std::vector<std::uint64_t>
ways_of(MetadataCache& c)
{
    sim::Snapshot save;
    c.checkpoint(save);
    sim::Snapshot load;
    EXPECT_TRUE(sim::Snapshot::open(save.seal(1, "t"), 1, "t", load));
    load.section("misb.mdcache");
    std::uint64_t n = 0;
    load.io(n);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t w = 0; w < n; ++w) {
        std::uint64_t key = 0, value = 0, stamp = 0;
        bool dirty = false, valid = false;
        load.io(key);
        load.io(value);
        load.io(stamp);
        load.io(dirty);
        load.io(valid);
        keys.push_back(valid ? key : NO_KEY);
    }
    return keys;
}

} // namespace

TEST(MetadataCache, VictimIsLastInvalidWay)
{
    MetadataCache c(8, 8); // one set
    load_ways(c, {10, NO_KEY, 12, 13, NO_KEY, 15, 16, 17},
              {1, 0, 2, 3, 0, 4, 5, 6});
    EXPECT_FALSE(c.insert(20, 0, false).valid);
    EXPECT_EQ(ways_of(c),
              (std::vector<std::uint64_t>{10, NO_KEY, 12, 13, 20, 15, 16,
                                          17}));
    EXPECT_FALSE(c.insert(21, 0, false).valid);
    EXPECT_EQ(ways_of(c)[1], 21u);
    // Full set: the LRU way (key 10, stamp 1) goes next.
    auto ev = c.insert(22, 0, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.key, 10u);
    EXPECT_EQ(ways_of(c)[0], 22u);
}

TEST(MetadataCache, VictimIsFirstMinimumLruWay)
{
    MetadataCache c(8, 8);
    // Stamps 3 tie at ways 1, 3 and 5: the lowest way loses.
    load_ways(c, {10, 11, 12, 13, 14, 15, 16, 17},
              {5, 3, 9, 3, 7, 3, 8, 6});
    auto ev = c.insert(20, 0, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.key, 11u);
    EXPECT_EQ(ways_of(c),
              (std::vector<std::uint64_t>{10, 20, 12, 13, 14, 15, 16,
                                          17}));
    ev = c.insert(21, 0, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.key, 13u);
}

TEST(GranuleTable, MatchesUnorderedMapReference)
{
    util::Rng rng(0x6d697362);
    GranuleTable t;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::unordered_set<std::uint64_t> ref_conf;
    // Keys drawn from a few dense regions plus sparse outliers, so rows
    // fill partially and fully and values get overwritten.
    auto draw = [&]() -> std::uint64_t {
        switch (rng.next_below(3)) {
        case 0:
            return rng.next_below(200);
        case 1:
            return (1ull << 40) + rng.next_below(5000);
        default:
            return rng.next_u64() >> 4;
        }
    };
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = draw();
        switch (rng.next_below(5)) {
        case 0:
        case 1: {
            const std::uint64_t v = rng.next_u64() >> 1;
            t.set(k, v);
            ref[k] = v;
            break;
        }
        case 2:
            t.set_confident(k);
            ref_conf.insert(k);
            break;
        case 3:
            EXPECT_EQ(t.clear_confident(k), ref_conf.erase(k) > 0);
            break;
        default: {
            const std::uint64_t* v = t.find(k);
            auto it = ref.find(k);
            ASSERT_EQ(v != nullptr, it != ref.end()) << k;
            if (v != nullptr)
                EXPECT_EQ(*v, it->second);
            EXPECT_EQ(t.confident(k), ref_conf.count(k) > 0);
        }
        }
    }
    ASSERT_EQ(t.size(), ref.size());

    // Whole-table enumeration: every pair, ascending key order.
    const std::map<std::uint64_t, std::uint64_t> sorted(ref.begin(),
                                                        ref.end());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    t.for_each([&](std::uint64_t k, std::uint64_t v) {
        seen.emplace_back(k, v);
    });
    EXPECT_EQ(seen, (std::vector<std::pair<std::uint64_t, std::uint64_t>>(
                        sorted.begin(), sorted.end())));

    // Row enumeration over arbitrary windows (granule-aligned or not,
    // one row or several).
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t first =
            i % 2 == 0 ? rng.next_below(220) : draw();
        const std::uint64_t n = 1 + rng.next_below(70);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> got, want;
        t.for_range(first, n, [&](std::uint64_t k, std::uint64_t v) {
            got.emplace_back(k, v);
        });
        for (auto it = sorted.lower_bound(first);
             it != sorted.end() && it->first < first + n; ++it)
            want.emplace_back(it->first, it->second);
        ASSERT_EQ(got, want) << first << "+" << n;
    }

    // Snapshot round trip restores every pair and confidence bit, and
    // re-saving reproduces the same bytes.
    sim::Snapshot save;
    t.checkpoint(save);
    const sim::SnapshotBlob blob = save.seal(1, "t");
    sim::Snapshot load;
    ASSERT_TRUE(sim::Snapshot::open(blob, 1, "t", load));
    GranuleTable back;
    back.set(7, 7); // stale state a restore must drop
    back.checkpoint(load);
    EXPECT_TRUE(load.exhausted());
    ASSERT_EQ(back.size(), ref.size());
    for (const auto& [k, v] : ref) {
        ASSERT_NE(back.find(k), nullptr);
        EXPECT_EQ(*back.find(k), v);
    }
    for (std::uint64_t k : ref_conf)
        EXPECT_TRUE(back.confident(k));
    sim::Snapshot resave;
    back.checkpoint(resave);
    EXPECT_EQ(resave.seal(1, "t"), blob);
}

TEST(GranuleTable, EqualTablesSerializeIdentically)
{
    // Same contents, opposite insertion orders (different row pools).
    GranuleTable a, b;
    for (std::uint64_t k = 0; k < 100; ++k) {
        a.set(k * 37, k);
        b.set((99 - k) * 37, 99 - k);
    }
    a.set_confident(37);
    b.set_confident(37);
    sim::Snapshot sa, sb;
    a.checkpoint(sa);
    b.checkpoint(sb);
    EXPECT_EQ(sa.seal(1, "t"), sb.seal(1, "t"));
}

TEST(Misb, PsKeysAreEveryTrainedBlock)
{
    // MISB's Bloom filter ("is this block tracked?") is the PS key set:
    // a block gets a PS entry exactly when it is the A or B of a
    // PC-localized pair. With fewer PCs than training-unit entries no
    // PC is ever evicted, so the pairs are known exactly here.
    util::Rng rng(0x70736b);
    Misb pf;
    Host host;
    std::unordered_map<sim::Pc, sim::Addr> last;
    std::unordered_set<std::uint64_t> trained;
    for (int i = 0; i < 30000; ++i) {
        const sim::Pc pc = 0x400 + 4 * rng.next_below(48);
        const sim::Addr block = rng.next_below(3) == 0
                                    ? rng.next_below(1u << 20)
                                    : 5000 + rng.next_below(3000);
        pf.train(miss(pc, block), host);
        auto it = last.find(pc);
        if (it != last.end() && it->second != block) {
            trained.insert(it->second);
            trained.insert(block);
        }
        last[pc] = block;
    }
    std::unordered_set<std::uint64_t> ps_keys;
    pf.ps_table().for_each(
        [&](std::uint64_t k, std::uint64_t) { ps_keys.insert(k); });
    EXPECT_EQ(ps_keys, trained);
    EXPECT_EQ(pf.ps_table().size(), trained.size());
}

TEST(Misb, StreamFollowsAcrossManySteps)
{
    Misb pf;
    Host host;
    // One PC, a long fixed irregular sequence, repeated.
    std::vector<sim::Addr> seq;
    for (int i = 0; i < 600; ++i)
        seq.push_back(1000 + ((i * 7919) % 600));
    for (int pass = 0; pass < 3; ++pass)
        for (auto a : seq)
            pf.train(miss(0x4, a), host);
    // On the next pass nearly every trigger predicts the successor.
    host.issued.clear();
    std::unordered_set<sim::Addr> expected;
    for (int i = 0; i < 100; ++i) {
        pf.train(miss(0x4, seq[i]), host);
        expected.insert(seq[i + 1]);
    }
    EXPECT_GT(host.issued.size(), 80u);
    std::size_t matched = 0;
    for (auto a : host.issued)
        matched += expected.count(a);
    EXPECT_GT(matched, host.issued.size() * 8 / 10);
}

TEST(Misb, RemapConfidenceResistsAlternation)
{
    Misb pf;
    Host host;
    // Address 50 alternates successors: (50 -> A) and (50 -> B).
    // With 1-bit remap confidence the mapping must not churn the
    // structural space every occurrence: writes stay bounded.
    for (int i = 0; i < 200; ++i) {
        pf.train(miss(0x4, 50), host);
        pf.train(miss(0x4, i % 2 == 0 ? 111 : 222), host);
        pf.train(miss(0x4, 999), host);
    }
    // Without confidence this would be ~400 remaps (each 2 updates);
    // with it, remaps happen at most every other round.
    EXPECT_LT(pf.stats().meta_offchip_writes, 150u);
}

TEST(Misb, StreamLengthBoundaryStartsNewChunk)
{
    MisbConfig cfg;
    cfg.stream_length = 4; // tiny chunks to hit the boundary quickly
    Misb pf(cfg);
    Host host;
    for (int pass = 0; pass < 4; ++pass)
        for (sim::Addr a = 10; a < 30; ++a)
            pf.train(miss(0x4, a), host);
    host.issued.clear();
    for (sim::Addr a = 10; a < 29; ++a)
        pf.train(miss(0x4, a), host);
    // Predictions continue across chunk boundaries (new chunks are
    // linked by retraining), covering most of the walk.
    EXPECT_GT(host.issued.size(), 10u);
}

TEST(Misb, ChargeTimeOffStillCountsTraffic)
{
    MisbConfig cfg;
    cfg.charge_time = false;
    Misb pf(cfg);
    Host host;
    for (int pass = 0; pass < 2; ++pass)
        for (int i = 0; i < 5000; ++i)
            pf.train(miss(0x4, (i * 2654435761u) % 100000), host);
    EXPECT_GT(host.reads + host.writes, 100u);
}

TEST(Misb, DegreeWalksStructuralSpace)
{
    MisbConfig cfg;
    cfg.degree = 4;
    Misb pf(cfg);
    Host host;
    for (int pass = 0; pass < 3; ++pass)
        for (sim::Addr a = 100; a < 140; ++a)
            pf.train(miss(0x4, a), host);
    host.issued.clear();
    pf.train(miss(0x4, 100), host);
    ASSERT_GE(host.issued.size(), 4u);
    EXPECT_EQ(host.issued[0], 101u);
    EXPECT_EQ(host.issued[3], 104u);
}
