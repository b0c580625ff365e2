/**
 * @file
 * Tests for sim::ReadAheadWorkload (src/sim/read_ahead.hpp): the
 * wrapped record stream equals the unwrapped one bit for bit (synthetic
 * analog, gzip .tria trace, vectors around the block size, through the
 * EOF/reset passes of CoreModel::run_records and a cursor restore),
 * a reset after a pass's last record restarts the stream, passes
 * shorter than a block read inline, skip() before the first read
 * reaches the inner workload, the producer never reads past its limit,
 * an inner exception surfaces at its record, destruction joins the
 * producer, and a mid-stream reset()/clone() dies.
 */
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/hierarchy.hpp"
#include "frontend/frontend.hpp"
#include "sim/cpu.hpp"
#include "sim/read_ahead.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_io.hpp"

using namespace triage;

namespace {

constexpr std::size_t kBlock = sim::ReadAheadWorkload::kBlockRecords;

/** Forwards to an inner workload and keeps every record it hands out. */
class Recorder final : public sim::Workload
{
  public:
    explicit Recorder(sim::Workload& inner) : inner_(inner) {}

    void reset() override { inner_.reset(); }

    bool
    next(sim::TraceRecord& out) override
    {
        if (!inner_.next(out))
            return false;
        seen.push_back(out);
        return true;
    }

    std::uint64_t skip(std::uint64_t n) override { return inner_.skip(n); }
    const std::string& name() const override { return inner_.name(); }
    std::unique_ptr<sim::Workload> clone() const override { return nullptr; }

    std::vector<sim::TraceRecord> seen;

  private:
    sim::Workload& inner_;
};

/** What a core saw of a workload: the records and the timing result. */
struct CoreRun {
    std::vector<sim::TraceRecord> records;
    std::uint64_t cursor = 0;
    std::uint64_t instructions = 0;
    sim::Cycle end = 0;
};

/** Run @p n records of @p wl through a fresh core (restoring its
 *  cursor to @p restore_at first when non-zero). */
CoreRun
through_core(sim::Workload& wl, std::uint64_t n,
             std::uint64_t restore_at = 0)
{
    sim::MachineConfig cfg;
    cache::MemorySystem mem(cfg, 1);
    sim::CoreModel core(cfg, mem, 0);
    Recorder rec(wl);
    rec.reset();
    core.bind(&rec);
    if (restore_at != 0)
        core.restore_workload_position(restore_at);
    core.run_records(n);
    return {std::move(rec.seen), core.workload_records(),
            core.stats().instructions, core.drain()};
}

void
expect_same_records(const std::vector<sim::TraceRecord>& a,
                    const std::vector<sim::TraceRecord>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc) << "record " << i;
        ASSERT_EQ(a[i].addr, b[i].addr) << "record " << i;
        ASSERT_EQ(a[i].is_write, b[i].is_write) << "record " << i;
        ASSERT_EQ(a[i].nonmem_before, b[i].nonmem_before) << "record " << i;
        ASSERT_EQ(a[i].dep_distance, b[i].dep_distance) << "record " << i;
    }
}

void
expect_same_run(const CoreRun& wrapped, const CoreRun& plain)
{
    expect_same_records(wrapped.records, plain.records);
    EXPECT_EQ(wrapped.cursor, plain.cursor);
    EXPECT_EQ(wrapped.instructions, plain.instructions);
    EXPECT_EQ(wrapped.end, plain.end);
}

std::vector<sim::TraceRecord>
vector_records(std::size_t n)
{
    std::vector<sim::TraceRecord> recs;
    for (std::size_t i = 0; i < n; ++i) {
        recs.push_back({0x400 + (i % 7) * 4, 0x100000 + 64 * i * (i % 3 + 1),
                        i % 5 == 0, static_cast<std::uint8_t>(i % 4),
                        static_cast<std::uint16_t>(i % 3 == 0 ? 1 : 0)});
    }
    return recs;
}

std::unique_ptr<sim::ReadAheadWorkload>
wrap(std::unique_ptr<sim::Workload> inner, std::uint64_t limit)
{
    return std::make_unique<sim::ReadAheadWorkload>(std::move(inner), limit);
}

/** Calls into a Counting workload, readable from any thread. */
struct Counts {
    std::atomic<std::uint64_t> nexts{0};
    /** next() calls made off the thread that built the workload. */
    std::atomic<std::uint64_t> producer_nexts{0};
    std::atomic<std::uint64_t> skips{0};
    std::atomic<bool> alive{false};
};

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/** Stream of @p length records (record i has address 64 * i) that
 *  counts calls and optionally throws on record @p throw_at. */
class Counting final : public sim::Workload
{
  public:
    explicit Counting(Counts& c, std::uint64_t throw_at = kNever,
                      std::uint64_t length = kNever)
        : c_(c), throw_at_(throw_at), length_(length)
    {
        c_.alive = true;
    }
    ~Counting() override { c_.alive = false; }

    void reset() override { i_ = 0; }

    bool
    next(sim::TraceRecord& out) override
    {
        ++c_.nexts;
        if (std::this_thread::get_id() != home_)
            ++c_.producer_nexts;
        if (i_ == throw_at_)
            throw std::runtime_error("bad record " + std::to_string(i_));
        if (i_ == length_)
            return false;
        out = {0x400, 64 * i_, false, 0, 0};
        ++i_;
        return true;
    }

    std::uint64_t
    skip(std::uint64_t n) override
    {
        ++c_.skips;
        i_ += n;
        return n;
    }

    const std::string& name() const override { return name_; }

    std::unique_ptr<sim::Workload>
    clone() const override
    {
        return std::make_unique<Counting>(c_, throw_at_, length_);
    }

  private:
    Counts& c_;
    std::uint64_t throw_at_;
    std::uint64_t length_;
    std::thread::id home_ = std::this_thread::get_id();
    std::uint64_t i_ = 0;
    std::string name_ = "counting";
};

} // namespace

TEST(ReadAhead, SyntheticAnalogMatchesUnwrapped)
{
    // mcf at scale 0.01 has 20000-record passes: 50000 records cross
    // two EOF/reset boundaries, and the analog's sequence counter
    // survives each reset.
    const std::uint64_t n = 50000;
    auto plain = workloads::make_benchmark("mcf", 0.01);
    auto wrapped = wrap(workloads::make_benchmark("mcf", 0.01), n);
    ASSERT_NE(plain, nullptr);
    EXPECT_EQ(wrapped->name(), plain->name());
    expect_same_run(through_core(*wrapped, n), through_core(*plain, n));
}

TEST(ReadAhead, GzipTriaMatchesUnwrapped)
{
    const std::string path = ::testing::TempDir() + "triage_ra.tria";
    {
        auto gen = workloads::make_benchmark("mcf", 0.01);
        ASSERT_EQ(workloads::save_trace(path, *gen, 6000), 6000u);
    }
    if (std::system(("gzip -kf '" + path + "' 2>/dev/null").c_str()) != 0)
        GTEST_SKIP() << "gzip tool unavailable";
    auto plain = frontend::open_trace(path + ".gz");
    auto inner = frontend::open_trace(path + ".gz");
    ASSERT_NE(plain, nullptr) << "gz backend: " << frontend::gz_backend();
    ASSERT_NE(inner, nullptr);
    const std::uint64_t n = 15000; // two and a half passes
    auto wrapped = wrap(std::move(inner), n);
    expect_same_run(through_core(*wrapped, n), through_core(*plain, n));
    std::remove((path + ".gz").c_str());
    std::remove(path.c_str());
}

TEST(ReadAhead, VectorsAroundTheBlockSizeMatchThroughPasses)
{
    for (std::size_t size : {std::size_t{0}, std::size_t{1}, kBlock - 1,
                             kBlock, kBlock + 1}) {
        SCOPED_TRACE("vector of " + std::to_string(size));
        const std::vector<sim::TraceRecord> recs = vector_records(size);
        const std::uint64_t n = 3 * size + 5;
        sim::VectorWorkload plain("v", recs);
        auto wrapped =
            wrap(std::make_unique<sim::VectorWorkload>("v", recs), n);
        // Two core runs per workload: the second starts from the first
        // one's cursor, after its reset.
        for (int run = 0; run < 2; ++run)
            expect_same_run(through_core(*wrapped, n),
                            through_core(plain, n));
    }
}

TEST(ReadAhead, ResetAfterTheLastRecordRestarts)
{
    // The caller resets after reading a whole pass but before the
    // next() that would report its end: the stream restarts.
    for (std::size_t size : {std::size_t{1}, kBlock - 1, kBlock}) {
        SCOPED_TRACE("vector of " + std::to_string(size));
        const std::vector<sim::TraceRecord> recs = vector_records(size);
        auto wl = wrap(std::make_unique<sim::VectorWorkload>("v", recs),
                       10 * size);
        std::vector<sim::TraceRecord> seen(size);
        for (int pass = 0; pass < 3; ++pass) {
            for (auto& r : seen)
                ASSERT_TRUE(wl->next(r)) << "pass " << pass;
            expect_same_records(seen, recs);
            wl->reset();
        }
    }
}

TEST(ReadAhead, PassesShorterThanABlockReadInline)
{
    Counts c;
    auto wl = wrap(std::make_unique<Counting>(c, kNever, 100), 1000);
    sim::TraceRecord r;
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < 100; ++i) {
            ASSERT_TRUE(wl->next(r));
            ASSERT_EQ(r.addr, 64 * i);
        }
        EXPECT_FALSE(wl->next(r));
        wl->reset();
    }
    // The first pass (100 records and its end) ran on the producer.
    EXPECT_EQ(c.producer_nexts.load(), 101u);
    EXPECT_EQ(c.nexts.load(), 3 * 101u);
}

TEST(ReadAhead, RestoredCursorMatchesUnwrapped)
{
    const std::vector<sim::TraceRecord> recs = vector_records(5000);
    const std::uint64_t at = 12345, n = 3000; // the restore wraps twice
    sim::VectorWorkload plain("v", recs);
    auto wrapped =
        wrap(std::make_unique<sim::VectorWorkload>("v", recs), at + n);
    const CoreRun w = through_core(*wrapped, n, at);
    const CoreRun p = through_core(plain, n, at);
    expect_same_run(w, p);
    EXPECT_EQ(w.cursor, at + n);
}

TEST(ReadAhead, SkipForwardsAndReadsStayWithinTheLimit)
{
    // 10000 is not a block multiple: a producer that ignored the limit
    // would finish the block holding record 10000 and overrun.
    const std::uint64_t skipped = 777, limit = 10000 + skipped;
    Counts c;
    {
        auto wl = wrap(std::make_unique<Counting>(c), limit);
        wl->reset();
        EXPECT_EQ(wl->skip(skipped), skipped);
        EXPECT_EQ(c.skips.load(), 1u);
        EXPECT_EQ(c.nexts.load(), 0u);
        sim::TraceRecord r;
        for (std::uint64_t i = skipped; i < limit; ++i) {
            ASSERT_TRUE(wl->next(r));
            ASSERT_EQ(r.addr, 64 * i);
        }
    }
    EXPECT_FALSE(c.alive.load());
    EXPECT_EQ(c.nexts.load(), limit - skipped);

    // Reads past the limit still match the inner stream, inline.
    Counts past;
    auto wl = wrap(std::make_unique<Counting>(past), kBlock);
    sim::TraceRecord r;
    for (std::uint64_t i = 0; i < kBlock + 10; ++i) {
        ASSERT_TRUE(wl->next(r));
        ASSERT_EQ(r.addr, 64 * i);
    }
    EXPECT_EQ(past.nexts.load(), kBlock + 10);
}

TEST(ReadAhead, InnerThrowSurfacesAtItsRecord)
{
    for (std::uint64_t k : {std::uint64_t{0}, std::uint64_t{kBlock - 1},
                            std::uint64_t{kBlock}, std::uint64_t{5000}}) {
        SCOPED_TRACE("throws at " + std::to_string(k));
        Counts c;
        auto wl = wrap(std::make_unique<Counting>(c, k), 20000);
        sim::TraceRecord r;
        for (std::uint64_t i = 0; i < k; ++i) {
            ASSERT_TRUE(wl->next(r));
            ASSERT_EQ(r.addr, 64 * i);
        }
        EXPECT_THROW(wl->next(r), std::runtime_error);
        EXPECT_EQ(c.nexts.load(), k + 1);
    }
}

TEST(ReadAhead, DestroyMidStreamJoinsProducer)
{
    Counts c;
    {
        auto wl = wrap(std::make_unique<Counting>(c), 1u << 30);
        sim::TraceRecord r;
        for (int i = 0; i < 10; ++i)
            ASSERT_TRUE(wl->next(r));
    }
    EXPECT_FALSE(c.alive.load());
    const std::uint64_t after = c.nexts.load();
    EXPECT_LE(after, sim::ReadAheadWorkload::kBlocks * kBlock);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(c.nexts.load(), after);
}

TEST(ReadAhead, MidStreamResetDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            Counts c;
            sim::ReadAheadWorkload wl(std::make_unique<Counting>(c), 100000);
            sim::TraceRecord r;
            wl.next(r);
            wl.reset();
        },
        "reset\\(\\) in mid-stream");
}

TEST(ReadAhead, CloneAfterFirstReadDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Counts c;
    sim::ReadAheadWorkload fresh(std::make_unique<Counting>(c), 100000);
    EXPECT_NE(fresh.clone(), nullptr); // before the first read: fine
    EXPECT_DEATH(
        {
            sim::ReadAheadWorkload wl(std::make_unique<Counting>(c), 100000);
            sim::TraceRecord r;
            wl.next(r);
            (void)wl.clone();
        },
        "clone\\(\\) in mid-stream");
}
