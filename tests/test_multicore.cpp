/**
 * @file
 * Multi-core harness tests: shared-LLC behaviour, restart-on-finish,
 * per-core stats isolation, bandwidth contention, and per-core
 * metadata partitioning.
 */
#include <gtest/gtest.h>

#include "sim/multicore.hpp"
#include "stats/experiment.hpp"
#include "stats/metrics.hpp"
#include "workloads/spec.hpp"

using namespace triage;

namespace {

sim::MachineConfig
quiet_cfg()
{
    sim::MachineConfig cfg;
    cfg.l1_stride_prefetcher = false;
    return cfg;
}

/** Tiny strided workload with a parameterizable footprint. */
std::unique_ptr<sim::Workload>
stream_wl(const std::string& name, std::uint64_t blocks,
          std::uint64_t length)
{
    std::vector<sim::TraceRecord> recs;
    recs.reserve(length);
    for (std::uint64_t i = 0; i < length; ++i) {
        recs.push_back({0x400,
                        (i % blocks) * sim::BLOCK_SIZE, false, 2, 0});
    }
    return std::make_unique<sim::VectorWorkload>(name, std::move(recs));
}

} // namespace

TEST(MultiCore, CompletesAndCountsPerCore)
{
    sim::MultiCoreSystem sys(quiet_cfg(), 2);
    auto w0 = stream_wl("a", 64, 5000);
    auto w1 = stream_wl("b", 64, 5000);
    sys.bind(0, *w0);
    sys.bind(1, *w1);
    auto res = sys.run(2000, 4000);
    ASSERT_EQ(res.per_core.size(), 2u);
    for (const auto& c : res.per_core) {
        EXPECT_GE(c.mem_records, 4000u);
        EXPECT_GT(c.ipc(), 0.0);
    }
}

TEST(MultiCore, RestartOnFinishKeepsShortTraceRunning)
{
    // One workload is far shorter than the measurement window; the
    // harness must restart it rather than deadlock.
    sim::MultiCoreSystem sys(quiet_cfg(), 2);
    auto short_wl = stream_wl("short", 16, 500);
    auto long_wl = stream_wl("long", 1 << 16, 50000);
    sys.bind(0, *short_wl);
    sys.bind(1, *long_wl);
    auto res = sys.run(1000, 20000);
    EXPECT_GE(res.per_core[0].mem_records, 20000u);
}

TEST(MultiCore, SharedDramCreatesContention)
{
    // The same memory-bound benchmark alone vs with 7 co-runners: the
    // contended copy must be slower.
    auto run_cores = [&](unsigned cores) {
        sim::MultiCoreSystem sys(quiet_cfg(), cores);
        for (unsigned c = 0; c < cores; ++c) {
            auto wl = workloads::make_benchmark("mcf", 0.05);
            wl->set_instance(c);
            sys.bind(c, *wl);
        }
        auto res = sys.run(20000, 40000);
        return res.per_core[0].ipc();
    };
    double alone = run_cores(1);
    double contended = run_cores(8);
    EXPECT_LT(contended, alone * 0.95);
}

TEST(MultiCore, InstanceOffsetsPreventSharing)
{
    // Two copies of one benchmark with distinct instances must not
    // share LLC lines: the LLC should hold roughly twice the lines of
    // a single run (no constructive sharing).
    sim::MachineConfig cfg = quiet_cfg();
    sim::MultiCoreSystem sys(cfg, 2);
    for (unsigned c = 0; c < 2; ++c) {
        auto wl = workloads::make_benchmark("sphinx3", 0.05);
        wl->set_instance(c);
        sys.bind(c, *wl);
    }
    auto res = sys.run(10000, 30000);
    // Both cores see roughly equal miss counts — they do not prefetch
    // each other's data (which identical address streams would).
    auto m0 = res.per_core[0].l2.demand_misses;
    auto m1 = res.per_core[1].l2.demand_misses;
    EXPECT_GT(m0, 0u);
    EXPECT_GT(m1, 0u);
    EXPECT_LT(static_cast<double>(m0 > m1 ? m0 - m1 : m1 - m0),
              0.5 * static_cast<double>(m0 + m1));
}

TEST(MultiCore, PerCoreMetadataPartitionsAggregateInLlc)
{
    sim::MachineConfig cfg; // stride on, default
    sim::MultiCoreSystem sys(cfg, 2);
    sys.set_prefetcher(0, stats::make_prefetcher("triage_1MB"));
    sys.set_prefetcher(1, stats::make_prefetcher("triage_1MB"));
    for (unsigned c = 0; c < 2; ++c) {
        auto wl = workloads::make_benchmark("mcf", 0.05);
        wl->set_instance(c);
        sys.bind(c, *wl);
    }
    sys.run(20000, 30000);
    // 2 MB of metadata over a 4 MB/16-way shared LLC = 8 ways.
    EXPECT_EQ(sys.memory().metadata_ways(), 8u);
}

TEST(MultiCore, StatsClearedAtMeasurementStart)
{
    sim::MultiCoreSystem sys(quiet_cfg(), 2);
    auto w0 = stream_wl("a", 1 << 14, 100000);
    auto w1 = stream_wl("b", 1 << 14, 100000);
    sys.bind(0, *w0);
    sys.bind(1, *w1);
    auto res = sys.run(5000, 10000);
    // Measured records must reflect the measurement window only.
    for (const auto& c : res.per_core) {
        EXPECT_GE(c.mem_records, 10000u);
        EXPECT_LT(c.mem_records, 20000u);
    }
}

TEST(MultiCore, MixRunnerBuildsPerCorePrefetchers)
{
    stats::RunScale scale;
    scale.warmup_records = 5000;
    scale.measure_records = 10000;
    scale.workload_scale = 0.02;
    workloads::Mix mix{"mcf", "bwaves"};
    auto res = stats::run_mix(sim::MachineConfig{}, mix, "bo+triage_dyn",
                              scale);
    ASSERT_EQ(res.per_core.size(), 2u);
    // Both cores trained their own hybrid prefetcher.
    EXPECT_GT(res.per_core[0].l2pf.train_events, 0u);
    EXPECT_GT(res.per_core[1].l2pf.train_events, 0u);
}

TEST(MultiCore, QuantumIsPartOfTheSemantics)
{
    // The quantum bounds cross-core skew, so a different quantum is a
    // different interleaving and a different result — which is why it
    // is part of the JobKey — while a repeat run is bit-identical.
    auto run_quantum = [](sim::Cycle quantum) {
        sim::MultiCoreSystem sys(sim::MachineConfig{}, 2);
        const char* mix[] = {"mcf", "omnetpp"};
        for (unsigned c = 0; c < 2; ++c) {
            sys.set_prefetcher(c, stats::make_prefetcher("triage_dyn", 4));
            auto wl = workloads::make_benchmark(mix[c]);
            wl->set_instance(c);
            sys.bind(c, *wl);
        }
        return sys.run(8000, 30000, quantum);
    };
    const sim::RunResult q1 = run_quantum(1000);
    const sim::RunResult again = run_quantum(1000);
    const sim::RunResult q5 = run_quantum(5000);
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_EQ(q1.per_core[c].cycles, again.per_core[c].cycles);
        EXPECT_EQ(q1.per_core[c].l2.demand_misses,
                  again.per_core[c].l2.demand_misses);
    }
    EXPECT_EQ(q1.llc.demand_misses, again.llc.demand_misses);
    EXPECT_EQ(q1.traffic.total(), again.traffic.total());
    EXPECT_EQ(q1.span, again.span);
    EXPECT_NE(q1.per_core[0].cycles, q5.per_core[0].cycles);
}
