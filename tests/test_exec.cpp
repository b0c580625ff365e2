/**
 * @file
 * Tests for the declarative job model and the parallel lab scheduler:
 * JobKey identity, memoization, the serial-wrapper equivalence, measure
 * taps, and — the determinism contract — bit-identical results at any
 * worker count. These tests are also the TSan smoke target (see
 * README).
 */
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/lab.hpp"
#include "obs/observer.hpp"
#include "sim/read_ahead.hpp"
#include "stats/experiment.hpp"
#include "stats/metrics.hpp"
#include "triage/triage.hpp"
#include "verify/diff.hpp"
#include "workloads/mixes.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_io.hpp"

using namespace triage;

namespace {

stats::RunScale
tiny_scale()
{
    stats::RunScale s;
    s.warmup_records = 5000;
    s.measure_records = 15000;
    s.workload_scale = 0.1;
    return s;
}

exec::Job
bench_job(const std::string& bench, const std::string& pf,
          std::uint32_t degree = 1)
{
    exec::Job j;
    j.benchmark = bench;
    j.pf_spec = pf;
    j.degree = degree;
    j.scale = tiny_scale();
    return j;
}

/** Every counter the reports read, compared exactly. */
void
expect_identical(const sim::RunResult& a, const sim::RunResult& b)
{
    ASSERT_EQ(a.per_core.size(), b.per_core.size());
    for (std::size_t c = 0; c < a.per_core.size(); ++c) {
        const auto& x = a.per_core[c];
        const auto& y = b.per_core[c];
        EXPECT_EQ(x.instructions, y.instructions);
        EXPECT_EQ(x.mem_records, y.mem_records);
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.ipc(), y.ipc());
        EXPECT_EQ(x.coverage(), y.coverage());
        EXPECT_EQ(x.accuracy(), y.accuracy());
        EXPECT_EQ(x.l1.demand_hits, y.l1.demand_hits);
        EXPECT_EQ(x.l1.demand_misses, y.l1.demand_misses);
        EXPECT_EQ(x.l2.demand_hits, y.l2.demand_hits);
        EXPECT_EQ(x.l2.demand_misses, y.l2.demand_misses);
        EXPECT_EQ(x.l2pf.candidates, y.l2pf.candidates);
        EXPECT_EQ(x.l2pf.issued_to_dram, y.l2pf.issued_to_dram);
        EXPECT_EQ(x.l2pf.useful, y.l2pf.useful);
        EXPECT_EQ(x.energy.onchip_accesses, y.energy.onchip_accesses);
        EXPECT_EQ(x.energy.offchip_accesses, y.energy.offchip_accesses);
        EXPECT_EQ(x.avg_metadata_ways, y.avg_metadata_ways);
    }
    EXPECT_EQ(a.llc.demand_hits, b.llc.demand_hits);
    EXPECT_EQ(a.llc.demand_misses, b.llc.demand_misses);
    EXPECT_EQ(a.traffic.total(), b.traffic.total());
    for (unsigned t = 0; t < sim::NUM_TRAFFIC_CLASSES; ++t) {
        EXPECT_EQ(a.traffic.bytes[t], b.traffic.bytes[t]);
    }
    EXPECT_EQ(a.span, b.span);
}

/** Bit-identity over every field verify::diff_results compares. */
void
expect_same(const sim::RunResult& a, const sim::RunResult& b)
{
    const auto d = verify::diff_results(a, b);
    EXPECT_TRUE(d.empty()) << d.size() << " fields differ, first: "
                           << (d.empty() ? "" : d.front());
}

exec::Job
mix4_job(const std::string& pf)
{
    exec::Job j;
    j.mix = {"mcf", "omnetpp", "soplex_k", "xalancbmk"};
    j.pf_spec = pf;
    j.scale = tiny_scale();
    return j;
}

/** @p job measuring @p window records. */
exec::Job
at_window(exec::Job job, std::uint64_t window)
{
    job.scale.measure_records = window;
    return job;
}

/** Holds the first @p hold threads that pass() it until open(); any
 *  later ones pass straight through. */
class Gate
{
  public:
    explicit Gate(unsigned hold) : hold_(hold) {}

    void
    pass()
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (hold_ == 0)
            return;
        --hold_;
        ++held_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return open_; });
    }

    /** Block until @p n threads are held. */
    void
    wait_held(unsigned n)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return held_ == n; });
    }

    void
    open()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            open_ = true;
        }
        cv_.notify_all();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    unsigned hold_;
    unsigned held_ = 0;
    bool open_ = false;
};

/** @p job whose run stops at @p gate before it simulates anything (in
 *  its prefetcher factory), holding a Lab worker. */
exec::Job
gated(exec::Job job, const std::shared_ptr<Gate>& gate)
{
    const std::string pf = job.pf_spec;
    const std::uint32_t degree = job.degree;
    job.variant = "gated:" + pf;
    job.prefetcher_factory = [gate, pf, degree](unsigned) {
        gate->pass();
        return stats::make_prefetcher(pf, degree);
    };
    return job;
}

/** A workload that passes @p gate at its @p at-th record. */
class GatedWorkload final : public sim::Workload
{
  public:
    GatedWorkload(std::unique_ptr<sim::Workload> inner,
                  std::shared_ptr<Gate> gate, std::uint64_t at)
        : inner_(std::move(inner)), gate_(std::move(gate)), at_(at)
    {
    }

    void reset() override { inner_->reset(); }

    bool
    next(sim::TraceRecord& out) override
    {
        if (++count_ == at_)
            gate_->pass();
        return inner_->next(out);
    }

    const std::string& name() const override { return inner_->name(); }

    std::unique_ptr<sim::Workload>
    clone() const override
    {
        return std::make_unique<GatedWorkload>(inner_->clone(), gate_, at_);
    }

  private:
    std::unique_ptr<sim::Workload> inner_;
    std::shared_ptr<Gate> gate_;
    std::uint64_t at_;
    std::uint64_t count_ = 0;
};

} // namespace

TEST(JobKey, EqualJobsShareKeyAndHash)
{
    auto a = exec::key_of(bench_job("mcf", "triage_dyn"));
    auto b = exec::key_of(bench_job("mcf", "triage_dyn"));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.str(), b.str());
}

TEST(JobKey, DistinguishesEveryAxis)
{
    auto base = exec::key_of(bench_job("mcf", "triage_dyn"));
    EXPECT_NE(base, exec::key_of(bench_job("omnetpp", "triage_dyn")));
    EXPECT_NE(base, exec::key_of(bench_job("mcf", "bo")));
    EXPECT_NE(base, exec::key_of(bench_job("mcf", "triage_dyn", 4)));

    auto replica = bench_job("mcf", "triage_dyn");
    replica.replica = 1;
    EXPECT_NE(base, exec::key_of(replica));

    auto scaled = bench_job("mcf", "triage_dyn");
    scaled.scale.measure_records += 1;
    EXPECT_NE(base, exec::key_of(scaled));

    auto machine = bench_job("mcf", "triage_dyn");
    machine.config.l2_mshrs = 16;
    EXPECT_NE(base, exec::key_of(machine));

    auto quantum = bench_job("mcf", "triage_dyn");
    quantum.quantum = 5000;
    EXPECT_NE(base, exec::key_of(quantum));
}

TEST(JobKey, DerivedSeedVariesByReplica)
{
    auto a = bench_job("mcf", "triage_dyn");
    auto b = bench_job("mcf", "triage_dyn");
    b.replica = 1;
    EXPECT_NE(exec::key_of(a).derived_seed(),
              exec::key_of(b).derived_seed());
}

TEST(Lab, MemoizesByKey)
{
    exec::Lab lab({.jobs = 1});
    auto first = lab.submit(bench_job("mcf", "bo"));
    auto second = lab.submit(bench_job("mcf", "bo"));
    lab.wait_all();
    EXPECT_EQ(lab.runs_executed(), 1u);
    expect_identical(lab.result(first), lab.result(second));
}

TEST(Lab, DistinctKeysRunSeparately)
{
    exec::Lab lab({.jobs = 1});
    lab.submit(bench_job("mcf", "bo"));
    lab.submit(bench_job("mcf", "bo", 2));
    lab.wait_all();
    EXPECT_EQ(lab.runs_executed(), 2u);
}

TEST(Lab, ParallelMatchesSerial)
{
    // A small sweep: benchmarks x prefetchers, run serially and on four
    // workers. The determinism contract requires bit-identical results.
    const std::vector<std::string> benches = {"mcf", "libquantum"};
    const std::vector<std::string> pfs = {"none", "bo", "triage_dyn"};

    exec::Lab serial({.jobs = 1});
    exec::Lab parallel({.jobs = 4});
    std::vector<exec::Lab::JobId> s_ids, p_ids;
    for (const auto& b : benches) {
        for (const auto& pf : pfs) {
            s_ids.push_back(serial.submit(bench_job(b, pf)));
            p_ids.push_back(parallel.submit(bench_job(b, pf)));
        }
    }
    serial.wait_all();
    parallel.wait_all();
    EXPECT_EQ(parallel.workers(), 4u);
    ASSERT_EQ(s_ids.size(), p_ids.size());
    for (std::size_t i = 0; i < s_ids.size(); ++i) {
        expect_identical(serial.result(s_ids[i]),
                         parallel.result(p_ids[i]));
    }
}

TEST(Lab, ParallelMatchesSerialForMixes)
{
    workloads::Mix mix{"mcf", "libquantum"};
    auto make = [&](const std::string& pf) {
        exec::Job j;
        j.mix = mix;
        j.pf_spec = pf;
        j.scale = tiny_scale();
        return j;
    };
    exec::Lab serial({.jobs = 1});
    exec::Lab parallel({.jobs = 2});
    auto s1 = serial.submit(make("none"));
    auto s2 = serial.submit(make("triage_dyn"));
    auto p1 = parallel.submit(make("none"));
    auto p2 = parallel.submit(make("triage_dyn"));
    serial.wait_all();
    parallel.wait_all();
    expect_identical(serial.result(s1), parallel.result(p1));
    expect_identical(serial.result(s2), parallel.result(p2));
}

TEST(Lab, WrapperEquivalence)
{
    // stats::run_single is a thin wrapper over a one-job Lab; going
    // through exec directly must give the same numbers.
    sim::MachineConfig cfg;
    auto via_wrapper =
        stats::run_single(cfg, "mcf", "triage_dyn", tiny_scale());
    auto via_job = exec::run_job(bench_job("mcf", "triage_dyn"));
    expect_identical(via_wrapper, via_job);
}

TEST(Lab, ReplicasAreReproducibleButIndependent)
{
    auto r0 = bench_job("mcf", "triage_dyn");
    auto r1 = bench_job("mcf", "triage_dyn");
    r1.replica = 1;
    // Same replica twice: identical. Replica 0 keeps the canonical
    // benchmark seed, so it matches the replica-free result.
    expect_identical(exec::run_job(r1), exec::run_job(r1));
    expect_identical(exec::run_job(r0),
                     stats::run_single(sim::MachineConfig{}, "mcf",
                                       "triage_dyn", tiny_scale()));
}

TEST(Lab, ObsJobsBypassMemoization)
{
    // A memo hit would hand back a result without populating the
    // caller's bundle, so obs-carrying jobs always run.
    exec::Lab lab({.jobs = 1});
    lab.submit(bench_job("mcf", "bo"));

    obs::Observability obs;
    obs.sampler.configure(5000);
    auto job = bench_job("mcf", "bo");
    job.obs = &obs;
    auto id = lab.submit(std::move(job));
    lab.wait_all();
    EXPECT_EQ(lab.runs_executed(), 2u);
    // The bundle was wired into the worker's system and frozen before
    // the job completed: stats registered, epochs recorded.
    EXPECT_GT(obs.registry.size(), 0u);
    EXPECT_FALSE(obs.sampler.epochs().empty());
    (void)id;
}

TEST(Lab, CustomFactoryJobsMemoizeByVariant)
{
    auto factory = [](unsigned) {
        core::TriageConfig tcfg;
        tcfg.dynamic = true;
        return std::make_unique<core::Triage>(tcfg);
    };
    auto make = [&] {
        exec::Job j;
        j.benchmark = "mcf";
        j.variant = "triage_dyn@custom";
        j.prefetcher_factory = factory;
        j.scale = tiny_scale();
        return j;
    };
    exec::Lab lab({.jobs = 1});
    auto a = lab.submit(make());
    auto b = lab.submit(make());
    lab.wait_all();
    EXPECT_EQ(lab.runs_executed(), 1u);
    expect_identical(lab.result(a), lab.result(b));
}

TEST(JobKey, ReplicaWarmPrefixKeepsTheWindow)
{
    // Replica 0 shares one warm prefix across windows; a replica's
    // workload stream depends on the window, so its prefix keeps it.
    auto a = exec::key_of(bench_job("mcf", "triage_dyn"));
    auto b = exec::key_of(at_window(bench_job("mcf", "triage_dyn"), 6000));
    EXPECT_EQ(exec::warm_prefix(a), exec::warm_prefix(b));
    a.replica = b.replica = 3;
    EXPECT_NE(exec::warm_prefix(a), exec::warm_prefix(b));
}

TEST(Lab, ReplicaForkAcrossWindowsMatchesCold)
{
    // A replica's jitter comes from its whole key, so a checkpoint
    // published by another window's run is not its warm state.
    for (exec::Job job : {bench_job("mcf", "triage_dyn"),
                          mix4_job("triage_dyn")}) {
        job.replica = 3;
        exec::CheckpointStore store;
        exec::run_job(job, &store);
        const exec::Job other = at_window(job, 6000);
        expect_same(exec::run_job(other, &store), exec::run_job(other));
    }
}

TEST(Lab, TapMatchesColdRun)
{
    const std::string trace =
        ::testing::TempDir() + "triage_tap_trace.tria";
    {
        auto src = workloads::make_benchmark("mcf");
        ASSERT_EQ(workloads::save_trace(trace, *src, 20000), 20000u);
    }
    std::vector<exec::Job> jobs = {bench_job("mcf", "triage_dyn")};
    for (const char* pf : {"none", "triage_dyn", "misb"})
        jobs.push_back(mix4_job(pf));
    jobs.push_back(bench_job("trace:" + trace, "triage_dyn"));

    for (const exec::Job& job : jobs) {
        SCOPED_TRACE(exec::key_of(job).workload + " / " + job.pf_spec);
        // The longer job hosts; the shorter one, submitted while the
        // host is held before its warmup, rides on it.
        auto gate = std::make_shared<Gate>(1);
        const exec::Job host = gated(job, gate);
        const exec::Job shorter = at_window(host, 6000);
        exec::Lab lab({.jobs = 2});
        auto host_id = lab.submit(host);
        gate->wait_held(1);
        auto tap_id = lab.submit(shorter);
        gate->open();
        lab.wait_all();
        EXPECT_EQ(lab.runs_executed(), 1u);
        EXPECT_EQ(lab.taps_served(), 1u);
        expect_same(lab.result(tap_id), exec::run_job(shorter));
        expect_same(lab.result(host_id), exec::run_job(host));
    }
    std::remove(trace.c_str());
}

TEST(Lab, TapsServeAscendingAndDescendingOrders)
{
    const std::vector<std::uint64_t> windows = {4000, 9000, 15000};
    const exec::Job job = mix4_job("triage_dyn");
    std::vector<sim::RunResult> cold;
    for (std::uint64_t w : windows)
        cold.push_back(exec::run_job(at_window(job, w)));

    {
        // Longest first, held before its warmup: it hosts, the other
        // two tap it.
        auto gate = std::make_shared<Gate>(1);
        const exec::Job held = gated(job, gate);
        exec::Lab lab({.jobs = 4});
        std::vector<exec::Lab::JobId> ids(windows.size());
        ids.back() = lab.submit(at_window(held, windows.back()));
        gate->wait_held(1);
        for (std::size_t i = windows.size() - 1; i-- > 0;)
            ids[i] = lab.submit(at_window(held, windows[i]));
        gate->open();
        lab.wait_all();
        EXPECT_EQ(lab.runs_executed(), 1u);
        EXPECT_EQ(lab.taps_served(), 2u);
        for (std::size_t i = 0; i < windows.size(); ++i)
            expect_same(lab.result(ids[i]), cold[i]);
    }
    {
        // Shortest first, queued behind two held workers: no queued
        // host has a window as long as the next job's, so each job
        // runs on its own and forks the shared warm state.
        auto gate = std::make_shared<Gate>(2);
        exec::Lab lab({.jobs = 2});
        lab.submit(gated(bench_job("omnetpp", "none"), gate));
        lab.submit(gated(bench_job("libquantum", "none"), gate));
        gate->wait_held(2);
        std::vector<exec::Lab::JobId> ids;
        for (std::uint64_t w : windows)
            ids.push_back(lab.submit(at_window(job, w)));
        gate->open();
        lab.wait_all();
        EXPECT_EQ(lab.runs_executed(), 5u);
        EXPECT_EQ(lab.taps_served(), 0u);
        for (std::size_t i = 0; i < windows.size(); ++i)
            expect_same(lab.result(ids[i]), cold[i]);
    }
}

TEST(Lab, LateSiblingForksInsteadOfTapping)
{
    // The host stops inside its measurement window, short of the
    // sibling's window, until the sibling is submitted: the host has
    // closed its taps, so the sibling forks from the host's published
    // warm checkpoint. The host's records are produced up to a
    // read-ahead ring ahead of the simulation (sim/read_ahead.hpp), so
    // the gate sits a ring past the measured record 3000 and the
    // sibling's window lies beyond the gate.
    stats::RunScale scale = tiny_scale();
    scale.measure_records = 30000;
    const std::uint64_t ring = sim::ReadAheadWorkload::kBlocks *
                               sim::ReadAheadWorkload::kBlockRecords;
    auto gate = std::make_shared<Gate>(1);
    exec::Job host;
    host.variant = "gated:mcf";
    host.workload_factory = [gate, scale, ring] {
        return std::make_unique<GatedWorkload>(
            workloads::make_benchmark("mcf", scale.workload_scale), gate,
            scale.warmup_records + 3000 + ring);
    };
    host.pf_spec = "triage_dyn";
    host.scale = scale;
    const exec::Job sibling = at_window(host, 3000 + ring + 5000);

    exec::Lab lab({.jobs = 2});
    auto host_id = lab.submit(host);
    gate->wait_held(1);
    auto sibling_id = lab.submit(sibling);
    gate->open();
    lab.wait_all();
    EXPECT_EQ(lab.taps_served(), 0u);
    EXPECT_EQ(lab.runs_executed(), 2u);
    EXPECT_EQ(lab.checkpoints()->stats().mem_hits, 1u);
    expect_same(lab.result(sibling_id), exec::run_job(sibling));
    expect_same(lab.result(host_id), exec::run_job(host));
}

TEST(Lab, ObsJobsNeitherTapNorHost)
{
    exec::Lab lab({.jobs = 2});
    obs::Observability long_obs;
    obs::Observability short_obs;
    exec::Job observed_long = bench_job("mcf", "bo");
    observed_long.obs = &long_obs;
    exec::Job observed_short = at_window(bench_job("mcf", "bo"), 9000);
    observed_short.obs = &short_obs;
    const exec::Job plain = at_window(bench_job("mcf", "bo"), 6000);

    lab.submit(observed_long); // never hosts: plain runs on its own
    auto plain_id = lab.submit(plain);
    lab.submit(observed_short); // never taps plain's run
    lab.wait_all();
    EXPECT_EQ(lab.taps_served(), 0u);
    EXPECT_EQ(lab.runs_executed(), 3u);
    EXPECT_GT(long_obs.registry.size(), 0u);
    EXPECT_GT(short_obs.registry.size(), 0u);
    expect_same(lab.result(plain_id), exec::run_job(plain));
}

TEST(Lab, SerialAndColdLabsNeverTap)
{
    const exec::Job job = bench_job("mcf", "triage_dyn");
    for (exec::LabOptions opt : {exec::LabOptions{.jobs = 1},
                                 exec::LabOptions{.jobs = 2,
                                                  .warm_checkpoints =
                                                      false}}) {
        exec::Lab lab(opt);
        lab.submit(job);
        lab.submit(at_window(job, 6000));
        lab.wait_all();
        EXPECT_EQ(lab.taps_served(), 0u);
        EXPECT_EQ(lab.runs_executed(), 2u);
    }
}
