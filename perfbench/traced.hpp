/**
 * @file
 * Timing hooks for the traced run, all from outside the simulator:
 *
 *  - TimedPrefetcher wraps a Prefetcher and the PrefetchHost it is
 *    handed, so train time can be split into the prefetcher's own work
 *    and the host's issue_prefetch calls. Installed through
 *    Job::prefetcher_factory (with a variant tag).
 *  - TimedWorkload wraps a Workload and times next(). Installed through
 *    Job::workload_factory; mixes, which have no such hook, get it by
 *    run_traced binding wrapped workloads itself.
 *  - run_traced drives a System through run_warmup / checkpoint_warm
 *    save / restore into a fresh system / run_measure, timing each.
 *
 * Every wrapper forwards every call unchanged, so a traced job's
 * simulated stats equal the untraced job's bit for bit; the benchmark
 * checks that on every traced job.
 */
#ifndef PERFBENCH_TRACED_HPP
#define PERFBENCH_TRACED_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "exec/job.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/run_stats.hpp"
#include "sim/trace.hpp"
#include "spans.hpp"

namespace perfbench {

struct Clock {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    void
    add(std::uint64_t d)
    {
        ++calls;
        ns += d;
    }
};

/**
 * What the timing hooks themselves cost per timed call, measured once
 * per run by calibrate_timer(). in_span_ns is what an empty timed call
 * adds to its own span (the clock read between the two stamps);
 * per_call_ns is what it adds to the wall time around it (both clock
 * reads and the bookkeeping). Subtracting them keeps per-record figures
 * of a few ns from measuring the timer instead of the program.
 */
struct TimerCost {
    double in_span_ns = 0.0;
    double per_call_ns = 0.0;
};

TimerCost calibrate_timer();

/** @p c's summed time with the timer's own share taken out. */
inline double
inner_ns(const Clock& c, const TimerCost& t)
{
    return static_cast<double>(c.ns) -
           static_cast<double>(c.calls) * t.in_span_ns;
}

/** Per-job call timings. One object per job: a job's hooks all run on
 *  the thread that runs the job, so no synchronisation is needed. */
struct JobCounters {
    Clock train;          ///< Prefetcher::train, including host calls
    Clock issue;          ///< PrefetchHost::issue_prefetch, all calls
    Clock issue_in_train; ///< ...the part made from inside train
    Clock pf_other;       ///< Prefetcher::on_fill / on_prefetch_used
    Clock next;           ///< Workload::next

    /** Train time spent in the prefetcher itself: train minus the
     *  issue_prefetch calls it made (their hooks included). */
    double
    train_self_ns(const TimerCost& t) const
    {
        return inner_ns(train, t) - inner_ns(issue_in_train, t) -
               static_cast<double>(issue_in_train.calls) * t.per_call_ns;
    }

    /** Time in the prefetcher's own code. The simulator's
     *  issue_prefetch work (cache and MSHR lookups, DRAM enqueue) is
     *  not in it. */
    double
    prefetcher_self_ns(const TimerCost& t) const
    {
        return train_self_ns(t) + inner_ns(pf_other, t);
    }

    /** Wall time the hooks added around their calls. */
    double
    hook_ns(const TimerCost& t) const
    {
        return static_cast<double>(train.calls + issue.calls +
                                   pf_other.calls + next.calls) *
               t.per_call_ns;
    }

    JobCounters minus(const JobCounters& before) const;
};

class TimedHost final : public triage::prefetch::PrefetchHost
{
  public:
    explicit TimedHost(JobCounters* c) : c_(c) {}

    void bind(triage::prefetch::PrefetchHost* inner) { inner_ = inner; }
    void set_in_train(bool on) { in_train_ = on; }

    triage::prefetch::PfOutcome
    issue_prefetch(unsigned core, triage::sim::Addr block,
                   triage::sim::Cycle when,
                   triage::prefetch::Prefetcher* owner) override;
    triage::sim::Cycle llc_latency() const override;
    void count_metadata_llc_access(unsigned core, bool is_write) override;
    triage::sim::Cycle offchip_metadata_access(unsigned core,
                                               triage::sim::Cycle now,
                                               std::uint32_t bytes,
                                               bool is_write,
                                               bool charge_time) override;
    void request_metadata_capacity(unsigned core, std::uint64_t bytes,
                                   triage::sim::Cycle now) override;

  private:
    JobCounters* c_;
    triage::prefetch::PrefetchHost* inner_ = nullptr;
    bool in_train_ = false;
};

class TimedPrefetcher final : public triage::prefetch::Prefetcher
{
  public:
    TimedPrefetcher(std::unique_ptr<triage::prefetch::Prefetcher> inner,
                    JobCounters* c)
        : inner_(std::move(inner)), c_(c), host_(c)
    {}

    void train(const triage::prefetch::TrainEvent& ev,
               triage::prefetch::PrefetchHost& host) override;
    void pre_train_hint(triage::sim::Addr block) const override;
    void on_prefetch_used(triage::sim::Addr block,
                          triage::sim::Cycle now) override;
    void on_fill(triage::sim::Addr block, triage::sim::Cycle now,
                 bool was_prefetch) override;
    const std::string& name() const override { return inner_->name(); }
    triage::prefetch::PrefetcherStats snapshot() const override;
    void clear_stats() override;
    void register_stats(triage::obs::Registry& reg,
                        const std::string& prefix) const override;
    void register_probes(triage::obs::EpochSampler& sampler,
                         const std::string& prefix) const override;
    void set_trace(triage::obs::EventTrace* trace) override;
    void set_partition_timeline(triage::obs::PartitionTimeline* timeline,
                                unsigned core) override;
    void checkpoint(triage::sim::Snapshot& s) override;
    void enumerate(std::vector<Prefetcher*>& out) override;

  private:
    std::unique_ptr<triage::prefetch::Prefetcher> inner_;
    JobCounters* c_;
    TimedHost host_;
};

class TimedWorkload final : public triage::sim::Workload
{
  public:
    TimedWorkload(std::unique_ptr<triage::sim::Workload> inner,
                  JobCounters* c)
        : inner_(std::move(inner)), c_(c)
    {}

    void reset() override { inner_->reset(); }
    bool next(triage::sim::TraceRecord& out) override;
    std::uint64_t skip(std::uint64_t n) override { return inner_->skip(n); }
    const std::string& name() const override { return inner_->name(); }
    std::unique_ptr<triage::sim::Workload> clone() const override;

  private:
    std::unique_ptr<triage::sim::Workload> inner_;
    JobCounters* c_;
};

/** Wrap @p pf (null stays null: "none" has no prefetcher to time). */
std::unique_ptr<triage::prefetch::Prefetcher>
timed(std::unique_ptr<triage::prefetch::Prefetcher> pf, JobCounters* c);

struct PhaseTimes {
    double warmup_s = 0.0;
    double save_s = 0.0;
    double restore_s = 0.0;
    double measure_s = 0.0;
    std::uint64_t snapshot_bytes = 0;
};

struct TracedOutcome {
    triage::sim::RunResult result;
    PhaseTimes phases;
    JobCounters measure; ///< counters of the measure phase alone
};

/**
 * Run @p job with timed phases, recording spans under @p job_id.
 * A single-core job must carry a prefetcher_factory and a
 * workload_factory that build timed components on @p c. A mix job must
 * carry the prefetcher_factory; its per-core workloads are built from
 * the mix names with @p mix_jitter (the seed jitter run_job would use)
 * and wrapped here. The warm state is saved, then restored into a
 * fresh system that runs the measurement, so the result is also a
 * check that restore is faithful.
 */
TracedOutcome run_traced(const triage::exec::Job& job, JobCounters& c,
                         std::uint64_t mix_jitter, SpanRecorder& rec,
                         std::uint64_t job_id);

/** Rollup spans for @p c under @p parent ("prefetch.train", ...). */
void record_rollups(SpanRecorder& rec, std::int64_t parent,
                    std::uint64_t job_id, const JobCounters& c);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HPP
