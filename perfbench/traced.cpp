#include "traced.hpp"

#include <algorithm>
#include <vector>

#include "exec/checkpoint.hpp"
#include "sim/multicore.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"
#include "workloads/spec.hpp"

namespace perfbench {

namespace sim = triage::sim;
namespace prefetch = triage::prefetch;

namespace {

Clock
clock_minus(const Clock& a, const Clock& b)
{
    return {a.calls - b.calls, a.ns - b.ns};
}

double
seconds_between(std::uint64_t t0, std::uint64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

/** Fingerprint sealed into the benchmark's own save/restore blobs. */
const char* const kSnapshotTag = "perfbench.restore-probe";

} // namespace

JobCounters
JobCounters::minus(const JobCounters& before) const
{
    JobCounters d;
    d.train = clock_minus(train, before.train);
    d.issue = clock_minus(issue, before.issue);
    d.issue_in_train = clock_minus(issue_in_train, before.issue_in_train);
    d.pf_other = clock_minus(pf_other, before.pf_other);
    d.next = clock_minus(next, before.next);
    return d;
}

TimerCost
calibrate_timer()
{
    // The same stamps and bookkeeping as a timed call around an empty
    // one; the median of a few rounds, so one preempted round is ignored.
    constexpr int kCalls = 200000;
    constexpr int kRounds = 5;
    std::vector<TimerCost> rounds;
    for (int r = 0; r < kRounds; ++r) {
        Clock c;
        const std::uint64_t t0 = now_ns();
        for (int i = 0; i < kCalls; ++i) {
            const std::uint64_t a = now_ns();
            c.add(now_ns() - a);
        }
        const std::uint64_t t1 = now_ns();
        rounds.push_back({static_cast<double>(c.ns) / kCalls,
                          static_cast<double>(t1 - t0) / kCalls});
    }
    std::sort(rounds.begin(), rounds.end(),
              [](const TimerCost& x, const TimerCost& y) {
                  return x.per_call_ns < y.per_call_ns;
              });
    return rounds[kRounds / 2];
}

// --- TimedHost --------------------------------------------------------

prefetch::PfOutcome
TimedHost::issue_prefetch(unsigned core, sim::Addr block, sim::Cycle when,
                          prefetch::Prefetcher* owner)
{
    const std::uint64_t t0 = now_ns();
    const prefetch::PfOutcome out =
        inner_->issue_prefetch(core, block, when, owner);
    const std::uint64_t d = now_ns() - t0;
    c_->issue.add(d);
    if (in_train_)
        c_->issue_in_train.add(d);
    return out;
}

sim::Cycle
TimedHost::llc_latency() const
{
    return inner_->llc_latency();
}

void
TimedHost::count_metadata_llc_access(unsigned core, bool is_write)
{
    inner_->count_metadata_llc_access(core, is_write);
}

sim::Cycle
TimedHost::offchip_metadata_access(unsigned core, sim::Cycle now,
                                   std::uint32_t bytes, bool is_write,
                                   bool charge_time)
{
    return inner_->offchip_metadata_access(core, now, bytes, is_write,
                                           charge_time);
}

void
TimedHost::request_metadata_capacity(unsigned core, std::uint64_t bytes,
                                     sim::Cycle now)
{
    inner_->request_metadata_capacity(core, bytes, now);
}

// --- TimedPrefetcher --------------------------------------------------

void
TimedPrefetcher::train(const prefetch::TrainEvent& ev,
                       prefetch::PrefetchHost& host)
{
    host_.bind(&host);
    host_.set_in_train(true);
    const std::uint64_t t0 = now_ns();
    inner_->train(ev, host_);
    c_->train.add(now_ns() - t0);
    host_.set_in_train(false);
}

void
TimedPrefetcher::pre_train_hint(sim::Addr block) const
{
    inner_->pre_train_hint(block);
}

void
TimedPrefetcher::on_prefetch_used(sim::Addr block, sim::Cycle now)
{
    const std::uint64_t t0 = now_ns();
    inner_->on_prefetch_used(block, now);
    c_->pf_other.add(now_ns() - t0);
}

void
TimedPrefetcher::on_fill(sim::Addr block, sim::Cycle now, bool was_prefetch)
{
    const std::uint64_t t0 = now_ns();
    inner_->on_fill(block, now, was_prefetch);
    c_->pf_other.add(now_ns() - t0);
}

prefetch::PrefetcherStats
TimedPrefetcher::snapshot() const
{
    return inner_->snapshot();
}

void
TimedPrefetcher::clear_stats()
{
    inner_->clear_stats();
}

void
TimedPrefetcher::register_stats(triage::obs::Registry& reg,
                                const std::string& prefix) const
{
    inner_->register_stats(reg, prefix);
}

void
TimedPrefetcher::register_probes(triage::obs::EpochSampler& sampler,
                                 const std::string& prefix) const
{
    inner_->register_probes(sampler, prefix);
}

void
TimedPrefetcher::set_trace(triage::obs::EventTrace* trace)
{
    inner_->set_trace(trace);
}

void
TimedPrefetcher::set_partition_timeline(
    triage::obs::PartitionTimeline* timeline, unsigned core)
{
    inner_->set_partition_timeline(timeline, core);
}

void
TimedPrefetcher::checkpoint(sim::Snapshot& s)
{
    inner_->checkpoint(s);
}

void
TimedPrefetcher::enumerate(std::vector<Prefetcher*>& out)
{
    // Cache lines record the prefetcher that issued them (the wrapped
    // one passes itself to issue_prefetch), so the owner codec must see
    // the wrapped prefetchers, not this wrapper.
    inner_->enumerate(out);
}

std::unique_ptr<prefetch::Prefetcher>
timed(std::unique_ptr<prefetch::Prefetcher> pf, JobCounters* c)
{
    if (pf == nullptr)
        return nullptr;
    return std::make_unique<TimedPrefetcher>(std::move(pf), c);
}

// --- TimedWorkload ----------------------------------------------------

bool
TimedWorkload::next(sim::TraceRecord& out)
{
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_->next(out);
    c_->next.add(now_ns() - t0);
    return ok;
}

std::unique_ptr<sim::Workload>
TimedWorkload::clone() const
{
    return std::make_unique<TimedWorkload>(inner_->clone(), c_);
}

// --- run_traced -------------------------------------------------------

void
record_rollups(SpanRecorder& rec, std::int64_t parent, std::uint64_t job_id,
               const JobCounters& c)
{
    rec.rollup("prefetch.train", parent, job_id, c.train.calls, c.train.ns);
    rec.rollup("prefetch.issue", parent, job_id, c.issue.calls, c.issue.ns);
    rec.rollup("prefetch.issue_in_train", parent, job_id,
               c.issue_in_train.calls, c.issue_in_train.ns);
    rec.rollup("prefetch.fill_use", parent, job_id, c.pf_other.calls,
               c.pf_other.ns);
    rec.rollup("workload.next", parent, job_id, c.next.calls, c.next.ns);
}

namespace {

/** Build, bind and hand back the components of one single-core system.
 *  The workload outlives the system that points at it. */
struct SingleParts {
    std::unique_ptr<sim::Workload> wl;
    std::unique_ptr<sim::SingleCoreSystem> sys;
};

SingleParts
make_single(const triage::exec::Job& job)
{
    SingleParts p;
    p.wl = job.workload_factory();
    p.wl->reset();
    p.sys = std::make_unique<sim::SingleCoreSystem>(job.config);
    p.sys->set_prefetcher(job.prefetcher_factory(0));
    p.sys->bind(*p.wl);
    return p;
}

std::unique_ptr<sim::MultiCoreSystem>
make_multi(const triage::exec::Job& job, JobCounters& c,
           std::uint64_t jitter)
{
    const auto cores = static_cast<unsigned>(job.mix.size());
    auto sys = std::make_unique<sim::MultiCoreSystem>(job.config, cores);
    for (unsigned k = 0; k < cores; ++k) {
        sys->set_prefetcher(k, job.prefetcher_factory(k));
        TimedWorkload wl(triage::workloads::make_workload(
                             job.mix[k], job.scale.workload_scale, jitter,
                             k),
                         &c);
        sys->bind(k, wl); // the system keeps a clone
    }
    return sys;
}

} // namespace

TracedOutcome
run_traced(const triage::exec::Job& job, JobCounters& c,
           std::uint64_t mix_jitter, SpanRecorder& rec, std::uint64_t job_id)
{
    const bool multi = !job.mix.empty();
    const sim::Cycle quantum = job.quantum != 0 ? job.quantum : 1000;
    TracedOutcome out;
    ScopedSpan job_span(rec, "job", -1, job_id);
    triage::sim::SnapshotBlob blob;

    auto timed_phase = [&](const char* name, auto&& fn) {
        const std::uint64_t t0 = now_ns();
        fn();
        const std::uint64_t t1 = now_ns();
        rec.add(name, job_span.id(), job_id, t0, t1);
        return seconds_between(t0, t1);
    };
    auto save = [&](auto& sys) {
        sim::Snapshot s;
        sys.checkpoint_warm(s);
        blob = s.seal(triage::exec::CKPT_VERSION, kSnapshotTag);
    };
    auto restore = [&](auto& sys) {
        sim::Snapshot s = sim::Snapshot::open_or_die(
            blob, triage::exec::CKPT_VERSION, kSnapshotTag);
        sys.checkpoint_warm(s);
    };

    // Warm and save on one system, then restore into a fresh one; the
    // first is destroyed before the second is built so an 8-core LLC is
    // never held twice.
    if (multi) {
        {
            auto warm = make_multi(job, c, mix_jitter);
            out.phases.warmup_s = timed_phase("warmup", [&] {
                warm->run_warmup(job.scale.warmup_records, quantum);
            });
            out.phases.save_s = timed_phase("snapshot.save",
                                            [&] { save(*warm); });
        }
        auto sys = make_multi(job, c, mix_jitter);
        out.phases.restore_s =
            timed_phase("snapshot.restore", [&] { restore(*sys); });
        const JobCounters before = c;
        out.phases.measure_s = timed_phase("measure", [&] {
            out.result = sys->run_measure(job.scale.measure_records,
                                          quantum, sim::ExecMode::Legacy,
                                          0);
        });
        out.measure = c.minus(before);
    } else {
        {
            SingleParts warm = make_single(job);
            out.phases.warmup_s = timed_phase("warmup", [&] {
                warm.sys->run_warmup(job.scale.warmup_records);
            });
            out.phases.save_s = timed_phase("snapshot.save",
                                            [&] { save(*warm.sys); });
        }
        SingleParts run = make_single(job);
        out.phases.restore_s =
            timed_phase("snapshot.restore", [&] { restore(*run.sys); });
        const JobCounters before = c;
        out.phases.measure_s = timed_phase("measure", [&] {
            out.result = run.sys->run_measure(job.scale.measure_records);
        });
        out.measure = c.minus(before);
    }
    out.phases.snapshot_bytes = blob.size();
    record_rollups(rec, job_span.id(), job_id, c);
    return out;
}

} // namespace perfbench
