#include "sim/system.hpp"

#include <algorithm>

#include "obs/profile.hpp"
#include "sim/obs_wiring.hpp"
#include "util/log.hpp"

namespace triage::sim {

SingleCoreSystem::SingleCoreSystem(const MachineConfig& cfg)
    : cfg_(cfg), mem_(cfg, 1), core_(cfg, mem_, 0)
{
}

void
SingleCoreSystem::set_prefetcher(std::unique_ptr<prefetch::Prefetcher> pf)
{
    mem_.set_prefetcher(0, std::move(pf));
}

EpochRun::EpochRun(cache::MemorySystem& mem, CoreModel& core)
    : mem_(mem), core_(core)
{
}

void
EpochRun::run_warmup(std::uint64_t warmup_records)
{
    TRIAGE_ASSERT(phase_ == Phase::Fresh, "EpochRun: warmup ran twice");
    obs::prof::ProfScope prof("warmup");
    core_.run_records(warmup_records);
    phase_ = Phase::Warm;
}

void
EpochRun::begin_measure(std::uint64_t measure_records,
                        obs::Observability* obs, MeasureTaps* taps)
{
    TRIAGE_ASSERT(phase_ == Phase::Warm,
                  "EpochRun: begin_measure needs the warm state");
    obs_ = obs;
    taps_ = taps;
    tap_windows_.clear();
    if (taps_ != nullptr)
        tap_windows_ = taps_->close();
    TRIAGE_ASSERT(tap_windows_.empty() ||
                      tap_windows_.front() <= measure_records,
                  "EpochRun: tap window longer than the run");
    measure_records_ = measure_records;
    done_ = 0;

    mem_.clear_stats(core_.now());
    before_ = core_.stats();
    start_ = core_.now();

    if (obs_ != nullptr)
        attach_observability(*obs_, mem_, {&core_});
    if (obs_ != nullptr && obs_->sampler.enabled())
        obs_->sampler.begin(0);
    phase_ = Phase::Measuring;
}

std::uint64_t
EpochRun::epoch_len() const
{
    // Epoch-chunked measurement: chunking run_records is
    // behavior-identical to one big call, so the epoch length only
    // decides where sampler/verifier boundaries fall, never the result.
    if (obs_ != nullptr && obs_->sampler.enabled())
        return obs_->sampler.epoch_len();
    return obs::RunVerifier::DEFAULT_EPOCH_RECORDS;
}

std::uint64_t
EpochRun::serve_taps(std::uint64_t limit)
{
    while (!tap_windows_.empty() && tap_windows_.back() == done_) {
        taps_->emit(done_, compose());
        tap_windows_.pop_back();
    }
    return tap_windows_.empty() ? limit
                                : std::min(limit, tap_windows_.back());
}

bool
EpochRun::step_epoch()
{
    TRIAGE_ASSERT(phase_ == Phase::Measuring,
                  "EpochRun: step_epoch outside the measurement window");
    if (done_ >= measure_records_) {
        serve_taps(done_);
        TRIAGE_ASSERT(tap_windows_.empty(),
                      "EpochRun: tap window left unserved");
        phase_ = Phase::Done;
        return false;
    }
    obs::prof::ProfScope prof("epoch");
    const std::uint64_t end =
        done_ + std::min(epoch_len(), measure_records_ - done_);
    while (done_ < end) {
        const std::uint64_t stop = serve_taps(end);
        core_.run_records(stop - done_);
        done_ = stop;
    }
    if (obs_ != nullptr && obs_->sampler.enabled())
        obs_->sampler.sample(done_);
    obs::RunVerifier* verifier = obs_ != nullptr ? obs_->verifier : nullptr;
    if (verifier != nullptr)
        verifier->on_epoch();
    return true;
}

RunResult
EpochRun::finish()
{
    TRIAGE_ASSERT(phase_ == Phase::Done,
                  "EpochRun: finish before the window completed");
    obs::RunVerifier* verifier = obs_ != nullptr ? obs_->verifier : nullptr;
    if (verifier != nullptr)
        verifier->on_run_end();
    RunResult res = compose();

    // The registry's bound stats and formulas point into this system,
    // and none of them change once the run is over — snapshot them now
    // so harnesses (e.g. stats::run_single callers emitting
    // --stats-json) can dump the registry after the system dies.
    if (obs_ != nullptr)
        obs_->freeze();
    return res;
}

RunResult
EpochRun::compose() const
{
    const Cycle end = core_.drain();
    RunResult res;
    RunStats s;
    s.instructions = core_.stats().instructions - before_.instructions;
    s.mem_records = core_.stats().mem_records - before_.mem_records;
    s.cycles = end - start_;
    s.l1 = mem_.l1(0).stats();
    s.l2 = mem_.l2(0).stats();
    if (mem_.prefetcher(0) != nullptr)
        s.l2pf = mem_.prefetcher(0)->snapshot();
    if (mem_.l1_stride(0) != nullptr)
        s.l1_stride = mem_.l1_stride(0)->snapshot();
    s.energy = mem_.metadata_energy(0);
    s.avg_metadata_ways = mem_.avg_metadata_ways(0, end);
    res.per_core.push_back(s);
    res.llc = mem_.llc().stats();
    res.traffic = mem_.dram().traffic();
    res.span = end - start_;
    return res;
}

void
EpochRun::checkpoint(Snapshot& s)
{
    if (s.saving()) {
        TRIAGE_ASSERT(
            phase_ == Phase::Warm ||
                (phase_ == Phase::Measuring && obs_ == nullptr &&
                 taps_ == nullptr),
            "EpochRun checkpoints are taken at the warm point, or at an "
            "epoch boundary with no observability or taps attached");
    }
    s.section("epoch_run");
    auto ph = static_cast<std::uint8_t>(phase_);
    s.io(ph);
    if (s.loading()) {
        TRIAGE_ASSERT(ph == static_cast<std::uint8_t>(Phase::Warm) ||
                          ph == static_cast<std::uint8_t>(Phase::Measuring),
                      "EpochRun snapshot taken at a non-resumable phase");
        phase_ = static_cast<Phase>(ph);
        obs_ = nullptr;
        taps_ = nullptr;
        tap_windows_.clear();
    }
    s.io(measure_records_);
    s.io(done_);
    s.io_pod(before_);
    s.io(start_);
    mem_.checkpoint(s);
    core_.checkpoint(s);
}

RunResult
run_one_core(cache::MemorySystem& mem, CoreModel& core,
             std::uint64_t warmup_records, std::uint64_t measure_records,
             obs::Observability* obs)
{
    EpochRun er(mem, core);
    er.run_warmup(warmup_records);
    obs::prof::ProfScope prof("measure");
    er.begin_measure(measure_records, obs);
    while (er.step_epoch()) {
    }
    return er.finish();
}

void
SingleCoreSystem::run_warmup(std::uint64_t warmup_records)
{
    er_ = std::make_unique<EpochRun>(mem_, core_);
    er_->run_warmup(warmup_records);
}

void
SingleCoreSystem::checkpoint_warm(Snapshot& s)
{
    if (s.loading() && er_ == nullptr)
        er_ = std::make_unique<EpochRun>(mem_, core_);
    TRIAGE_ASSERT(er_ != nullptr,
                  "checkpoint_warm before run_warmup (save side)");
    er_->checkpoint(s);
}

RunResult
SingleCoreSystem::run_measure(std::uint64_t measure_records,
                              MeasureTaps* taps)
{
    TRIAGE_ASSERT(er_ != nullptr && er_->phase() == EpochRun::Phase::Warm,
                  "run_measure needs a warm system (run_warmup or a "
                  "restoring checkpoint_warm)");
    obs::prof::ProfScope prof("measure");
    er_->begin_measure(measure_records, obs_, taps);
    while (er_->step_epoch()) {
    }
    RunResult r = er_->finish();
    er_.reset();
    return r;
}

RunResult
SingleCoreSystem::run(Workload& wl, std::uint64_t warmup_records,
                      std::uint64_t measure_records)
{
    core_.bind(&wl);
    return run_one_core(mem_, core_, warmup_records, measure_records,
                        obs_);
}

} // namespace triage::sim
