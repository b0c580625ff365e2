/**
 * @file
 * Single-core simulation harness: wire a workload, a prefetcher and the
 * memory hierarchy together, warm up, measure, and report RunStats.
 */
#ifndef TRIAGE_SIM_SYSTEM_HPP
#define TRIAGE_SIM_SYSTEM_HPP

#include <memory>

#include "cache/hierarchy.hpp"
#include "obs/observer.hpp"
#include "sim/cpu.hpp"
#include "sim/measure_taps.hpp"
#include "sim/run_stats.hpp"
#include "sim/snapshot.hpp"
#include "sim/trace.hpp"

namespace triage::sim {

/**
 * The single-core measurement protocol as an explicit state machine:
 * warmup, measurement in epoch units, and epoch boundaries a run can
 * stop at, serialize, and resume from bit-identically.
 *
 * Phases advance Fresh -> Warm -> Measuring -> Done:
 *
 *   EpochRun er(mem, core);
 *   er.run_warmup(warmup_records);        // Fresh -> Warm
 *   er.begin_measure(measure, obs);       // Warm -> Measuring
 *   while (er.step_epoch()) {}            // Measuring -> Done
 *   RunResult r = er.finish();
 *
 * Chunking the window into epoch units is behavior-identical to one
 * big run_records() call, so this decomposition reproduces the legacy
 * protocol byte for byte (tools/diff_fidelity pins it). checkpoint()
 * serializes the whole run — hierarchy, core, workload cursor, and the
 * measurement bookkeeping — at the warm point or at any epoch boundary;
 * restoring into an identically constructed system resumes the run as
 * if it had never stopped.
 *
 * Shared by SingleCoreSystem and by MultiCoreSystem when it runs
 * exactly one core, which is what makes a 1-program mix bit-identical
 * to the single-core system.
 */
class EpochRun
{
  public:
    enum class Phase : std::uint8_t {
        Fresh = 0,
        Warm = 1,
        Measuring = 2,
        Done = 3,
    };

    EpochRun(cache::MemorySystem& mem, CoreModel& core);

    /** Execute the warmup window (Fresh -> Warm). */
    void run_warmup(std::uint64_t warmup_records);

    /**
     * Start the measurement window (Warm -> Measuring): clear stats,
     * capture baselines, attach @p obs (may be null). Closes @p taps
     * (may be null): each of its windows gets the result a run of
     * that length would finish with, emitted as the window completes.
     */
    void begin_measure(std::uint64_t measure_records,
                       obs::Observability* obs,
                       MeasureTaps* taps = nullptr);

    /**
     * Run one epoch unit (the sampler's epoch length when sampling,
     * otherwise the verifier's default), then close the epoch: sample,
     * run the invariant sweep. A tap window inside the unit splits it
     * (chunking is behavior-identical). @return false once the window
     * is complete (Measuring -> Done).
     */
    bool step_epoch();

    /** Drain and assemble the RunResult (requires Done). */
    RunResult finish();

    Phase phase() const { return phase_; }

    /**
     * Save/restore the run at a phase boundary: valid at Warm (warm
     * forking — exec::Lab's checkpoint sharing) or between step_epoch()
     * calls with no observability attached (mid-run resume; the
     * sampler's accumulators are not serializable).
     */
    void checkpoint(Snapshot& s);

  private:
    std::uint64_t epoch_len() const;

    /** The result a window ending at the current record would return:
     *  finish() and every tap build it here. */
    RunResult compose() const;

    /** Emit the tap windows ending here and return where the run
     *  must stop next (at most @p limit). */
    std::uint64_t serve_taps(std::uint64_t limit);

    cache::MemorySystem& mem_;
    CoreModel& core_;
    obs::Observability* obs_ = nullptr;
    MeasureTaps* taps_ = nullptr;
    std::vector<std::uint64_t> tap_windows_; ///< not yet due, longest first
    Phase phase_ = Phase::Fresh;
    std::uint64_t measure_records_ = 0;
    std::uint64_t done_ = 0;
    CoreStats before_{};
    Cycle start_ = 0;
};

/**
 * The legacy single-call protocol: warm @p core for @p warmup_records
 * references, measure the next @p measure_records, and assemble the
 * RunResult. Composed from EpochRun — one implementation of the epoch
 * protocol serves the single-core system, 1-program mixes, and the
 * checkpoint/resume paths.
 */
RunResult run_one_core(cache::MemorySystem& mem, CoreModel& core,
                       std::uint64_t warmup_records,
                       std::uint64_t measure_records,
                       obs::Observability* obs);

/** Convenience owner of one core + memory system. */
class SingleCoreSystem
{
  public:
    explicit SingleCoreSystem(const MachineConfig& cfg);

    /** Install the L2 prefetcher under test (null = no L2 prefetching). */
    void set_prefetcher(std::unique_ptr<prefetch::Prefetcher> pf);

    /**
     * Warm up for @p warmup_records memory references, then measure the
     * next @p measure_records (restarting the workload as needed).
     */
    RunResult run(Workload& wl, std::uint64_t warmup_records,
                  std::uint64_t measure_records);

    // --- Resumable protocol (the phases run() composes) ---------------

    /** Attach the workload without running anything. */
    void bind(Workload& wl) { core_.bind(&wl); }

    /** Execute the warmup window (requires bind()). */
    void run_warmup(std::uint64_t warmup_records);

    /**
     * Save the warm state, or restore it into a freshly constructed,
     * identically configured system (requires bind(); the workload is
     * restored by deterministic replay, see CoreModel::checkpoint).
     */
    void checkpoint_warm(Snapshot& s);

    /** Measure from the warm point (after run_warmup or a restoring
     *  checkpoint_warm) and return the result; shorter windows in
     *  @p taps get theirs on the way (see MeasureTaps). */
    RunResult run_measure(std::uint64_t measure_records,
                          MeasureTaps* taps = nullptr);

    cache::MemorySystem& memory() { return mem_; }
    CoreModel& core() { return core_; }

    /**
     * Attach an observability bundle (registry + epoch sampler + event
     * trace). Wiring happens at measurement start inside run(); the
     * sampler closes an epoch every sampler.epoch_len() measured
     * records. Null detaches.
     */
    void set_observability(obs::Observability* o) { obs_ = o; }

  private:
    MachineConfig cfg_;
    cache::MemorySystem mem_;
    CoreModel core_;
    obs::Observability* obs_ = nullptr;
    std::unique_ptr<EpochRun> er_; ///< live between run_warmup and finish
};

} // namespace triage::sim

#endif // TRIAGE_SIM_SYSTEM_HPP
