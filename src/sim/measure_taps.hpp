/**
 * @file
 * Measure taps: the shorter measurement windows one run reports on the
 * way to its own (docs/parallel-runs.md §measure-taps).
 *
 * A run with window L and a tap at window t <= L emits, for that tap,
 * the exact RunResult a run from the same warm state with
 * measure_records = t would return. It is taken where that run would
 * stop — the epoch chunk split at t on the single-core protocol, the
 * quantum iteration in which the last core crosses t on a multi-core
 * mix — and composed by the same function that builds the run's own
 * result. Nothing about the simulation changes: a standalone run of t
 * and the run of L execute the same steps up to that point.
 *
 * Windows may be added from another thread until the run starts its
 * measurement window, which closes the list: every window is then
 * known before the first measured record, so the run cannot have
 * passed any of them.
 */
#ifndef TRIAGE_SIM_MEASURE_TAPS_HPP
#define TRIAGE_SIM_MEASURE_TAPS_HPP

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "sim/run_stats.hpp"

namespace triage::sim {

/** Thread-safe list of tap windows plus the sink their results go to. */
class MeasureTaps
{
  public:
    /** Receives each tap's result, on the simulating thread. */
    using Sink = std::function<void(std::uint64_t records, RunResult)>;

    explicit MeasureTaps(Sink sink) : sink_(std::move(sink)) {}

    /**
     * Ask for window @p records (any thread). @return false once the
     * run has started measuring; the caller must then run the window
     * on its own.
     */
    bool add(std::uint64_t records);

    // --- Run side: called only by the simulating thread. -------------

    /** Refuse further windows and return the added ones, longest
     *  first. Called once, as the measurement window starts. */
    std::vector<std::uint64_t> close();

    /** Hand @p r to the sink as the result of window @p records. */
    void emit(std::uint64_t records, RunResult r);

  private:
    std::mutex mu_;
    bool closed_ = false;
    std::vector<std::uint64_t> windows_;
    Sink sink_;
};

} // namespace triage::sim

#endif // TRIAGE_SIM_MEASURE_TAPS_HPP
