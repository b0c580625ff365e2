/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed region: a job, a phase of a job (warmup,
 * snapshot save, snapshot restore, measure), or a rollup of one
 * layer's calls inside a phase (every Workload::next, every
 * Prefetcher::train, ...). Recording each of the millions of per-record
 * calls as its own span would cost more memory and time than the
 * simulation, so a rollup span carries the summed duration of its calls
 * (busy_ns) and their number (calls) between the bounds of the phase
 * that contains them. A coarse span has calls = 1 and busy_ns = end -
 * start. Spans are kept in memory and written out once, at the end of
 * the run.
 */
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Span {
    std::string name;
    std::uint64_t start_ns = 0; ///< relative to the recorder's creation
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;   ///< index of the enclosing span, -1 = root
    std::uint64_t job = 0;      ///< job id shared by every span of a job
    std::uint64_t calls = 1;
    std::uint64_t busy_ns = 0;
};

/** Thread-safe: Lab workers record spans concurrently. */
class SpanRecorder
{
  public:
    /** Open a coarse span; returns its id for close() and children. */
    std::int64_t open(std::string name, std::int64_t parent,
                      std::uint64_t job);
    void close(std::int64_t id);

    /** Record a rollup of @p calls calls summing @p busy_ns under
     *  @p parent, spanning the parent's bounds. */
    void rollup(std::string name, std::int64_t parent, std::uint64_t job,
                std::uint64_t calls, std::uint64_t busy_ns);

    /** Record a finished coarse span from absolute now_ns() stamps. */
    void add(std::string name, std::int64_t parent, std::uint64_t job,
             std::uint64_t abs_start_ns, std::uint64_t abs_end_ns);

    std::vector<Span> spans() const;

    /** Write every span as one JSON array; false on an I/O error. */
    bool write_json(const std::string& path) const;

  private:
    const std::uint64_t t0_ = now_ns();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII coarse span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder& rec, std::string name, std::int64_t parent,
               std::uint64_t job)
        : rec_(rec), id_(rec.open(std::move(name), parent, job))
    {}
    ~ScopedSpan() { rec_.close(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::int64_t id() const { return id_; }

  private:
    SpanRecorder& rec_;
    std::int64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
