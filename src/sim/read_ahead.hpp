/**
 * @file
 * ReadAheadWorkload: produce a workload's records on a second thread.
 *
 * A record stream never depends on simulated state, so it can be made
 * ahead of the core that consumes it. This decorator runs the inner
 * workload's next() (generator state machines, trace inflate and
 * decode) on one producer thread that fills a ring of kBlocks blocks
 * of kBlockRecords records. The consumer's next() copies out of the
 * block it holds and synchronises once per block.
 *
 * The consumer sees exactly the inner workload's record sequence:
 *  - The producer starts on the first next(). reset() and skip()
 *    before it forward to the inner workload, so a checkpoint restore
 *    keeps the inner skip() (a seek on .tria files).
 *  - Over the wrapper's lifetime the producer pulls at most
 *    @p read_limit records, skipped ones included: the count the
 *    caller will consume. The inner workload then never reads past
 *    the point the unwrapped run reaches, and a torn trace tail warns
 *    exactly when it did unwrapped. Reads past the limit run inline.
 *  - End of trace and an exception thrown by the inner next() surface
 *    at the record where the inner workload returned or threw them.
 *  - Each pass restarts the producer after the caller's reset(). A
 *    pass shorter than one block cannot overlap (its block is handed
 *    out only once the pass is made), so after one such pass the
 *    later ones are read inline.
 *
 * reset() needs the inner workload at the consumer's position:
 * before the first read, or once the consumer has read every record
 * the producer pulled (end of trace, read limit). clone() needs the
 * producer stopped: before the first read or after an end was
 * reported. Anything else is an assertion failure, since a record
 * pulled ahead cannot be given back: generator state such as
 * SyntheticWorkload's sequence counter survives a reset. The
 * producer is joined before the wrapper dies.
 */
#ifndef TRIAGE_SIM_READ_AHEAD_HPP
#define TRIAGE_SIM_READ_AHEAD_HPP

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/trace.hpp"

namespace triage::sim {

class ReadAheadWorkload final : public Workload
{
  public:
    /** Records per block: the consumer synchronises once per block. */
    static constexpr std::size_t kBlockRecords = 4096;
    /** Blocks in the ring (about 400 KB of records in all). */
    static constexpr std::size_t kBlocks = 4;

    ReadAheadWorkload(std::unique_ptr<Workload> inner,
                      std::uint64_t read_limit);
    ~ReadAheadWorkload() override;

    ReadAheadWorkload(const ReadAheadWorkload&) = delete;
    ReadAheadWorkload& operator=(const ReadAheadWorkload&) = delete;

    void reset() override;
    bool next(TraceRecord& out) override;
    std::uint64_t skip(std::uint64_t n) override;
    const std::string& name() const override { return inner_->name(); }
    std::unique_ptr<Workload> clone() const override;

  private:
    /** Why the producer stopped after a block. */
    enum class End : std::uint8_t { More, Eof, Limit, Error };

    struct Block {
        std::size_t count = 0;
        End end = End::More;
    };

    TraceRecord* block_records(std::uint64_t seq);
    bool refill(TraceRecord& out);
    void produce();
    /** Stop and join the producer, dropping whatever it buffered.
     *  @return records it pulled that the consumer has not read. */
    std::uint64_t join();

    std::unique_ptr<Workload> inner_;
    const std::uint64_t read_limit_;
    /** Records the producer may still pull; owned by the producer
     *  while it runs. */
    std::uint64_t budget_;

    std::vector<TraceRecord> ring_;
    std::array<Block, kBlocks> blocks_{};
    /** Records of the current pass skipped or read before the
     *  producer's last run ended. */
    std::uint64_t pass_pos_ = 0;
    /** Set by the producer with End::Error, read after the join. */
    std::exception_ptr error_;

    std::mutex mu_;
    /** One waiter at a time: the producer waits only on a full ring,
     *  the consumer only on an empty one. */
    std::condition_variable cv_;
    std::uint64_t filled_ = 0;  ///< blocks published (guarded by mu_)
    std::uint64_t drained_ = 0; ///< blocks released (guarded by mu_)
    bool stop_ = false;         ///< guarded by mu_

    // Consumer side: the block being read, held whenever the producer
    // thread is joinable.
    std::uint64_t held_ = 0;
    const TraceRecord* cur_ = nullptr;
    std::size_t pos_ = 0;
    std::size_t count_ = 0;

    /** Declared last: it uses every member above. */
    std::thread producer_;
};

} // namespace triage::sim

#endif // TRIAGE_SIM_READ_AHEAD_HPP
