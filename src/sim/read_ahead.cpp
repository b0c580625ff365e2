#include "sim/read_ahead.hpp"

#include <algorithm>
#include <utility>

#include "util/log.hpp"

namespace triage::sim {

ReadAheadWorkload::ReadAheadWorkload(std::unique_ptr<Workload> inner,
                                     std::uint64_t read_limit)
    : inner_(std::move(inner)), read_limit_(read_limit), budget_(read_limit)
{
    TRIAGE_ASSERT(inner_ != nullptr, "ReadAheadWorkload: no inner workload");
}

ReadAheadWorkload::~ReadAheadWorkload()
{
    if (producer_.joinable())
        join();
}

TraceRecord*
ReadAheadWorkload::block_records(std::uint64_t seq)
{
    return &ring_[(seq % kBlocks) * kBlockRecords];
}

void
ReadAheadWorkload::reset()
{
    if (producer_.joinable()) {
        const std::uint64_t unread = join();
        TRIAGE_ASSERT(unread == 0, "ReadAheadWorkload: reset() in mid-stream");
    }
    error_ = nullptr;
    pass_pos_ = 0;
    inner_->reset();
}

bool
ReadAheadWorkload::next(TraceRecord& out)
{
    if (pos_ < count_) {
        out = cur_[pos_++];
        return true;
    }
    return refill(out);
}

bool
ReadAheadWorkload::refill(TraceRecord& out)
{
    for (;;) {
        if (producer_.joinable()) {
            const End end = blocks_[held_ % kBlocks].end;
            if (end != End::More) {
                pass_pos_ += held_ * kBlockRecords + count_;
                join();
                if (end == End::Eof) {
                    // A pass shorter than a block is made whole before
                    // its first record is handed out, so nothing
                    // overlaps: read the later passes inline.
                    if (pass_pos_ < kBlockRecords)
                        budget_ = 0;
                    return false;
                }
                if (end == End::Error)
                    std::rethrow_exception(std::exchange(error_, nullptr));
                return inner_->next(out); // past the read limit
            }
            {
                std::lock_guard<std::mutex> lk(mu_);
                drained_ = ++held_;
            }
            cv_.notify_one();
        } else {
            if (budget_ == 0)
                return inner_->next(out);
            if (ring_.empty())
                ring_.resize(kBlocks * kBlockRecords);
            producer_ = std::thread([this] { produce(); });
        }
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [&] { return filled_ > held_; });
        }
        cur_ = block_records(held_);
        pos_ = 0;
        count_ = blocks_[held_ % kBlocks].count;
        if (pos_ < count_) {
            out = cur_[pos_++];
            return true;
        }
    }
}

void
ReadAheadWorkload::produce()
{
    for (std::uint64_t seq = 0;; ++seq) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk,
                     [&] { return stop_ || seq - drained_ < kBlocks; });
            if (stop_)
                return;
        }
        Block& b = blocks_[seq % kBlocks];
        TraceRecord* recs = block_records(seq);
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(kBlockRecords, budget_));
        b.count = 0;
        b.end = End::More;
        try {
            while (b.count < want && inner_->next(recs[b.count]))
                ++b.count;
            if (b.count < want)
                b.end = End::Eof;
        } catch (...) {
            error_ = std::current_exception();
            b.end = End::Error;
        }
        budget_ -= b.count;
        if (b.end == End::More && budget_ == 0)
            b.end = End::Limit;
        {
            std::lock_guard<std::mutex> lk(mu_);
            filled_ = seq + 1;
        }
        cv_.notify_one();
        if (b.end != End::More)
            return;
    }
}

std::uint64_t
ReadAheadWorkload::join()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_one();
    producer_.join();
    // The producer publishes every block it starts, so the published
    // blocks hold everything it pulled.
    std::uint64_t unread = count_ - pos_;
    for (std::uint64_t seq = held_ + 1; seq < filled_; ++seq)
        unread += blocks_[seq % kBlocks].count;
    filled_ = drained_ = held_ = 0;
    stop_ = false;
    cur_ = nullptr;
    pos_ = count_ = 0;
    return unread;
}

std::uint64_t
ReadAheadWorkload::skip(std::uint64_t n)
{
    if (producer_.joinable())
        return Workload::skip(n); // mid-stream: read through the ring
    const std::uint64_t got = inner_->skip(n);
    budget_ -= std::min(got, budget_);
    pass_pos_ += got;
    return got;
}

std::unique_ptr<Workload>
ReadAheadWorkload::clone() const
{
    TRIAGE_ASSERT(!producer_.joinable(),
                  "ReadAheadWorkload: clone() in mid-stream");
    return std::make_unique<ReadAheadWorkload>(inner_->clone(), read_limit_);
}

} // namespace triage::sim
