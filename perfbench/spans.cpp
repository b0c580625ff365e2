#include "spans.hpp"

#include <fstream>

namespace perfbench {

std::int64_t
SpanRecorder::open(std::string name, std::int64_t parent, std::uint64_t job)
{
    const std::uint64_t t = now_ns() - t0_;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), t, t, parent, job, 1, 0});
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void
SpanRecorder::close(std::int64_t id)
{
    const std::uint64_t t = now_ns() - t0_;
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = t;
    s.busy_ns = t - s.start_ns;
}

void
SpanRecorder::rollup(std::string name, std::int64_t parent,
                     std::uint64_t job, std::uint64_t calls,
                     std::uint64_t busy_ns)
{
    std::lock_guard<std::mutex> lock(mu_);
    Span s{std::move(name), 0, 0, parent, job, calls, busy_ns};
    if (parent >= 0) {
        const Span& p = spans_[static_cast<std::size_t>(parent)];
        s.start_ns = p.start_ns;
        s.end_ns = p.end_ns;
    }
    spans_.push_back(std::move(s));
}

void
SpanRecorder::add(std::string name, std::int64_t parent, std::uint64_t job,
                  std::uint64_t abs_start_ns, std::uint64_t abs_end_ns)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), abs_start_ns - t0_,
                      abs_end_ns - t0_, parent, job, 1,
                      abs_end_ns - abs_start_ns});
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
SpanRecorder::write_json(const std::string& path) const
{
    std::ofstream out(path);
    out << "[\n";
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        out << "  {\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
            << ", \"job\": " << s.job << ", \"calls\": " << s.calls
            << ", \"busy_ns\": " << s.busy_ns << "}"
            << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
