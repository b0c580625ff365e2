#include "sim/measure_taps.hpp"

#include <algorithm>
#include <functional>

namespace triage::sim {

bool
MeasureTaps::add(std::uint64_t records)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_)
        return false;
    windows_.push_back(records);
    return true;
}

std::vector<std::uint64_t>
MeasureTaps::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    std::sort(windows_.begin(), windows_.end(),
              std::greater<std::uint64_t>());
    return std::move(windows_);
}

void
MeasureTaps::emit(std::uint64_t records, RunResult r)
{
    sink_(records, std::move(r));
}

} // namespace triage::sim
