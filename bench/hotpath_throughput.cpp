/**
 * @file
 * hotpath_throughput — wall-clock throughput of the simulator hot path.
 *
 * Unlike the fig* benches (which reproduce the paper's *simulated*
 * numbers), this bench measures how fast the simulator itself runs:
 * simulated accesses per wall-clock second and ns per access, for
 * single-core and 4-core mixes across prefetcher configurations
 * (no prefetcher, Triage, BO+Triage hybrid).
 *
 * Each configuration runs `--reps` times through exec::run_job — the
 * same entry point the Lab and every fig* bench use — so the numbers
 * track the real experiment hot path: workload generation, core model,
 * cache hierarchy, prefetcher training and metadata maintenance.
 *
 * Noise protocol (docs/performance.md §Measurement protocol): the
 * reported throughput is the **median** rep, with the min/max spread
 * recorded alongside so a trajectory entry carries its own noise bar.
 * Earlier entries (pre hot-path v2) reported best-of-reps and carry no
 * spread fields. Host counter rates are emitted only when a live
 * perf_event sample was actually scheduled (see HwStopwatch::stop);
 * the TSC fallback still yields cycles_per_access but never an
 * instructions_per_access, which a PMU-less host cannot measure.
 *
 * Output: a table on stdout plus a JSON trajectory file
 * (BENCH_hotpath.json). `--merge-into=FILE` appends this run to an
 * existing trajectory so successive PRs can track the perf history;
 * `tools/check_stats_json --bench` validates the schema.
 *
 *   hotpath_throughput                      # full run, writes BENCH_hotpath.json
 *   hotpath_throughput --smoke              # seconds-long CI smoke
 *   hotpath_throughput --label=post-change --merge-into=BENCH_hotpath.json
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/job.hpp"
#include "exec/lab.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "sim/config.hpp"
#include "stats/table.hpp"
#include "workloads/mixes.hpp"
#include "workloads/spec.hpp"

namespace {

using triage::exec::Job;

struct Options {
    bool smoke = false;
    unsigned reps = 3;
    std::string label = "local";
    std::string out = "BENCH_hotpath.json";
    std::string merge_into;
};

struct Result {
    std::string config;   ///< prefetcher configuration name
    std::string workload; ///< "single:mcf" or "mix4:..."
    unsigned cores = 1;
    std::uint64_t accesses = 0; ///< simulated memory accesses stepped
    double seconds = 0.0;       ///< median-of-reps wall time
    double accesses_per_sec = 0.0;
    double ns_per_access = 0.0;
    /// Rep spread (noise bar); absent from pre-hot-path-v2 entries,
    /// signalled by reps == 0 when parsed back.
    double seconds_min = 0.0;
    double seconds_max = 0.0;
    unsigned reps = 0;
    /// Host hardware-counter rates for the median rep (obs::prof
    /// HwStopwatch). cycles_per_access falls back to the TSC;
    /// instructions_per_access is emitted only when a live perf_event
    /// sample was scheduled (has_hw_rates) — never a fabricated zero.
    double cycles_per_access = 0.0;
    double instructions_per_access = 0.0;
    bool has_hw_rates = false;
};

/** End-to-end sweep wall clock, cold vs checkpoint-forked. */
struct SweepWallclock {
    std::string sweep = "fig17-smoke";
    unsigned jobs = 0;         ///< jobs per sweep pass
    double cold_seconds = 0.0; ///< serial lab, cold warmups
    double ckpt_seconds = 0.0; ///< with warm-checkpoint forking
    double speedup = 0.0;      ///< cold_seconds / ckpt_seconds
};

bool
parse_args(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char* key) -> std::string {
            std::string k = std::string("--") + key + "=";
            return a.rfind(k, 0) == 0 ? a.substr(k.size()) : std::string();
        };
        if (a == "--smoke") {
            o.smoke = true;
        } else if (std::string v = val("reps"); !v.empty()) {
            o.reps = static_cast<unsigned>(std::stoul(v));
        } else if (std::string v = val("label"); !v.empty()) {
            o.label = v;
        } else if (std::string v = val("out"); !v.empty()) {
            o.out = v;
        } else if (std::string v = val("merge-into"); !v.empty()) {
            o.merge_into = v;
        } else if (a == "--jobs" || a.rfind("--jobs=", 0) == 0) {
            // Accepted for uniformity with the fig* benches; the
            // timed region is intentionally single-threaded.
        } else {
            std::cerr << "usage: hotpath_throughput [--smoke] [--reps=N]"
                         " [--label=NAME] [--out=FILE]"
                         " [--merge-into=FILE]\n";
            return false;
        }
    }
    if (o.reps == 0)
        o.reps = 1;
    return true;
}

/**
 * Time one job @p reps times and fill a Result row from the median rep
 * (lower-middle for even rep counts, so the reported numbers are
 * always an actually-observed rep, never an interpolation). The min
 * and max land in the row as the noise bar.
 */
Result
measure(const Job& job, const std::string& config,
        const std::string& workload, unsigned reps)
{
    unsigned cores = job.mix.empty()
                         ? 1u
                         : static_cast<unsigned>(job.mix.size());
    Result res;
    res.config = config;
    res.workload = workload;
    res.cores = cores;
    res.accesses =
        static_cast<std::uint64_t>(cores) *
        (job.scale.warmup_records + job.scale.measure_records);
    struct Rep {
        double sec = 0.0;
        triage::obs::prof::HwSample hw;
        bool hw_valid = false;
    };
    std::vector<Rep> runs;
    runs.reserve(reps);
    triage::obs::prof::HwStopwatch hw;
    for (unsigned r = 0; r < reps; ++r) {
        Rep rep;
        hw.start();
        auto t0 = std::chrono::steady_clock::now();
        (void)triage::exec::run_job(job);
        auto t1 = std::chrono::steady_clock::now();
        rep.hw = hw.stop(&rep.hw_valid);
        rep.sec = std::chrono::duration<double>(t1 - t0).count();
        runs.push_back(rep);
    }
    std::sort(runs.begin(), runs.end(),
              [](const Rep& a, const Rep& b) { return a.sec < b.sec; });
    const Rep& med = runs[(runs.size() - 1) / 2];
    res.seconds = med.sec;
    res.seconds_min = runs.front().sec;
    res.seconds_max = runs.back().sec;
    res.reps = reps;
    if (res.accesses > 0) {
        const double n = static_cast<double>(res.accesses);
        res.cycles_per_access = static_cast<double>(med.hw.cycles) / n;
        // Instruction rates only from a genuinely scheduled perf
        // sample: the TSC fallback and a never-co-scheduled group both
        // read 0 instructions, and emitting that as a rate is exactly
        // the "instructions_per_access": 0 artifact this gate removes.
        if (med.hw_valid) {
            res.instructions_per_access =
                static_cast<double>(med.hw.instructions) / n;
            res.has_hw_rates = true;
        }
    }
    res.accesses_per_sec = med.sec > 0.0
                               ? static_cast<double>(res.accesses) /
                                     med.sec
                               : 0.0;
    res.ns_per_access =
        res.accesses > 0
            ? med.sec * 1e9 / static_cast<double>(res.accesses)
            : 0.0;
    return res;
}

/**
 * Wall-clock the fig17-shaped smoke sweep twice: once the pre-PR-7 way
 * (serial lab, every job pays its own warmup), once the resumable-epoch
 * way (jobs sharing a (config, workload, warmup) prefix fork from one
 * memoized warm checkpoint). Both passes measure on the same serial
 * multi-core engine. The three measurement
 * windows per (mix, prefetcher) pair are what a scaling study actually
 * runs — and exactly the shape whose warmups the checkpoint store
 * collapses from three to one.
 */
SweepWallclock
measure_sweep(bool smoke)
{
    // Warm long, measure short: fig17's shape is a large shared warm
    // prefix per (mix, prefetcher) with many small measured variants
    // hanging off it — exactly what checkpoint forking amortizes.
    const std::uint64_t warm = smoke ? 60000 : 400000;
    const std::uint64_t base = smoke ? 2000 : 5000;

    auto jobs_for = [&](bool ckpt) {
        std::vector<Job> out;
        for (unsigned cores : {2u, 4u}) {
            const auto mixes = triage::workloads::make_mixes(
                triage::workloads::irregular_spec(), cores, 1,
                4321 + cores);
            for (const auto& mix : mixes)
                for (const char* spec : {"misb", "triage_dyn"})
                    for (std::uint64_t mult : {1u, 2u, 3u}) {
                        Job j;
                        j.mix = mix;
                        j.pf_spec = spec;
                        j.scale.warmup_records = warm;
                        j.scale.measure_records = base * mult;
                        out.push_back(std::move(j));
                    }
        }
        return out;
    };
    auto timed_pass = [&](bool ckpt) {
        triage::exec::LabOptions opt;
        opt.jobs = 1; // serial lab: the two passes differ only in
                      // warm-prefix forking, not scheduling
        opt.warm_checkpoints = ckpt;
        auto t0 = std::chrono::steady_clock::now();
        triage::exec::Lab lab(opt);
        for (auto& j : jobs_for(ckpt))
            lab.submit(std::move(j));
        lab.wait_all();
        auto t1 = std::chrono::steady_clock::now();
        if (ckpt && lab.checkpoints() != nullptr) {
            const auto st = lab.checkpoints()->stats();
            std::cerr << "  ckpt store: misses=" << st.misses
                      << " mem_hits=" << st.mem_hits
                      << " produces=" << st.produces << "\n";
        }
        return std::chrono::duration<double>(t1 - t0).count();
    };

    SweepWallclock s;
    s.jobs = static_cast<unsigned>(jobs_for(false).size());
    s.cold_seconds = timed_pass(false);
    s.ckpt_seconds = timed_pass(true);
    s.speedup = s.ckpt_seconds > 0.0 ? s.cold_seconds / s.ckpt_seconds
                                     : 0.0;
    return s;
}

void
emit_sweep(std::ostream& os, const SweepWallclock& s)
{
    os << "   \"sweep_wallclock\": {\"sweep\": \"" << s.sweep
       << "\", \"jobs\": " << s.jobs << ", \"cold_seconds\": "
       << std::setprecision(6) << s.cold_seconds
       << ", \"ckpt_seconds\": " << std::setprecision(6)
       << s.ckpt_seconds << ", \"speedup\": " << std::setprecision(4)
       << s.speedup << "},\n";
}

void
emit_result(std::ostream& os, const Result& r, int indent)
{
    std::string pad(static_cast<std::size_t>(indent), ' ');
    os << pad << "{\"config\": \"" << r.config << "\", \"workload\": \""
       << r.workload << "\", \"cores\": " << r.cores
       << ", \"accesses\": " << r.accesses << ",\n"
       << pad << " \"seconds\": " << std::setprecision(6) << r.seconds
       << ", \"accesses_per_sec\": " << std::setprecision(8)
       << r.accesses_per_sec << ", \"ns_per_access\": "
       << std::setprecision(6) << r.ns_per_access;
    if (r.reps > 0) {
        os << ",\n"
           << pad << " \"seconds_min\": " << std::setprecision(6)
           << r.seconds_min << ", \"seconds_max\": "
           << std::setprecision(6) << r.seconds_max
           << ", \"reps\": " << r.reps;
    }
    if (r.cycles_per_access > 0.0) {
        os << ",\n"
           << pad << " \"cycles_per_access\": " << std::setprecision(6)
           << r.cycles_per_access;
    }
    if (r.has_hw_rates) {
        os << ",\n"
           << pad << " \"instructions_per_access\": "
           << std::setprecision(6) << r.instructions_per_access;
    }
    os << "}";
}

/** Re-emit one previously parsed run object (fixed schema). */
void
emit_parsed_run(std::ostream& os, const triage::obs::json::Value& run)
{
    const auto* label = run.get("label");
    const auto* mode = run.get("mode");
    const auto* results = run.get("results");
    os << "  {\"label\": \""
       << (label != nullptr && label->is_string() ? label->str : "?")
       << "\", \"mode\": \""
       << (mode != nullptr && mode->is_string() ? mode->str : "full")
       << "\",";
    if (const auto* hb = run.get("hw_backend");
        hb != nullptr && hb->is_string())
        os << " \"hw_backend\": \"" << hb->str << "\",";
    os << "\n";
    if (const auto* sw = run.get("sweep_wallclock");
        sw != nullptr && sw->is_object()) {
        SweepWallclock s;
        if (const auto* v = sw->get("sweep"); v != nullptr)
            s.sweep = v->str;
        if (const auto* v = sw->get("jobs"); v != nullptr)
            s.jobs = static_cast<unsigned>(v->number);
        if (const auto* v = sw->get("cold_seconds"); v != nullptr)
            s.cold_seconds = v->number;
        if (const auto* v = sw->get("ckpt_seconds"); v != nullptr)
            s.ckpt_seconds = v->number;
        if (const auto* v = sw->get("speedup"); v != nullptr)
            s.speedup = v->number;
        emit_sweep(os, s);
    }
    os << "   \"results\": [\n";
    if (results != nullptr && results->is_array()) {
        for (std::size_t i = 0; i < results->array.size(); ++i) {
            const auto& e = results->array[i];
            Result r;
            if (const auto* v = e.get("config"); v != nullptr)
                r.config = v->str;
            if (const auto* v = e.get("workload"); v != nullptr)
                r.workload = v->str;
            if (const auto* v = e.get("cores"); v != nullptr)
                r.cores = static_cast<unsigned>(v->number);
            if (const auto* v = e.get("accesses"); v != nullptr)
                r.accesses = static_cast<std::uint64_t>(v->number);
            if (const auto* v = e.get("seconds"); v != nullptr)
                r.seconds = v->number;
            if (const auto* v = e.get("accesses_per_sec"); v != nullptr)
                r.accesses_per_sec = v->number;
            if (const auto* v = e.get("ns_per_access"); v != nullptr)
                r.ns_per_access = v->number;
            if (const auto* v = e.get("seconds_min"); v != nullptr)
                r.seconds_min = v->number;
            if (const auto* v = e.get("seconds_max"); v != nullptr)
                r.seconds_max = v->number;
            if (const auto* v = e.get("reps"); v != nullptr)
                r.reps = static_cast<unsigned>(v->number);
            if (const auto* v = e.get("cycles_per_access"); v != nullptr)
                r.cycles_per_access = v->number;
            // Same gate as fresh results: a 0 here is the
            // never-scheduled-counter artifact, not a rate — drop it
            // on re-emit rather than carrying it forward forever.
            if (const auto* v = e.get("instructions_per_access");
                v != nullptr && v->number > 0.0) {
                r.instructions_per_access = v->number;
                r.has_hw_rates = true;
            }
            emit_result(os, r, 4);
            os << (i + 1 < results->array.size() ? ",\n" : "\n");
        }
    }
    os << "  ]}";
}

int
write_trajectory(const Options& o, const std::vector<Result>& results,
                 const SweepWallclock& sweep)
{
    // Existing runs to carry forward (--merge-into).
    std::vector<triage::obs::json::Value> prior;
    if (!o.merge_into.empty()) {
        std::ifstream in(o.merge_into);
        if (in) {
            std::ostringstream buf;
            buf << in.rdbuf();
            std::string err;
            auto root = triage::obs::json::parse(buf.str(), &err);
            if (!root.has_value()) {
                std::cerr << "hotpath_throughput: cannot merge into "
                          << o.merge_into << ": " << err << "\n";
                return 1;
            }
            if (const auto* runs = root->get("runs");
                runs != nullptr && runs->is_array())
                prior = runs->array;
        }
    }

    const std::string& path =
        o.merge_into.empty() ? o.out : o.merge_into;
    std::ofstream f(path);
    if (!f) {
        std::cerr << "hotpath_throughput: cannot write " << path << "\n";
        return 1;
    }
    f << "{\"bench\": \"hotpath_throughput\", \"unit\": "
         "\"simulated accesses per wall-clock second\",\n \"runs\": [\n";
    for (const auto& run : prior) {
        emit_parsed_run(f, run);
        f << ",\n";
    }
    triage::obs::prof::HwStopwatch probe;
    f << "  {\"label\": \"" << o.label << "\", \"mode\": \""
      << (o.smoke ? "smoke" : "full") << "\", \"hw_backend\": \""
      << triage::obs::prof::Profiler::backend_name(probe.backend())
      << "\",\n";
    emit_sweep(f, sweep);
    f << "   \"results\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        emit_result(f, results[i], 4);
        f << (i + 1 < results.size() ? ",\n" : "\n");
    }
    f << "  ]}\n ]}\n";
    std::cout << "trajectory: " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parse_args(argc, argv, o))
        return 2;

    triage::sim::MachineConfig cfg;
    triage::stats::RunScale single, mix;
    if (o.smoke) {
        o.reps = 1;
        single.warmup_records = 5000;
        single.measure_records = 20000;
        mix.warmup_records = 2000;
        mix.measure_records = 8000;
    } else {
        single.warmup_records = 200000;
        single.measure_records = 1000000;
        mix.warmup_records = 50000;
        mix.measure_records = 250000;
    }

    const std::vector<std::pair<std::string, std::string>> pf_configs = {
        {"baseline", "none"},
        {"triage", "triage_dyn"},
        {"hybrid", "bo+triage_dyn"},
    };
    const triage::workloads::Mix mix4 = {"mcf", "omnetpp", "bwaves",
                                         "sphinx3"};

    std::vector<Result> results;
    for (const auto& [name, spec] : pf_configs) {
        Job j;
        j.config = cfg;
        j.benchmark = "mcf";
        j.pf_spec = spec;
        j.scale = single;
        results.push_back(measure(j, name, "single:mcf", o.reps));
        std::cerr << "  done " << name << " single:mcf\n";
    }
    for (const auto& [name, spec] : pf_configs) {
        Job j;
        j.config = cfg;
        j.mix = mix4;
        j.pf_spec = spec;
        j.scale = mix;
        results.push_back(
            measure(j, name, "mix4:mcf,omnetpp,bwaves,sphinx3", o.reps));
        std::cerr << "  done " << name << " mix4\n";
    }

    triage::stats::Table t({"config", "workload", "cores", "accesses",
                            "sec(med)", "sec(min..max)", "acc/s",
                            "ns/access", "cyc/access"});
    for (const auto& r : results) {
        std::ostringstream rate, ns, sec, spread, cyc;
        rate << std::fixed << std::setprecision(0) << r.accesses_per_sec;
        ns << std::fixed << std::setprecision(1) << r.ns_per_access;
        sec << std::fixed << std::setprecision(3) << r.seconds;
        spread << std::fixed << std::setprecision(3) << r.seconds_min
               << ".." << r.seconds_max;
        cyc << std::fixed << std::setprecision(1) << r.cycles_per_access;
        t.row({r.config, r.workload, std::to_string(r.cores),
               std::to_string(r.accesses), sec.str(), spread.str(),
               rate.str(), ns.str(), cyc.str()});
    }
    t.print(std::cout);
    {
        triage::obs::prof::HwStopwatch probe;
        std::cout << "hw counters: "
                  << triage::obs::prof::Profiler::backend_name(
                         probe.backend())
                  << " backend\n";
    }

    std::cerr << "  running fig17-smoke sweep (cold vs checkpointed)\n";
    const SweepWallclock sweep = measure_sweep(o.smoke);
    std::cout << "sweep_wallclock (" << sweep.sweep << ", "
              << sweep.jobs << " jobs): cold " << std::fixed
              << std::setprecision(3) << sweep.cold_seconds
              << "s, checkpointed " << sweep.ckpt_seconds
              << "s -> " << std::setprecision(2) << sweep.speedup
              << "x\n";

    return write_trajectory(o, results, sweep);
}
