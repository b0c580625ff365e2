/**
 * @file
 * The repository benchmark's driver: builds one workload's jobs from a
 * seed, times them for a fixed budget, checks every output, and prints
 * one JSON result line. perfbench/run.py builds this program and calls
 * it; see perfbench/README.md for the workloads and every metric.
 *
 *   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
 *                    --out=DIR [--smoke]
 *
 * --trace=0 prints the end-to-end metrics; --trace=1 runs the same jobs
 * untraced and then traced and prints the per-layer metrics.
 */
#include <sys/resource.h>
#include <zlib.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/job.hpp"
#include "exec/lab.hpp"
#include "frontend/byte_source.hpp"
#include "frontend/frontend.hpp"
#include "obs/profile.hpp"
#include "stats/experiment.hpp"
#include "traced.hpp"
#include "util/simd_probe.hpp"
#include "verify/diff.hpp"
#include "workloads/mixes.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_io.hpp"

namespace fs = std::filesystem;
namespace exec = triage::exec;
namespace sim = triage::sim;
namespace wl = triage::workloads;
using perfbench::JobCounters;
using perfbench::now_ns;

namespace {

// --- Workload definitions ----------------------------------------------
//
// Why each workload exists is in README.md. Job sizes are the ones the
// figures use: the triagesim default (400k warmup + 1M measure) for the
// single-core workloads, and the fig17 per-core windows (250k warmup,
// measure up to 450k) for mix_sweep. --smoke shrinks every job to a few
// thousand records.

struct Sizes {
    std::uint64_t warmup;
    std::vector<std::uint64_t> measures;
};

const std::vector<std::string> kIrregular = {"mcf", "omnetpp", "soplex_k",
                                             "xalancbmk"};
const std::vector<std::string> kRegular = {"libquantum", "lbm", "bwaves"};
const std::vector<std::string> kSinglePfs = {"none", "triage_dyn"};
const std::vector<std::string> kTracePfs = {"none", "bo"};
const std::vector<std::string> kMixPfs = {"none", "triage_dyn", "misb"};
/** Core count of each mix a sweep draws. At fig17 windows one 8-core
 *  mix alone makes a 35 s pass, more than a run can hold, so the sweep
 *  draws two 4-core mixes (see README.md). */
const std::vector<unsigned> kMixCores = {4, 4};
/** bench/fig17_core_scaling.cpp draws its N-core mixes with seed
 *  4321 + N. */
constexpr std::uint64_t kFig17MixSeed = 4321;
constexpr unsigned kSetupReps = 5;
constexpr unsigned kColdChecks = 1;
/** The untimed warm-up pass runs every job at 1/kWarmupShrink of its
 *  size: enough to grow the allocator's arenas to the table sizes the
 *  timed passes reuse, which only the machine config decides. */
constexpr std::uint64_t kWarmupShrink = 20;
/** Timed passes per run at the least. A mix_sweep pass runs about as
 *  long as its slowest job, so one pass alone moves with that job. */
constexpr std::size_t kMinPasses = 2;

Sizes
sizes_for(const std::string& workload, bool smoke)
{
    if (workload == "mix_sweep")
        return smoke ? Sizes{2000, {2000, 4000, 6000}}
                     : Sizes{250000, {150000, 300000, 450000}};
    return smoke ? Sizes{5000, {20000}} : Sizes{400000, {1000000}};
}

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string out = ".bench_build/perfbench-out";
};

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The per-slot generator jitter run_job derives from a Job. */
std::uint64_t
jitter_of(const exec::Job& job)
{
    return job.replica == 0 ? 0 : exec::key_of(job).derived_seed();
}

/**
 * The mixes of a sweep: the first mixes fig17 draws for their core
 * count (make_mixes with fig17's seed). They are the same for every
 * seed. Drawing them with the seed moved the pass time by a quarter
 * from seed to seed, and so did only placing fig17's analogs on the
 * cores in a seeded order; the same seed repeated within 8%.
 */
std::vector<wl::Mix>
fig17_mixes()
{
    std::vector<wl::Mix> mixes;
    for (std::size_t k = 0; k < kMixCores.size(); ++k) {
        const unsigned cores = kMixCores[k];
        const std::size_t earlier = static_cast<std::size_t>(
            std::count(kMixCores.begin(), kMixCores.begin() + k, cores));
        mixes.push_back(wl::make_mixes(wl::irregular_spec(), cores,
                                       static_cast<unsigned>(earlier + 1),
                                       kFig17MixSeed + cores)[earlier]);
    }
    return mixes;
}

std::uint64_t
accesses_of(const exec::Job& job)
{
    const std::uint64_t cores = job.mix.empty() ? 1 : job.mix.size();
    return cores * (job.scale.warmup_records + job.scale.measure_records);
}

double
seconds_since(std::uint64_t t0)
{
    return static_cast<double>(now_ns() - t0) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean_ipc(const sim::RunResult& r)
{
    double s = 0.0;
    for (const auto& c : r.per_core)
        s += c.ipc();
    return r.per_core.empty() ? 0.0 : s / static_cast<double>(r.per_core.size());
}

bool
nonzero_work(const sim::RunResult& r)
{
    if (r.per_core.empty())
        return false;
    for (const auto& c : r.per_core) {
        if (c.instructions == 0 || c.cycles == 0)
            return false;
    }
    return true;
}

double
cpu_seconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Host-wide jiffies from /proc/stat: {steal, total}; zeros if absent. */
std::pair<std::uint64_t, std::uint64_t>
proc_stat_cpu()
{
    std::ifstream in("/proc/stat");
    std::string tag;
    in >> tag;
    if (tag != "cpu")
        return {0, 0};
    std::uint64_t v[8] = {};
    std::uint64_t total = 0;
    for (std::uint64_t& x : v) {
        in >> x;
        total += x;
    }
    return {v[7], total};
}

// --- Job lists ---------------------------------------------------------

struct Plan {
    std::vector<exec::Job> jobs;
    /** For each job, the index of its no-prefetch baseline (itself for
     *  a baseline job); sim_speedup pairs jobs through it. */
    std::vector<std::size_t> baseline;
    /** trace_replay: the analog each trace was generated from, its
     *  generator jitter, path and compressed size. */
    struct Trace {
        std::string analog;
        std::uint64_t jitter = 0;
        std::string path;
        std::uint64_t records = 0;
        std::uint64_t bytes = 0;
    };
    std::vector<Trace> traces;
    std::vector<std::size_t> trace_of; ///< per job (trace_replay)
};

exec::Job
base_job(const std::string& pf, std::uint64_t warm, std::uint64_t measure)
{
    exec::Job j;
    j.pf_spec = pf;
    j.scale.warmup_records = warm;
    j.scale.measure_records = measure;
    return j;
}

/** Gzip @p raw into @p gz at level 1 (fast; traces are written on
 *  every setup). */
bool
gzip_file(const std::string& raw, const std::string& gz)
{
    std::ifstream in(raw, std::ios::binary);
    gzFile out = gzopen(gz.c_str(), "wb1");
    if (!in || out == nullptr) {
        if (out != nullptr)
            gzclose(out);
        return false;
    }
    std::vector<char> buf(1 << 20);
    bool ok = true;
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        const auto n = static_cast<unsigned>(in.gcount());
        if (n > 0 && gzwrite(out, buf.data(), n) != static_cast<int>(n))
            ok = false;
    }
    return gzclose(out) == Z_OK && ok;
}

/** Write a seeded .tria.gz trace of @p records records of @p analog. */
Plan::Trace
write_trace(const std::string& dir, const std::string& analog,
            std::uint64_t jitter, std::uint64_t records)
{
    Plan::Trace t;
    t.analog = analog;
    t.jitter = jitter;
    t.records = records;
    const std::string raw = dir + "/" + analog + ".tria";
    t.path = raw + ".gz";
    auto gen = wl::make_benchmark(analog, 1.0, jitter);
    if (gen == nullptr)
        throw std::runtime_error("unknown analog " + analog);
    if (wl::save_trace(raw, *gen, records) != records)
        throw std::runtime_error("short trace write: " + raw);
    if (!gzip_file(raw, t.path))
        throw std::runtime_error("gzip failed: " + t.path);
    fs::remove(raw);
    t.bytes = fs::file_size(t.path);
    return t;
}

/** Everything a run's timed region needs, built from the seed. This is
 *  the work setup_s times. */
Plan
make_plan(const Args& a, const std::string& workload, bool smoke)
{
    const Sizes sz = sizes_for(workload, smoke);
    const auto replica = static_cast<std::uint32_t>(a.seed);
    Plan p;
    auto add_pair_set = [&](const std::vector<std::string>& pfs,
                            const std::function<void(exec::Job&)>& fill) {
        const std::size_t first = p.jobs.size();
        for (const auto& pf : pfs) {
            exec::Job j = base_job(pf, sz.warmup, sz.measures.front());
            fill(j);
            p.baseline.push_back(first);
            p.jobs.push_back(std::move(j));
        }
    };

    if (workload == "single_irregular") {
        for (const auto& analog : kIrregular) {
            add_pair_set(kSinglePfs, [&](exec::Job& j) {
                j.benchmark = analog;
                j.replica = replica;
            });
        }
        // Construct every generator once, as run_job will: the cost a
        // figure bench pays before its first job.
        for (const auto& j : p.jobs) {
            if (wl::make_workload(j.benchmark, 1.0, jitter_of(j)) == nullptr)
                throw std::runtime_error("unknown analog " + j.benchmark);
        }
    } else if (workload == "trace_replay") {
        // One file per seed, so no run can see another seed's trace
        // under the same path (JobKeys name a trace by path and size).
        const std::string dir =
            a.out + "/traces/s" + std::to_string(a.seed);
        fs::create_directories(dir);
        const std::uint64_t records = sz.warmup + sz.measures.front();
        for (const auto& analog : kRegular) {
            p.traces.push_back(write_trace(
                dir, analog, splitmix64(a.seed ^ 0x7472616365ULL), records));
            const std::size_t t = p.traces.size() - 1;
            add_pair_set(kTracePfs, [&](exec::Job& j) {
                j.benchmark = triage::frontend::trace_spec(
                    p.traces[t].path, triage::frontend::TraceFormat::Tria);
                j.replica = replica;
            });
            p.trace_of.resize(p.jobs.size(), t);
        }
    } else if (workload == "mix_sweep") {
        // Job::replica stays 0 here: run_job derives a replica's
        // generator jitter from the whole JobKey, measure length
        // included, while warm checkpoints are shared across measure
        // lengths, so a forked replica would restore another stream's
        // warm state (see README.md, "Known defects"). The seed picks
        // only the job the cold check re-runs (see fig17_mixes).
        //
        // Longest measure length first. Those jobs produce the warm
        // checkpoints the shorter ones fork from, so the longest chain
        // of a pass is one warmup plus the longest measure, and no long
        // job straggles at the end of it.
        const std::vector<wl::Mix> mixes = fig17_mixes();
        std::vector<std::uint64_t> order = sz.measures;
        std::sort(order.rbegin(), order.rend());
        for (std::uint64_t m : order) {
            for (const wl::Mix& mix : mixes) {
                const std::size_t first = p.jobs.size();
                for (const auto& pf : kMixPfs) {
                    exec::Job j = base_job(pf, sz.warmup, m);
                    j.mix = mix;
                    p.baseline.push_back(first);
                    p.jobs.push_back(std::move(j));
                }
            }
        }
        for (const wl::Mix& mix : mixes) {
            for (unsigned c = 0; c < mix.size(); ++c) {
                if (wl::make_workload(mix[c], 1.0, 0, c) == nullptr)
                    throw std::runtime_error("unknown analog " + mix[c]);
            }
        }
    } else {
        throw std::runtime_error("unknown workload '" + workload + "'");
    }
    return p;
}

// --- Untraced execution ------------------------------------------------

struct Outcome {
    bool ok = false;
    std::string why;
    double seconds = 0.0;
    sim::RunResult result;
};

std::vector<Outcome>
run_single_pass(const Plan& p)
{
    std::vector<Outcome> out(p.jobs.size());
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
        const std::uint64_t t0 = now_ns();
        try {
            out[i].result = exec::run_job(p.jobs[i]);
            out[i].ok = true;
        } catch (const std::exception& e) {
            out[i].why = std::string("threw: ") + e.what();
        }
        out[i].seconds = seconds_since(t0);
    }
    return out;
}

struct LabStats {
    double wall_s = 0.0;
    unsigned workers = 0;
    std::uint64_t busy_ns = 0;
    exec::CheckpointStore::Stats ckpt;
    std::size_t runs_executed = 0;
};

/**
 * One fig17-shaped sweep through a fresh Lab: every job submitted at
 * once, warm checkpoints on, nproc workers. A job that throws on a Lab
 * worker ends the process (the Lab has no exception channel); the run
 * then prints no result and run.py reports it as failed.
 */
std::vector<Outcome>
run_lab_pass(const std::vector<exec::Job>& jobs, unsigned workers,
             LabStats* stats)
{
    exec::LabOptions lo;
    lo.jobs = workers;
    lo.warm_checkpoints = true;
    const std::uint64_t t0 = now_ns();
    exec::Lab lab(lo);
    std::vector<exec::Lab::JobId> ids;
    for (const auto& j : jobs)
        ids.push_back(lab.submit(j));
    lab.wait_all();
    std::vector<Outcome> out(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        out[i].result = lab.result(ids[i]);
        out[i].ok = true;
    }
    const double wall = seconds_since(t0);
    // Lab spans come back in completion order, not submission order;
    // only the sum of job times is reported, so that is enough.
    std::vector<triage::obs::perfetto::JobSpan> spans = lab.job_spans();
    for (std::size_t i = 0; i < spans.size() && i < out.size(); ++i)
        out[i].seconds =
            static_cast<double>(spans[i].end_us - spans[i].start_us) * 1e-6;
    if (stats != nullptr) {
        stats->wall_s = wall;
        stats->workers = lab.workers();
        for (const auto& w : lab.worker_stats())
            stats->busy_ns += w.busy_ns;
        if (lab.checkpoints() != nullptr)
            stats->ckpt = lab.checkpoints()->stats();
        stats->runs_executed = lab.runs_executed();
    }
    return out;
}

unsigned
lab_workers()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

// --- Checks ------------------------------------------------------------

/** Mark every outcome failed whose result is empty or differs from
 *  @p reference (when given). */
void
check_outcomes(std::vector<Outcome>& out,
               const std::vector<Outcome>* reference)
{
    for (std::size_t i = 0; i < out.size(); ++i) {
        Outcome& o = out[i];
        if (!o.ok)
            continue;
        if (!nonzero_work(o.result)) {
            o.ok = false;
            o.why = "zero instructions or cycles";
        } else if (reference != nullptr && (*reference)[i].ok &&
                   !triage::verify::diff_results(o.result,
                                                 (*reference)[i].result)
                        .empty()) {
            o.ok = false;
            o.why = "result differs from the first pass";
        }
    }
}

/** trace_replay: the streamed job must equal the same records run from
 *  the in-memory generator. */
void
check_streamed(const Plan& p, std::vector<Outcome>& first)
{
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
        if (!first[i].ok)
            continue;
        const Plan::Trace& t = p.traces[p.trace_of[i]];
        exec::Job g = p.jobs[i];
        g.benchmark.clear();
        g.variant = "gen:" + t.analog;
        g.workload_factory = [t] {
            return std::unique_ptr<sim::Workload>(
                wl::make_benchmark(t.analog, 1.0, t.jitter));
        };
        try {
            const sim::RunResult r = exec::run_job(g);
            const auto d = triage::verify::diff_results(first[i].result, r);
            if (!d.empty()) {
                first[i].ok = false;
                first[i].why = "streamed trace differs from its generator: " +
                               d.front();
            }
        } catch (const std::exception& e) {
            first[i].ok = false;
            first[i].why = std::string("generator re-run threw: ") + e.what();
        }
    }
}

/** mix_sweep: a sampled job re-run cold (no warm checkpoints) must
 *  equal its checkpoint-forked result. The sample is drawn from the
 *  shortest measure length: those jobs fork from the warm state the
 *  longest jobs produced, and re-run cold they cost the least. */
void
check_cold(const Plan& p, std::uint64_t seed, std::uint64_t forked_measure,
           std::vector<Outcome>& first)
{
    std::vector<std::size_t> forked;
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
        if (p.jobs[i].scale.measure_records == forked_measure)
            forked.push_back(i);
    }
    std::vector<std::size_t> sample;
    for (unsigned k = 0; k < kColdChecks && !forked.empty(); ++k) {
        const std::size_t pick =
            splitmix64(seed + k) % forked.size();
        sample.push_back(forked[pick]);
        forked.erase(forked.begin() + static_cast<long>(pick));
    }
    exec::LabOptions lo;
    lo.jobs = static_cast<unsigned>(sample.size());
    lo.warm_checkpoints = false;
    exec::Lab cold(lo);
    std::vector<exec::Lab::JobId> ids;
    for (std::size_t i : sample)
        ids.push_back(cold.submit(p.jobs[i]));
    for (std::size_t k = 0; k < sample.size(); ++k) {
        Outcome& o = first[sample[k]];
        const auto d =
            triage::verify::diff_results(o.result, cold.result(ids[k]));
        if (o.ok && !d.empty()) {
            o.ok = false;
            o.why = "checkpoint-forked result differs from a cold run: " +
                    d.front();
        }
    }
}

// --- Output ------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string& s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o + "\"";
}

void
print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<Metric>& metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << quoted(metrics[i].name) << ": {\"value\": "
           << num(metrics[i].value) << ", \"unit\": "
           << quoted(metrics[i].unit) << "}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

void
print_provenance()
{
    const char* prof = triage::obs::prof::Profiler::backend_name(
        triage::obs::prof::Profiler::instance().backend());
    std::cout << "{\"provenance\": {\"build_type\": " << quoted(PB_BUILD_TYPE)
              << ", \"lto\": " << quoted(PB_LTO)
              << ", \"sanitize\": " << quoted(PB_SANITIZE)
              << ", \"verify\": " << quoted(PB_VERIFY)
              << ", \"simd_option\": " << quoted(PB_SIMD_OPTION)
              << ", \"simd_dispatch\": "
              << quoted(triage::util::simd::active_kernel())
              << ", \"gz_backend\": "
              << quoted(triage::frontend::gz_backend())
              << ", \"xz_backend\": "
              << quoted(triage::frontend::xz_backend())
              << ", \"profiler_backend\": " << quoted(prof)
              << ", \"compiler\": " << quoted(PB_COMPILER)
              << ", \"hardware_concurrency\": "
              << std::thread::hardware_concurrency() << "}}" << std::endl;
}

/** Refuse builds whose timings would not be comparable. */
bool
build_is_benchmarkable(std::string& why)
{
    if (std::string(PB_BUILD_TYPE) != "Release")
        why = "build type is '" PB_BUILD_TYPE "', not Release";
    else if (std::string(PB_SANITIZE) != "")
        why = "sanitizer build (" PB_SANITIZE ")";
    else if (std::string(PB_VERIFY) == "ON")
        why = "TRIAGE_VERIFY=ON build";
    return why.empty();
}

// --- End-to-end run ----------------------------------------------------

std::vector<Outcome>
run_pass(const Plan& p, const std::string& workload,
         LabStats* lab = nullptr)
{
    return workload == "mix_sweep" ? run_lab_pass(p.jobs, lab_workers(), lab)
                                   : run_single_pass(p);
}

/** Every job of @p p at 1/kWarmupShrink of its size. */
Plan
shrunk(const Plan& p)
{
    Plan w = p;
    for (auto& j : w.jobs) {
        j.scale.warmup_records =
            std::max<std::uint64_t>(1, j.scale.warmup_records / kWarmupShrink);
        j.scale.measure_records = std::max<std::uint64_t>(
            1, j.scale.measure_records / kWarmupShrink);
    }
    return w;
}

/** The first pass in a process can run slower (the allocator is
 *  still growing its arenas to the sizes later passes reuse), which
 *  users of a long sweep pay once. So an untimed, shrunk warm-up pass
 *  comes first. Every pass is checked; passes[0] is the reference the
 *  later passes must equal. */
struct TimedRegion {
    std::vector<Outcome> warmup;
    std::vector<std::vector<Outcome>> passes;
    std::vector<double> pass_s; ///< wall time of each timed pass
    std::vector<LabStats> lab;  ///< mix_sweep: each timed pass's Lab
    double warmup_s = 0.0;
    double wall_s = 0.0;
};

TimedRegion
run_timed(const Plan& p, const std::string& workload, double seconds)
{
    TimedRegion t;
    const std::uint64_t tw = now_ns();
    t.warmup = run_pass(shrunk(p), workload);
    t.warmup_s = seconds_since(tw);
    const std::uint64_t t0 = now_ns();
    // Whole passes only, so every run times the same mix of jobs; at
    // least kMinPasses, then stop at the pass count that lands closest
    // to the budget.
    for (;;) {
        const std::uint64_t tp = now_ns();
        t.lab.emplace_back();
        t.passes.push_back(run_pass(p, workload, &t.lab.back()));
        const double pass_s = seconds_since(tp);
        t.pass_s.push_back(pass_s);
        const double elapsed = seconds_since(t0);
        if (t.passes.size() >= kMinPasses && elapsed + pass_s / 2 > seconds)
            break;
    }
    t.wall_s = seconds_since(t0);
    return t;
}

// --- Host state --------------------------------------------------------
//
// Printed on the info line of every run, so that a run whose figures
// moved can be told apart from a host that changed under it.

/** Mean "cpu MHz" over /proc/cpuinfo; 0 where the kernel gives none. */
double
cpu_mhz()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    double sum = 0.0;
    unsigned n = 0;
    while (std::getline(in, line)) {
        if (line.rfind("cpu MHz", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos) {
            sum += std::atof(line.c_str() + colon + 1);
            ++n;
        }
    }
    return n == 0 ? 0.0 : sum / n;
}

/** AnonHugePages of this process in kB (/proc/self/smaps_rollup). */
std::uint64_t
anon_huge_kb()
{
    std::ifstream in("/proc/self/smaps_rollup");
    std::string key;
    std::uint64_t kb = 0;
    while (in >> key) {
        if (key == "AnonHugePages:") {
            in >> kb;
            return kb;
        }
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0;
}

/** Samples AnonHugePages once a second on a thread of its own and keeps
 *  the peak: whether util::hint_hugepages got huge pages can differ
 *  from one process to the next. */
class HugePageSampler
{
  public:
    HugePageSampler() : thread_([this] { loop(); }) {}
    ~HugePageSampler() { stop(); }

    /** Stop sampling (idempotent) and return the peak in kB. */
    std::uint64_t
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
        return peak_kb_;
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!done_) {
            peak_kb_ = std::max(peak_kb_, anon_huge_kb());
            cv_.wait_for(lock, std::chrono::seconds(1));
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::uint64_t peak_kb_ = 0;
    std::thread thread_; ///< last: starts once the fields above exist
};

/** Host readings taken at the start of a run and closed at its end. */
class HostWatch
{
  public:
    HostWatch()
        : stat0_(proc_stat_cpu()), cpu0_(cpu_seconds()), wall0_(now_ns()),
          mhz0_(cpu_mhz())
    {}

    /** Process CPU seconds over wall seconds since the start. */
    double
    cpu_wall() const
    {
        return (cpu_seconds() - cpu0_) / seconds_since(wall0_);
    }

    /** Share of host jiffies stolen since the start. */
    double
    steal() const
    {
        const auto s1 = proc_stat_cpu();
        const auto total = s1.second - stat0_.second;
        return total == 0 ? 0.0
                          : static_cast<double>(s1.first - stat0_.first) /
                                static_cast<double>(total);
    }

    /** The info-line fields, ending the huge-page sampling. */
    std::string
    fields()
    {
        std::ostringstream os;
        os << "\"host\": {\"cpu_wall_ratio\": " << num(cpu_wall())
           << ", \"steal_frac\": " << num(steal())
           << ", \"cpu_mhz_start\": " << num(mhz0_)
           << ", \"cpu_mhz_end\": " << num(cpu_mhz())
           << ", \"anon_huge_peak_kb\": " << huge_.stop()
           << ", \"anon_huge_end_kb\": " << anon_huge_kb() << "}";
        return os.str();
    }

  private:
    std::pair<std::uint64_t, std::uint64_t> stat0_;
    double cpu0_;
    std::uint64_t wall0_;
    double mhz0_;
    HugePageSampler huge_;
};

double
sim_speedup(const Plan& p, const std::vector<Outcome>& first)
{
    double log_sum = 0.0;
    unsigned n = 0;
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
        const std::size_t b = p.baseline[i];
        if (b == i || !first[i].ok || !first[b].ok)
            continue;
        const double base = mean_ipc(first[b].result);
        const double with = mean_ipc(first[i].result);
        if (base > 0.0 && with > 0.0) {
            log_sum += std::log(with / base);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(log_sum / n);
}

void
report_failures(const std::vector<Outcome>& out, const Plan& p)
{
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (!out[i].ok)
            std::cerr << "perfbench: job " << i << " ("
                      << exec::key_of(p.jobs[i]).str() << ") failed: "
                      << out[i].why << "\n";
    }
}

int
run_end_to_end(const Args& a)
{
    HostWatch host;
    std::vector<double> setup;
    Plan plan;
    for (unsigned r = 0; r < kSetupReps; ++r) {
        const std::uint64_t t0 = now_ns();
        plan = make_plan(a, a.workload, a.smoke);
        setup.push_back(seconds_since(t0));
    }

    TimedRegion t = run_timed(plan, a.workload, a.seconds);

    std::vector<Outcome>& first = t.passes.front();
    const std::uint64_t check0 = now_ns();
    if (a.workload == "trace_replay")
        check_streamed(plan, first);
    if (a.workload == "mix_sweep")
        check_cold(plan, a.seed,
                   sizes_for(a.workload, a.smoke).measures.front(), first);
    const double check_s = seconds_since(check0);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto tally = [&](std::vector<Outcome>& pass,
                     const std::vector<Outcome>* reference) {
        check_outcomes(pass, reference);
        report_failures(pass, plan);
        for (const auto& o : pass) {
            ++attempted;
            failed += o.ok ? 0 : 1;
        }
    };
    tally(t.warmup, nullptr);
    // job_s_p50 is the median over passes of a pass's mean job time.
    // The median over single jobs fell between job classes (baseline
    // against prefetcher, 450k against 150k jobs) and jumped from seed
    // to seed by far more than the host moved.
    std::uint64_t accesses = 0;
    std::vector<double> job_s;
    std::vector<double> pass_job_s;
    for (std::size_t k = 0; k < t.passes.size(); ++k) {
        tally(t.passes[k], k == 0 ? nullptr : &first);
        double sum = 0.0;
        for (std::size_t i = 0; i < t.passes[k].size(); ++i) {
            accesses += accesses_of(plan.jobs[i]);
            job_s.push_back(t.passes[k][i].seconds);
            sum += t.passes[k][i].seconds;
        }
        pass_job_s.push_back(sum / static_cast<double>(t.passes[k].size()));
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::cout << "{\"workload\": " << quoted(a.workload)
              << ", \"seed\": " << a.seed << ", \"timed_passes\": "
              << t.passes.size() << ", \"job_s_p50_samples\": "
              << pass_job_s.size() << ", \"jobs_per_pass\": " << plan.jobs.size()
              << ", \"warmup_s\": " << num(t.warmup_s)
              << ", \"timed_s\": " << num(t.wall_s)
              << ", \"check_s\": " << num(check_s) << ", \"setup_reps_s\": [";
    for (std::size_t r = 0; r < setup.size(); ++r)
        std::cout << (r ? ", " : "") << num(setup[r]);
    std::cout << "], \"pass_s\": [";
    for (std::size_t r = 0; r < t.pass_s.size(); ++r)
        std::cout << (r ? ", " : "") << num(t.pass_s[r]);
    std::cout << "], \"job_s\": [";
    for (std::size_t r = 0; r < job_s.size(); ++r)
        std::cout << (r ? ", " : "") << num(job_s[r]);
    if (a.workload == "mix_sweep") {
        // Where a Lab pass's wall time went: busy workers, or workers
        // blocked on a checkpoint another job was still producing.
        std::cout << "], \"lab_busy_frac\": [";
        for (std::size_t r = 0; r < t.lab.size(); ++r)
            std::cout << (r ? ", " : "")
                      << num(static_cast<double>(t.lab[r].busy_ns) * 1e-9 /
                             (t.lab[r].workers * t.lab[r].wall_s));
        std::cout << "], \"lab_lease_wait_s\": [";
        for (std::size_t r = 0; r < t.lab.size(); ++r)
            std::cout << (r ? ", " : "")
                      << num(static_cast<double>(t.lab[r].ckpt.lease_wait_ns) *
                             1e-9);
    }
    std::cout << "], " << host.fields() << "}" << std::endl;
    print_result(failed == 0, attempted, failed,
                 {{"sim_maccess_per_s",
                   static_cast<double>(accesses) / t.wall_s * 1e-6,
                   "Maccess/s"},
                  {"job_s_p50", median(pass_job_s), "s"},
                  {"setup_s", median(setup), "s"},
                  {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                   "MB"},
                  {"sim_speedup", sim_speedup(plan, first), "x"}});
    return failed == 0 ? 0 : 1;
}

// --- Traced run --------------------------------------------------------

/** One traced job's record for the per-layer metrics. */
struct TracedJob {
    std::string pf;
    bool from_trace = false;
    std::uint64_t trace_bytes = 0;   ///< compressed file size
    std::uint64_t trace_records = 0; ///< records in the file
    std::uint64_t measure_accesses = 0;
    JobCounters all;
    bool phased = false; ///< ran through run_traced (phase timings)
    perfbench::PhaseTimes phases;
    JobCounters measure;
    sim::RunResult result;
};

struct TraceRun {
    std::vector<TracedJob> own;
    /** mix_sweep: phase-timed re-runs of some own jobs (timings only;
     *  their simulated counts would count those jobs twice). */
    std::vector<TracedJob> replay;
    LabStats lab;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double untraced_s = 0.0;
    double traced_s = 0.0;
};

void
count(TraceRun& tr, bool ok, const std::string& what)
{
    ++tr.attempted;
    if (!ok) {
        ++tr.failed;
        std::cerr << "perfbench: traced job failed: " << what << "\n";
    }
}

/** @p job with its prefetcher built by a factory that times it on
 *  @p c. */
exec::Job
with_timed_prefetcher(const exec::Job& job, JobCounters* c)
{
    exec::Job t = job;
    t.variant = "timed:" + job.pf_spec;
    const std::string pf = job.pf_spec;
    const std::uint32_t degree = job.degree;
    t.prefetcher_factory = [pf, degree, c](unsigned) {
        return perfbench::timed(triage::stats::make_prefetcher(pf, degree),
                                c);
    };
    return t;
}

/** A single-core job with timed factories on @p c, for run_traced.
 *  @p make_wl builds the inner workload exactly as run_job would. */
exec::Job
timed_single(const exec::Job& job, JobCounters* c,
             std::function<std::unique_ptr<sim::Workload>()> make_wl)
{
    exec::Job t = with_timed_prefetcher(job, c);
    t.benchmark.clear();
    t.variant = "timed:" + exec::key_of(job).str();
    t.workload_factory = [make_wl, c]() -> std::unique_ptr<sim::Workload> {
        return std::make_unique<perfbench::TimedWorkload>(make_wl(), c);
    };
    return t;
}

/** Run one job traced through run_traced and, when @p reference is
 *  given, require its stats to equal the untraced result. */
TracedJob
trace_job(const exec::Job& job, std::function<std::unique_ptr<sim::Workload>()>
                                    make_wl,
          const sim::RunResult* reference, perfbench::SpanRecorder& rec,
          std::uint64_t job_id, TraceRun& tr, const std::string& label)
{
    TracedJob tj;
    tj.pf = job.pf_spec;
    tj.measure_accesses =
        (job.mix.empty() ? 1 : job.mix.size()) * job.scale.measure_records;
    bool ok = true;
    std::string why = label;
    try {
        perfbench::TracedOutcome o;
        if (job.mix.empty()) {
            o = perfbench::run_traced(timed_single(job, &tj.all, make_wl),
                                      tj.all, 0, rec, job_id);
        } else {
            o = perfbench::run_traced(with_timed_prefetcher(job, &tj.all),
                                      tj.all, jitter_of(job), rec, job_id);
        }
        tj.result = std::move(o.result);
        tj.phases = o.phases;
        tj.measure = o.measure;
        tj.phased = true;
        ok = nonzero_work(tj.result);
        if (ok && reference != nullptr) {
            const auto d = triage::verify::diff_results(*reference, tj.result);
            ok = d.empty();
            if (!ok)
                why += ": traced stats differ from untraced: " + d.front();
        }
    } catch (const std::exception& e) {
        ok = false;
        why += std::string(": threw: ") + e.what();
    }
    count(tr, ok, why);
    return tj;
}

/** The workload a plain (untraced) single-core job runs, rebuilt. */
std::function<std::unique_ptr<sim::Workload>()>
plain_workload(const exec::Job& job)
{
    const std::string name = job.benchmark;
    const std::uint64_t jitter = jitter_of(job);
    return [name, jitter] { return wl::make_workload(name, 1.0, jitter); };
}

// Per-layer metric helpers -----------------------------------------------

using Filter = std::function<bool(const TracedJob&)>;

/** Jobs of the run that reach a layer; none when the workload's own
 *  jobs never do, and the layer's figures then read 0. Timings also
 *  draw on the phase-timed replays. */
std::vector<const TracedJob*>
select(const TraceRun& tr, const Filter& f, bool timing)
{
    std::vector<const TracedJob*> v;
    for (const auto& j : tr.own)
        if (f(j))
            v.push_back(&j);
    if (timing)
        for (const auto& j : tr.replay)
            if (f(j))
                v.push_back(&j);
    return v;
}

std::uint64_t
metadata_bytes(const sim::RunResult& r)
{
    return r.traffic.of(sim::TrafficClass::MetadataRead) +
           r.traffic.of(sim::TrafficClass::MetadataWrite);
}

double
ratio(double a, double b)
{
    return b == 0.0 ? 0.0 : a / b;
}

std::vector<Metric>
layer_metrics(const TraceRun& tr, const perfbench::TimerCost& tc,
              double cpu_wall, double steal)
{
    std::vector<Metric> m;
    auto sum = [](const std::vector<const TracedJob*>& js, auto field) {
        double s = 0.0;
        for (const auto* j : js)
            s += field(*j);
        return s;
    };
    auto pf_sum = [&](const std::vector<const TracedJob*>& js, auto field) {
        return sum(js, [&](const TracedJob& j) {
            double s = 0.0;
            for (const auto& c : j.result.per_core)
                s += static_cast<double>(field(c.l2pf));
            return s;
        });
    };
    auto train_self_ns = [&](const std::vector<const TracedJob*>& js) {
        return ratio(sum(js,
                         [&](const TracedJob& j) {
                             return j.all.train_self_ns(tc);
                         }),
                     sum(js, [](const TracedJob& j) {
                         return static_cast<double>(j.all.train.calls);
                     }));
    };
    using PS = triage::prefetch::PrefetcherStats;

    // triage
    auto is_triage = [](const TracedJob& j) { return j.pf == "triage_dyn"; };
    m.push_back({"triage.train_self_ns",
                 train_self_ns(select(tr, is_triage, true)), "ns"});
    const auto tri = select(tr, is_triage, false);
    m.push_back({"triage.meta_reads",
                 pf_sum(tri, [](const PS& s) { return s.meta_onchip_reads; }),
                 "count"});
    m.push_back({"triage.meta_writes",
                 pf_sum(tri, [](const PS& s) { return s.meta_onchip_writes; }),
                 "count"});
    m.push_back({"triage.candidates_per_train",
                 ratio(pf_sum(tri, [](const PS& s) { return s.candidates; }),
                       pf_sum(tri, [](const PS& s) { return s.train_events; })),
                 "1/train"});
    {
        double ways = 0.0;
        double n = 0.0;
        for (const auto* j : tri)
            for (const auto& c : j->result.per_core) {
                ways += c.avg_metadata_ways;
                n += 1.0;
            }
        m.push_back({"triage.avg_metadata_ways", ratio(ways, n), "ways"});
    }

    // prefetch (BO and MISB)
    auto is_other_pf = [](const TracedJob& j) {
        return j.pf != "none" && j.pf != "triage_dyn";
    };
    {
        const auto timed_pf = select(tr, is_other_pf, true);
        m.push_back(
            {"prefetch.train_self_ns", train_self_ns(timed_pf), "ns"});
        m.push_back({"prefetch.issue_ns",
                     ratio(sum(timed_pf,
                               [&](const TracedJob& j) {
                                   return perfbench::inner_ns(j.all.issue, tc);
                               }),
                           sum(timed_pf,
                               [](const TracedJob& j) {
                                   return static_cast<double>(
                                       j.all.issue.calls);
                               })),
                     "ns"});
    }
    const auto pfj = select(tr, is_other_pf, false);
    m.push_back({"prefetch.issued_to_dram",
                 pf_sum(pfj, [](const PS& s) { return s.issued_to_dram; }),
                 "count"});
    m.push_back({"prefetch.redundant_frac",
                 ratio(pf_sum(pfj, [](const PS& s) { return s.redundant; }),
                       pf_sum(pfj, [](const PS& s) { return s.candidates; })),
                 "frac"});
    m.push_back({"prefetch.accuracy",
                 ratio(pf_sum(pfj, [](const PS& s) { return s.useful; }),
                       pf_sum(pfj, [](const PS& s) { return s.issued(); })),
                 "frac"});
    {
        const double useful =
            pf_sum(pfj, [](const PS& s) { return s.useful; });
        const double misses = sum(pfj, [](const TracedJob& j) {
            double s = 0.0;
            for (const auto& c : j.result.per_core)
                s += static_cast<double>(c.l2.demand_misses);
            return s;
        });
        m.push_back({"prefetch.coverage", ratio(useful, useful + misses),
                     "frac"});
    }
    m.push_back({"prefetch.meta_offchip_mb", sum(pfj, [](const TracedJob& j) {
                     return static_cast<double>(metadata_bytes(j.result)) *
                            1e-6;
                 }),
                 "MB"});

    // workloads (synthetic generators) and frontend (streamed traces)
    auto next_ns = [&](const std::vector<const TracedJob*>& js) {
        return ratio(sum(js,
                         [&](const TracedJob& j) {
                             return perfbench::inner_ns(j.all.next, tc);
                         }),
                     sum(js, [](const TracedJob& j) {
                         return static_cast<double>(j.all.next.calls);
                     }));
    };
    const auto gen = select(
        tr,
        [](const TracedJob& j) {
            return !j.from_trace && j.all.next.calls > 0;
        },
        true);
    m.push_back({"workloads.next_ns", next_ns(gen), "ns"});
    const auto fe =
        select(tr, [](const TracedJob& j) { return j.from_trace; }, true);
    m.push_back({"frontend.next_ns", next_ns(fe), "ns"});
    {
        // Compressed bytes behind the records next() delivered.
        const double bytes = sum(fe, [](const TracedJob& j) {
            return static_cast<double>(j.trace_bytes) *
                   ratio(static_cast<double>(j.all.next.calls),
                         static_cast<double>(j.trace_records));
        });
        const double secs = sum(fe, [&](const TracedJob& j) {
            return perfbench::inner_ns(j.all.next, tc) * 1e-9;
        });
        m.push_back({"frontend.decode_mb_per_s", ratio(bytes * 1e-6, secs),
                     "MB/s"});
        m.push_back({"frontend.compressed_mb", sum(fe, [](const TracedJob& j) {
                         return static_cast<double>(j.trace_bytes) * 1e-6;
                     }),
                     "MB"});
    }

    // sim: self time of the measure phase, snapshots, DRAM, core
    const auto phased =
        select(tr, [](const TracedJob& j) { return j.phased; }, true);
    {
        const double self = sum(phased, [&](const TracedJob& j) {
            return j.phases.measure_s * 1e9 -
                   j.measure.prefetcher_self_ns(tc) -
                   perfbench::inner_ns(j.measure.next, tc) -
                   j.measure.hook_ns(tc);
        });
        const double acc = sum(phased, [](const TracedJob& j) {
            return static_cast<double>(j.measure_accesses);
        });
        m.push_back({"sim.self_ns_per_access", ratio(self, acc), "ns"});
        std::vector<double> save, restore, mb;
        for (const auto* j : phased) {
            save.push_back(j->phases.save_s);
            restore.push_back(j->phases.restore_s);
            mb.push_back(static_cast<double>(j->phases.snapshot_bytes) * 1e-6);
        }
        m.push_back({"sim.snapshot.save_s", median(save), "s"});
        m.push_back({"sim.snapshot.restore_s", median(restore), "s"});
        m.push_back({"sim.snapshot.mb", median(mb), "MB"});
    }
    std::vector<const TracedJob*> own;
    for (const auto& j : tr.own)
        own.push_back(&j);
    const double n_own = static_cast<double>(own.size());
    auto dram_mb = [&](auto bytes) {
        return ratio(sum(own,
                         [&](const TracedJob& j) {
                             return static_cast<double>(bytes(j.result));
                         }),
                     n_own) *
               1e-6;
    };
    auto of = [](sim::TrafficClass c) {
        return [c](const sim::RunResult& r) { return r.traffic.of(c); };
    };
    m.push_back({"sim.dram.demand_mb", dram_mb(of(sim::TrafficClass::DemandRead)),
                 "MB/job"});
    m.push_back({"sim.dram.prefetch_mb", dram_mb(of(sim::TrafficClass::PrefetchRead)),
                 "MB/job"});
    m.push_back({"sim.dram.writeback_mb",
                 dram_mb(of(sim::TrafficClass::Writeback)), "MB/job"});
    m.push_back({"sim.dram.metadata_mb", dram_mb(metadata_bytes),
                 "MB/job"});
    {
        double ipc = 0.0;
        double n = 0.0;
        for (const auto* j : own)
            for (const auto& c : j->result.per_core) {
                ipc += c.ipc();
                n += 1.0;
            }
        m.push_back({"sim.core.ipc", ratio(ipc, n), "IPC"});
    }

    // cache: simulated counts over the workload's own jobs
    auto core_sum = [&](auto field) {
        return sum(own, [&](const TracedJob& j) {
            double s = 0.0;
            for (const auto& c : j.result.per_core)
                s += static_cast<double>(field(c));
            return s;
        });
    };
    using RS = sim::RunStats;
    m.push_back({"cache.l1.demand_misses",
                 core_sum([](const RS& c) { return c.l1.demand_misses; }),
                 "count"});
    const double l2m =
        core_sum([](const RS& c) { return c.l2.demand_misses; });
    m.push_back({"cache.l2.demand_misses", l2m, "count"});
    m.push_back({"cache.llc.demand_misses", sum(own, [](const TracedJob& j) {
                     return static_cast<double>(j.result.llc.demand_misses);
                 }),
                 "count"});
    m.push_back({"cache.l2.mpki",
                 ratio(l2m * 1000.0,
                       core_sum([](const RS& c) { return c.instructions; })),
                 "MPKI"});
    m.push_back({"cache.llc.dirty_evictions", sum(own, [](const TracedJob& j) {
                     return static_cast<double>(j.result.llc.dirty_evictions);
                 }),
                 "count"});

    // exec: the workload's own Lab sweep (all zero without one)
    const LabStats& L = tr.lab;
    const auto& ck = L.ckpt;
    const double acquires =
        static_cast<double>(ck.mem_hits + ck.disk_hits + ck.misses);
    m.push_back({"exec.worker_busy_frac",
                 ratio(static_cast<double>(L.busy_ns) * 1e-9,
                       L.workers * L.wall_s),
                 "frac"});
    m.push_back({"exec.ckpt.hit_frac",
                 ratio(static_cast<double>(ck.mem_hits + ck.disk_hits),
                       acquires),
                 "frac"});
    m.push_back({"exec.ckpt.lease_wait_s",
                 static_cast<double>(ck.lease_wait_ns) * 1e-9, "s"});
    m.push_back({"exec.ckpt.published_mb",
                 static_cast<double>(ck.bytes_published) * 1e-6, "MB"});
    m.push_back({"exec.ckpt.evictions", static_cast<double>(ck.evictions),
                 "count"});
    m.push_back({"exec.runs_executed", static_cast<double>(L.runs_executed),
                 "count"});

    // host
    m.push_back({"host.cpu_wall_ratio", cpu_wall, "cpu/wall"});
    m.push_back({"host.steal_frac", steal, "frac"});
    m.push_back({"trace.overhead_frac",
                 ratio(tr.traced_s, tr.untraced_s) - 1.0, "frac"});
    return m;
}

int
run_traced_mode(const Args& a)
{
    HostWatch host;
    const perfbench::TimerCost tc = perfbench::calibrate_timer();
    Plan plan = make_plan(a, a.workload, a.smoke);
    perfbench::SpanRecorder rec;
    TraceRun tr;
    std::uint64_t job_id = 0;

    // The shrunk warm-up pass of run_timed, then an untraced pass that
    // is both the reference every traced job must match and the time
    // the traced pass is compared with, then the traced pass.
    std::vector<Outcome> warmup = run_pass(shrunk(plan), a.workload);
    const std::uint64_t base0 = now_ns();
    std::vector<Outcome> base = run_pass(plan, a.workload);
    tr.untraced_s = seconds_since(base0);
    for (auto* pass : {&warmup, &base}) {
        check_outcomes(*pass, nullptr);
        for (const auto& o : *pass)
            count(tr, o.ok, "untraced job: " + o.why);
    }

    if (a.workload == "mix_sweep") {
        // The traced sweep times every prefetcher through its factory.

        std::vector<std::unique_ptr<JobCounters>> counters;
        std::vector<exec::Job> timed_jobs;
        for (const auto& j : plan.jobs) {
            counters.push_back(std::make_unique<JobCounters>());
            timed_jobs.push_back(
                with_timed_prefetcher(j, counters.back().get()));
        }
        const std::uint64_t t0 = now_ns();
        std::vector<Outcome> traced =
            run_lab_pass(timed_jobs, lab_workers(), &tr.lab);
        tr.traced_s = seconds_since(t0);
            for (std::size_t i = 0; i < traced.size(); ++i) {
            TracedJob tj;
            tj.pf = plan.jobs[i].pf_spec;
            tj.all = *counters[i];
            tj.result = traced[i].result;
            const bool same =
                base[i].ok && triage::verify::diff_results(
                                  base[i].result, tj.result)
                                  .empty();
            count(tr, same && nonzero_work(tj.result),
                  "traced mix job differs from untraced");
            rec.rollup("lab.job", -1, job_id, 1,
                       static_cast<std::uint64_t>(traced[i].seconds * 1e9));
            perfbench::record_rollups(rec, -1, job_id++, tj.all);
            tr.own.push_back(std::move(tj));
        }
        // Phase-timed replay of one job per core count (first measure
        // length, Triage) on a directly driven MultiCoreSystem with
        // timed workloads: the Lab cannot time phases or wrap a mix's
        // workloads. Its result must equal the Lab's.
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            const exec::Job& j = plan.jobs[i];
            if (j.pf_spec != "triage_dyn" ||
                j.scale.measure_records != sizes_for(a.workload, a.smoke)
                                               .measures.front())
                continue;
            tr.replay.push_back(trace_job(j, nullptr, &base[i].result, rec,
                                          job_id++, tr, "phased mix job"));
        }
    } else {
        // The same jobs traced with timed phases.
        double traced_s = 0.0;
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            const exec::Job& j = plan.jobs[i];
            std::function<std::unique_ptr<sim::Workload>()> make_wl;
            const bool from_trace = !plan.trace_of.empty();
            if (from_trace) {
                const std::string path = plan.traces[plan.trace_of[i]].path;
                make_wl = [path]() -> std::unique_ptr<sim::Workload> {
                    return triage::frontend::open_trace(
                        path, triage::frontend::TraceFormat::Tria);
                };
            } else {
                make_wl = plain_workload(j);
            }
            const std::uint64_t tj0 = now_ns();
            TracedJob tj = trace_job(j, make_wl,
                                     base[i].ok ? &base[i].result : nullptr,
                                     rec, job_id++, tr, "traced job");
            // The save/restore round trip is extra work, not tracing
            // overhead.
            traced_s += seconds_since(tj0) - tj.phases.save_s -
                        tj.phases.restore_s;
            if (from_trace) {
                tj.from_trace = true;
                tj.trace_bytes = plan.traces[plan.trace_of[i]].bytes;
                tj.trace_records = plan.traces[plan.trace_of[i]].records;
            }
            tr.own.push_back(std::move(tj));
        }
        tr.traced_s = traced_s;
    }

    const std::vector<Metric> metrics =
        layer_metrics(tr, tc, host.cpu_wall(), host.steal());

    fs::create_directories(a.out);
    const std::string spans_path = a.out + "/spans-" + a.workload + "-s" +
                                   std::to_string(a.seed) + ".json";
    if (!rec.write_json(spans_path))
        std::cerr << "perfbench: could not write " << spans_path << "\n";
    std::cout << "{\"workload\": " << quoted(a.workload)
              << ", \"seed\": " << a.seed
              << ", \"traced_jobs\": " << tr.own.size()
              << ", \"phased_replays\": " << tr.replay.size()
              << ", \"timer_in_span_ns\": " << num(tc.in_span_ns)
              << ", \"timer_per_call_ns\": " << num(tc.per_call_ns)
              << ", \"spans\": " << quoted(spans_path) << ", "
              << host.fields() << "}" << std::endl;
    print_result(tr.failed == 0, tr.attempted, tr.failed, metrics);
    return tr.failed == 0 ? 0 : 1;
}

bool
parse_args(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string s = argv[i];
        auto val = [&](const char* key, std::string& out) {
            const std::string k = std::string("--") + key + "=";
            if (s.rfind(k, 0) != 0)
                return false;
            out = s.substr(k.size());
            return true;
        };
        std::string v;
        if (val("workload", v))
            a.workload = v;
        else if (val("seed", v))
            a.seed = std::stoull(v);
        else if (val("seconds", v))
            a.seconds = std::stod(v);
        else if (val("trace", v))
            a.trace = v == "1";
        else if (val("out", v))
            a.out = v;
        else if (s == "--smoke")
            a.smoke = true;
        else
            return false;
    }
    return !a.workload.empty();
}

} // namespace

int
main(int argc, char** argv)
{
    Args a;
    try {
        if (!parse_args(argc, argv, a)) {
            std::cerr << "usage: perfbench_driver --workload=NAME --seed=N "
                         "--seconds=S --trace=0|1 --out=DIR [--smoke]\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: bad argument: " << e.what() << "\n";
        return 2;
    }
    std::string why;
    if (!build_is_benchmarkable(why)) {
        std::cerr << "perfbench: refusing to run: " << why << "\n";
        return 3;
    }
    print_provenance();
    int rc = 0;
    try {
        rc = a.trace ? run_traced_mode(a) : run_end_to_end(a);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        rc = 4;
    }
    std::error_code ec;
    fs::remove_all(a.out + "/traces/s" + std::to_string(a.seed), ec);
    return rc;
}
