/**
 * @file
 * Multicore sweep: cores x ULMT serving mode on three workloads.
 *
 * Every machine runs the Repl ULMT (the paper's best memory-side
 * algorithm) while the core count sweeps {1, 2, 4, 8} and the serving
 * mode sweeps {shared, percore, sharded}.  Core 0 always replays the
 * exact single-core trace; the other tenants run independently seeded
 * instances of the same kernel in private address slices, so the
 * headline number -- core 0's cycle count -- directly measures how
 * much the added tenants slow a fixed program down under each serving
 * discipline.  The per-tenant QoS columns (queue-1 wait, observations
 * dropped because one thread cannot keep up) show where the
 * contention lives: a single shared ULMT saturates first, per-core
 * threads do not contend for the thread but still share bus + DRAM,
 * and sharding keeps one thread but splits the table.
 *
 * Usage: multicore [scale] [--jobs=N] [--apps=A,B,...]
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

namespace {

double
qosWaitMean(const driver::RunResult &r)
{
    // Machine-wide mean queue-1 wait: merge the per-tenant samples.
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const mem::CoreQos &q : r.coreQos) {
        sum += q.q1Wait.sum();
        n += q.q1Wait.count();
    }
    return n ? sum / double(n) : 0.0;
}

/** Per-tenant ULMT prefetch service as a "min..max" range. */
std::string
pfSpread(const driver::RunResult &r)
{
    std::uint64_t lo = ~0ULL, hi = 0;
    for (const mem::CoreQos &q : r.coreQos) {
        lo = std::min(lo, q.ulmtPrefetchesIssued);
        hi = std::max(hi, q.ulmtPrefetchesIssued);
    }
    return std::to_string(lo) + ".." + std::to_string(hi);
}

std::uint64_t
obsDropped(const driver::RunResult &r)
{
    if (r.engineUlmt.empty())
        return r.ulmt.missesDroppedQueueFull;
    std::uint64_t total = 0;
    for (const core::UlmtStats &s : r.engineUlmt)
        total += s.missesDroppedQueueFull;
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 0.05);
    driver::ExperimentOptions opt;
    opt.scale = bopt.scale;
    bench::Harness harness("multicore", bopt);

    // Sparse is the workload whose misses actually repeat, so it also
    // shows how the serving modes split prefetch service between
    // tenants; the pointer-chasing three mostly contend for queue 1,
    // the bus and DRAM.
    const std::vector<std::string> apps =
        bopt.apps.empty() ? std::vector<std::string>{"MST", "Tree",
                                                     "CG", "Sparse"}
                          : bopt.apps;
    const std::vector<unsigned> coreCounts = {1, 2, 4, 8};
    const std::vector<core::UlmtMode> modes = {
        core::UlmtMode::Shared, core::UlmtMode::PerCore,
        core::UlmtMode::Sharded};

    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        for (core::UlmtMode mode : modes) {
            for (unsigned cores : coreCounts) {
                driver::SystemConfig cfg = driver::ulmtConfig(
                    opt, core::UlmtAlgo::Repl, app);
                cfg.cores = cores;
                cfg.ulmtMode = mode;
                cfg.label = "Repl/" + core::to_string(mode) + "/" +
                            std::to_string(cores);
                jobs.push_back({app, std::move(cfg), opt});
            }
        }
    }

    const std::vector<driver::RunResult> results =
        harness.run([&] { return driver::runAll(jobs); });

    driver::TextTable table({"Appl", "Mode", "Cores", "Core0 cycles",
                             "Slowdown", "Q1 wait", "PF/core",
                             "Obs dropped"});
    std::size_t idx = 0;
    for (const std::string &app : apps) {
        for (core::UlmtMode mode : modes) {
            // Core 0 of every machine replays the same trace as the
            // single-core run, so its cycle count is the slowdown
            // numerator.
            const driver::RunResult &solo = results[idx];
            for (unsigned cores : coreCounts) {
                const driver::RunResult &r = results[idx++];
                const sim::Cycle core0 = r.proc.totalCycles;
                const double slowdown =
                    solo.proc.totalCycles
                        ? double(core0) /
                              double(solo.proc.totalCycles)
                        : 0.0;
                const std::string mode_s = core::to_string(mode);
                table.addRow({app, mode_s, std::to_string(cores),
                              std::to_string(core0),
                              driver::fmt(slowdown),
                              driver::fmt(qosWaitMean(r)),
                              pfSpread(r),
                              std::to_string(obsDropped(r))});
                const std::string key = app + "_" + mode_s + "_c" +
                                        std::to_string(cores);
                harness.metric("core0_cycles_" + key, double(core0));
                harness.metric("slowdown_" + key, slowdown);
                harness.metric("q1_wait_mean_" + key, qosWaitMean(r));
                harness.metric("obs_dropped_" + key,
                               double(obsDropped(r)));
                std::uint64_t pf = 0;
                for (const mem::CoreQos &q : r.coreQos)
                    pf += q.ulmtPrefetchesIssued;
                harness.metric("pf_issued_" + key, double(pf));
            }
        }
    }
    table.print("Multicore: cores x ULMT serving mode (Repl)");
    harness.writeJson();
    return 0;
}
