/**
 * @file
 * Ablation: NumLevels in Replicated (the knob behind the MST/Mcf
 * customization of Table 5).
 *
 * Sweeps the number of successor levels stored and prefetched.  More
 * levels prefetch further ahead -- valuable when the miss sequence is
 * deeply predictable (MST), wasted when it is not (Mcf shows marginal
 * gains, as the paper observes).
 *
 * Usage: ablation_numlevels [scale] [--jobs=N]
 */

#include <cstdio>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 0.5);
    driver::ExperimentOptions opt;
    opt.scale = bopt.scale;
    bench::Harness harness("ablation_numlevels", bopt);

    const std::vector<std::string> apps = {"MST", "Mcf", "Tree"};
    const std::vector<std::uint32_t> levels_sweep = {1, 2, 3, 4, 5, 6};

    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        jobs.push_back({app, driver::noPrefConfig(opt), opt});
        for (std::uint32_t levels : levels_sweep) {
            driver::SystemConfig cfg = driver::conven4PlusUlmtConfig(
                opt, core::UlmtAlgo::Repl, app);
            cfg.ulmt.numLevels = levels;
            jobs.push_back({app, std::move(cfg), opt});
        }
    }
    const std::size_t per_app = 1 + levels_sweep.size();

    const std::vector<driver::RunResult> results =
        harness.run([&] { return driver::runAll(jobs); });

    driver::TextTable table({"Appl", "NumLevels", "Speedup",
                             "Coverage", "Occupancy", "Table MB"});
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const std::string &app = apps[ai];
        const driver::RunResult &base = results[ai * per_app];
        for (std::size_t li = 0; li < levels_sweep.size(); ++li) {
            const std::uint32_t levels = levels_sweep[li];
            const driver::RunResult &r =
                results[ai * per_app + 1 + li];
            const double cov =
                static_cast<double>(r.hier.ulmtHits +
                                    r.hier.ulmtDelayedHits) /
                static_cast<double>(base.hier.l2Misses);
            const double mb =
                static_cast<double>(workloads::tableNumRows(app)) *
                (4.0 + levels * 2 * 4.0) / (1024.0 * 1024.0);
            table.addRow({app, std::to_string(levels),
                          driver::fmt(r.speedup(base)),
                          driver::fmt(cov),
                          driver::fmt(r.ulmt.occupancyTime.mean(), 0),
                          driver::fmt(mb, 1)});
            harness.metric(sim::strformat("speedup_%s_levels%u",
                                          app.c_str(), levels),
                           r.speedup(base));
        }
    }
    table.print("Ablation: Replicated NumLevels sweep "
                "(Conven4 on)");
    harness.writeJson();
    return 0;
}
