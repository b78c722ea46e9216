/**
 * @file
 * Figure 11: main memory bus utilization, averaged over the nine
 * applications, for NoPref, Conven4, Base, Chain, Repl, Conven4+Repl
 * and Conven4+ReplMC.
 *
 * The increase over NoPref is decomposed the way the paper does:
 * the part caused naturally by the reduced execution time (the same
 * demand traffic squeezed into fewer cycles) and the additional part
 * directly attributable to prefetch traffic.
 *
 * Usage: fig11_bus_util [scale] [--jobs=N]
 */

#include <cstdio>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 1.0);
    driver::ExperimentOptions opt;
    opt.scale = bopt.scale;
    bench::Harness harness("fig11_bus_util", bopt);

    struct Entry
    {
        std::string name;
        double util = 0, pf_util = 0;
        int n = 0;
    };
    std::vector<Entry> entries = {
        {"NoPref", 0, 0, 0},         {"Conven4", 0, 0, 0},
        {"Base", 0, 0, 0},           {"Chain", 0, 0, 0},
        {"Repl", 0, 0, 0},           {"Conven4+Repl", 0, 0, 0},
        {"Conven4+ReplMC", 0, 0, 0},
    };

    const auto &apps = workloads::applicationNames();
    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        for (const Entry &e : entries) {
            driver::ExperimentOptions o = opt;
            driver::SystemConfig cfg;
            if (e.name == "NoPref") {
                cfg = driver::noPrefConfig(o);
            } else if (e.name == "Conven4") {
                cfg = driver::conven4Config(o);
            } else if (e.name == "Conven4+Repl") {
                cfg = driver::conven4PlusUlmtConfig(
                    o, core::UlmtAlgo::Repl, app);
            } else if (e.name == "Conven4+ReplMC") {
                o.placement = mem::MemProcPlacement::NorthBridge;
                cfg = driver::conven4PlusUlmtConfig(
                    o, core::UlmtAlgo::Repl, app);
            } else {
                cfg = driver::ulmtConfig(
                    o, core::parseUlmtAlgo(e.name), app);
            }
            jobs.push_back({app, std::move(cfg), o});
        }
    }
    const std::vector<driver::RunResult> results =
        harness.run([&] { return driver::runAll(jobs); });

    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        for (std::size_t ei = 0; ei < entries.size(); ++ei) {
            const driver::RunResult &r =
                results[ai * entries.size() + ei];
            entries[ei].util += r.busUtilization();
            entries[ei].pf_util += r.busUtilizationPrefetch();
            ++entries[ei].n;
        }
    }

    driver::TextTable table({"Config", "Utilization",
                             "..from demand traffic",
                             "..from prefetch traffic"});
    for (const Entry &e : entries) {
        const double n = static_cast<double>(e.n);
        table.addRow({e.name, driver::fmtPercent(e.util / n),
                      driver::fmtPercent((e.util - e.pf_util) / n),
                      driver::fmtPercent(e.pf_util / n)});
        harness.metric("bus_util_" + e.name, e.util / n);
    }
    table.print("Figure 11: main memory bus utilization "
                "(average over applications)");
    harness.writeJson();
    return 0;
}
