/**
 * @file
 * Figure 10: average response time and occupancy time of the ULMT
 * algorithms (Base, Chain, Repl in the DRAM chip, plus ReplMC in the
 * North Bridge), split into computation (Busy) and table-memory stall
 * (Mem), with the memory-processor IPC on top of each bar.
 *
 * The viability conditions the paper checks: occupancy < 200 cycles
 * (the dominant inter-miss gap), Repl's response the lowest, ReplMC's
 * response roughly double Repl's.
 *
 * Usage: fig10_ulmt_load [scale] [--jobs=N]
 */

#include <cstdio>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

namespace {

struct Load
{
    double respBusy = 0, respMem = 0, occBusy = 0, occMem = 0, ipc = 0;
    int n = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 1.0);
    driver::ExperimentOptions opt;
    opt.scale = bopt.scale;
    bench::Harness harness("fig10_ulmt_load", bopt);

    struct Variant
    {
        std::string name;
        core::UlmtAlgo algo;
        mem::MemProcPlacement placement;
    };
    const std::vector<Variant> variants = {
        {"Base", core::UlmtAlgo::Base, mem::MemProcPlacement::InDram},
        {"Chain", core::UlmtAlgo::Chain, mem::MemProcPlacement::InDram},
        {"Repl", core::UlmtAlgo::Repl, mem::MemProcPlacement::InDram},
        {"ReplMC", core::UlmtAlgo::Repl,
         mem::MemProcPlacement::NorthBridge},
    };

    const auto &apps = workloads::applicationNames();
    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        for (const Variant &v : variants) {
            driver::ExperimentOptions o = opt;
            o.placement = v.placement;
            jobs.push_back(
                {app, driver::ulmtConfig(o, v.algo, app), o});
        }
    }
    const std::vector<driver::RunResult> results =
        harness.run([&] { return driver::runAll(jobs); });

    std::vector<Load> loads(variants.size());
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const driver::RunResult &r =
                results[ai * variants.size() + v];
            if (r.ulmt.missesProcessed == 0)
                continue;
            Load &l = loads[v];
            l.respBusy += r.ulmt.responseBusy.mean();
            l.respMem += r.ulmt.responseMem.mean();
            l.occBusy += r.ulmt.occupancyBusy.mean();
            l.occMem += r.ulmt.occupancyMem.mean();
            l.ipc += r.ulmt.ipc();
            ++l.n;
        }
    }

    driver::TextTable table({"Algorithm", "Resp.Busy", "Resp.Mem",
                             "Response", "Occ.Busy", "Occ.Mem",
                             "Occupancy", "IPC"});
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const Load &l = loads[v];
        const double n = l.n ? static_cast<double>(l.n) : 1.0;
        table.addRow({variants[v].name, driver::fmt(l.respBusy / n, 1),
                      driver::fmt(l.respMem / n, 1),
                      driver::fmt((l.respBusy + l.respMem) / n, 1),
                      driver::fmt(l.occBusy / n, 1),
                      driver::fmt(l.occMem / n, 1),
                      driver::fmt((l.occBusy + l.occMem) / n, 1),
                      driver::fmt(l.ipc / n)});
        harness.metric("response_" + variants[v].name,
                       (l.respBusy + l.respMem) / n);
        harness.metric("occupancy_" + variants[v].name,
                       (l.occBusy + l.occMem) / n);
    }
    table.print("Figure 10: ULMT response and occupancy "
                "(main-processor cycles, averaged over applications)");
    harness.writeJson();
    return 0;
}
