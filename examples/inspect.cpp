/**
 * @file
 * Inspect: run one application under one configuration and dump every
 * statistic the simulator collects -- the fastest way to understand
 * what the ULMT is doing on a workload.
 *
 * Usage:  inspect [app] [config] [scale]
 *         inspect Mcf Conven4+Repl 0.25
 *
 * Configs: NoPref, Conven4, Base, Chain, Repl, Seq1, Seq4,
 *          Conven4+<algo>, Custom, plus "MC" suffix for the
 *          North Bridge placement (e.g. Conven4+ReplMC).
 */

#include <cstdio>
#include <stdexcept>
#include <string>

#include "driver/experiment.hh"
#include "driver/report.hh"

namespace {

driver::SystemConfig
parseConfig(std::string name, const std::string &app,
            driver::ExperimentOptions &opt)
{
    if (name.size() > 2 && name.substr(name.size() - 2) == "MC") {
        opt.placement = mem::MemProcPlacement::NorthBridge;
        name = name.substr(0, name.size() - 2);
    }
    if (name == "NoPref")
        return driver::noPrefConfig(opt);
    if (name == "Conven4")
        return driver::conven4Config(opt);
    if (name == "Custom") {
        bool customized = false;
        return driver::customConfig(opt, app, customized);
    }
    const std::string c4 = "Conven4+";
    if (name.rfind(c4, 0) == 0) {
        return driver::conven4PlusUlmtConfig(
            opt, core::parseUlmtAlgo(name.substr(c4.size())), app);
    }
    return driver::ulmtConfig(opt, core::parseUlmtAlgo(name), app);
}

void
line(const char *key, double value, const char *unit = "")
{
    std::printf("  %-28s %14.2f %s\n", key, value, unit);
}

void
line(const char *key, std::uint64_t value, const char *unit = "")
{
    std::printf("  %-28s %14llu %s\n", key,
                static_cast<unsigned long long>(value), unit);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "Mcf";
    const std::string config = argc > 2 ? argv[2] : "Repl";
    driver::ExperimentOptions opt;
    opt.scale = 0.25;
    driver::RunResult r;
    try {
        if (argc > 3)
            opt.scale = driver::parseScale(argv[3]);
        const driver::SystemConfig cfg = parseConfig(config, app, opt);
        r = driver::runOne(app, cfg, opt);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "inspect: %s\n", e.what());
        return 2;
    }

    std::printf("== %s / %s (scale %.2f) ==\n", app.c_str(),
                r.label.c_str(), opt.scale);
    std::printf("[processor]\n");
    line("cycles", r.cycles);
    line("records", r.records);
    line("busy", r.busyCycles);
    line("stall up-to-L2", r.uptoL2Stall);
    line("stall beyond-L2", r.beyondL2Stall);
    line("busy fraction",
         100.0 * static_cast<double>(r.busyCycles) /
             static_cast<double>(r.cycles), "%");

    std::printf("[hierarchy]\n");
    line("loads", r.hier.loads);
    line("L1 misses", r.hier.l1Misses);
    line("L2 demand misses", r.hier.l2Misses);
    line("L2 MSHR merges", r.hier.l2MshrMerges);
    line("ULMT full hits", r.hier.ulmtHits);
    line("ULMT delayed hits", r.hier.ulmtDelayedHits);
    line("non-pf misses", r.hier.nonPrefMisses);
    line("pushed installed", r.hier.pushInstalled);
    line("pushed redundant", r.hier.pushRedundant());
    line("pushed replaced unused", r.hier.ulmtReplaced);
    line("cpu-pf issued", r.hier.cpuPfIssued);
    line("cpu-pf to memory", r.hier.cpuPfToMemory);
    line("cpu-pf useful", r.hier.cpuPfUseful);
    line("cpu-pf timely", r.hier.cpuPfTimely);

    std::printf("[memory system]\n");
    line("demand fetches", r.memsys.demandFetches);
    line("ulmt pf issued", r.memsys.ulmtPrefetchesIssued);
    line("ulmt pf drop filter", r.memsys.ulmtPrefetchesDroppedFilter);
    line("ulmt pf drop q3 full",
         r.memsys.ulmtPrefetchesDroppedQueueFull);
    line("ulmt pf drop demand match",
         r.memsys.ulmtPrefetchesDroppedDemandMatch);
    line("table reads (DRAM)", r.memsys.tableReads);
    line("table writes (DRAM)", r.memsys.tableWrites);
    line("DRAM row-hit rate",
         100.0 * static_cast<double>(r.dram.rowHits) /
             static_cast<double>(r.dram.accesses ? r.dram.accesses : 1),
         "%");
    line("bus utilization", 100.0 * r.busUtilization(), "%");
    line("bus util (prefetch)", 100.0 * r.busUtilizationPrefetch(),
         "%");

    std::printf("[ULMT]\n");
    line("misses observed", r.ulmt.missesObserved);
    line("misses processed", r.ulmt.missesProcessed);
    line("dropped q2 full", r.ulmt.missesDroppedQueueFull);
    line("prefetches generated", r.ulmt.prefetchesGenerated);
    line("response time (mean)", r.ulmt.responseTime.mean(), "cycles");
    line("response busy (mean)", r.ulmt.responseBusy.mean(), "cycles");
    line("response mem (mean)", r.ulmt.responseMem.mean(), "cycles");
    line("response max", r.ulmt.responseTime.max(), "cycles");
    line("occupancy time (mean)", r.ulmt.occupancyTime.mean(),
         "cycles");
    line("IPC", r.ulmt.ipc());
    if (r.ulmt.missesProcessed) {
        line("table DRAM reads/miss",
             static_cast<double>(r.memsys.tableReads) /
                 static_cast<double>(r.ulmt.missesProcessed));
        line("table DRAM writes/miss",
             static_cast<double>(r.memsys.tableWrites) /
                 static_cast<double>(r.ulmt.missesProcessed));
    }

    std::printf("[miss gaps]  [0,80) %.1f%%  [80,200) %.1f%%  "
                "[200,280) %.1f%%  [280,inf) %.1f%%\n",
                100 * r.missGapFractions[0], 100 * r.missGapFractions[1],
                100 * r.missGapFractions[2],
                100 * r.missGapFractions[3]);
    return 0;
}
