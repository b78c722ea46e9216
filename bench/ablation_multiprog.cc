/**
 * @file
 * Ablation: table interference in a multiprogrammed environment
 * (Section 3.4).
 *
 * The paper recommends one ULMT (with its own table) per application
 * rather than a single shared table.  This bench quantifies why: two
 * applications are timesliced on the main processor while one shared
 * correlation table serves both, and the prefetch coverage is compared
 * with each application running solo on the same table size.  The
 * shared table loses coverage to inter-application row conflicts; a
 * doubled table (a proxy for per-application tables) restores it.
 *
 * The four runs are independent simulations, so they go through the
 * generic task interface of the parallel runner.
 *
 * Usage: ablation_multiprog [scale] [--jobs=N]
 */

#include <cstdio>
#include <functional>

#include "bench/harness.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/system.hh"
#include "workloads/interleaved.hh"

namespace {

struct Coverage
{
    double covered;  //!< (hits + delayed) / demand misses
    std::uint64_t misses;
};

Coverage
coverageOf(const driver::RunResult &r)
{
    const double misses = static_cast<double>(
        r.hier.ulmtHits + r.hier.ulmtDelayedHits +
        r.hier.nonPrefMisses);
    return {misses > 0 ? (static_cast<double>(r.hier.ulmtHits) +
                          static_cast<double>(r.hier.ulmtDelayedHits)) /
                             misses
                       : 0.0,
            r.hier.l2Misses};
}

driver::RunResult
runSolo(const std::string &app, double scale, std::uint32_t rows)
{
    workloads::WorkloadParams wp;
    wp.scale = scale;
    auto wl = workloads::makeWorkload(app, wp);
    driver::SystemConfig cfg;
    cfg.ulmt.algo = core::UlmtAlgo::Repl;
    cfg.ulmt.numRows = rows;
    cfg.label = "Repl";
    driver::System sys(cfg, *wl);
    return sys.run();
}

driver::RunResult
runShared(const std::string &a, const std::string &b, double scale,
          std::uint32_t rows)
{
    workloads::WorkloadParams wp;
    wp.scale = scale;
    workloads::InterleavedWorkload both(
        workloads::makeWorkload(a, wp), workloads::makeWorkload(b, wp));
    driver::SystemConfig cfg;
    cfg.ulmt.algo = core::UlmtAlgo::Repl;
    cfg.ulmt.numRows = rows;
    cfg.label = "Repl(shared)";
    driver::System sys(cfg, both, both.name());
    return sys.run();
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 0.25);
    const double scale = bopt.scale;
    bench::Harness harness("ablation_multiprog", bopt);

    const std::string a = "Mcf", b = "Gap";
    const std::uint32_t rows = 32 * 1024;  // Mcf's Table 2 size

    const std::vector<std::function<driver::RunResult()>> tasks = {
        [&] { return runSolo(a, scale, rows); },
        [&] { return runSolo(b, scale, rows); },
        [&] { return runShared(a, b, scale, rows); },
        [&] { return runShared(a, b, scale, 2 * rows); },
    };
    const std::vector<driver::RunResult> results =
        harness.run([&] { return driver::runTasks(tasks); });

    const Coverage solo_a = coverageOf(results[0]);
    const Coverage solo_b = coverageOf(results[1]);
    const Coverage shared = coverageOf(results[2]);
    const Coverage doubled = coverageOf(results[3]);

    driver::TextTable table({"Configuration", "Coverage"});
    table.addRow({a + " solo, table " + std::to_string(rows / 1024) +
                      "K rows",
                  driver::fmtPercent(solo_a.covered)});
    table.addRow({b + " solo, table " + std::to_string(rows / 1024) +
                      "K rows",
                  driver::fmtPercent(solo_b.covered)});
    table.addRow({a + "|" + b + " shared table",
                  driver::fmtPercent(shared.covered)});
    table.addRow({a + "|" + b + " doubled table (~per-app tables)",
                  driver::fmtPercent(doubled.covered)});
    table.print("Ablation: shared vs per-application tables "
                "(Section 3.4)");

    harness.metric("coverage_solo_" + a, solo_a.covered);
    harness.metric("coverage_solo_" + b, solo_b.covered);
    harness.metric("coverage_shared", shared.covered);
    harness.metric("coverage_doubled", doubled.covered);
    harness.writeJson();
    return 0;
}
