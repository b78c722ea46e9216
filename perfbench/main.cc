/**
 * @file
 * perfbench: the simulator's host-throughput benchmark.
 *
 * Usage: perfbench --workload paper|churn|checked --seed N
 *                  --seconds S --trace 0|1
 *
 * Progress goes to stderr.  stdout gets a provenance line, one line per
 * metric and, last, the JSON result.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench.hh"

int
main(int argc, char **argv)
{
    perfbench::Args args;
    try {
        args = perfbench::parseArgs(
            std::vector<std::string>(argv + 1, argv + argc));
    } catch (const perfbench::UsageError &e) {
        std::cerr << "perfbench: " << e.what() << "\n"
                  << perfbench::usage() << "\n";
        return 2;
    }

    std::cout << perfbench::provenance(args) << std::endl;
    const perfbench::Report rep = perfbench::runBenchmark(
        args, perfbench::makeWorkloadDef(args.workload, args.seed),
        std::cerr);
    const auto &defs = args.trace ? perfbench::perLayerMetrics()
                                  : perfbench::endToEndMetrics();
    for (const perfbench::MetricDef &d : defs) {
        std::printf("# %-26s %.6g %s\n", d.name.c_str(),
                    rep.metrics.at(d.name), d.unit.c_str());
    }
    std::cout << perfbench::resultJson(rep, args.trace) << std::endl;
    return 0;
}
