/**
 * @file
 * Figure 9: breakdown of L2 misses and ULMT-pushed prefetches,
 * normalized to the application's original (NoPref) L2 miss count.
 *
 *   Hits          prefetches that eliminated an L2 miss
 *   DelayedHits   prefetches that arrived a bit late (partial save)
 *   NonPrefMisses misses that paid full latency (plus processor-side
 *                 prefetch requests that reached memory, as the paper
 *                 lumps them here)
 *   Replaced      pushed lines evicted before any reference
 *   Redundant     pushed lines dropped on arrival at the L2
 *
 * Reported for Sparse, Tree, and the average of the other seven
 * applications, for Base, Chain, Repl, Conven4+Repl, Conven4+ReplMC.
 *
 * Usage: fig9_effectiveness [scale] [--jobs=N] [--apps=A,B,...]
 *
 * --apps accepts any mix of application names and trace:<path>
 * corpora (captured with tools/ulmt-trace or converted from external
 * access traces), so recorded miss streams run through the same
 * effectiveness breakdown as the synthetic kernels.
 */

#include <cstdio>
#include <map>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

namespace {

struct Breakdown
{
    double hits = 0, delayed = 0, nonpref = 0, replaced = 0,
           redundant = 0;
    /** The same outcomes in the audit layer's lifecycle taxonomy
     *  (ISSUE 8): useful_timely == Hits and useful_late ==
     *  DelayedHits by construction, so legacy coverage() equals
     *  useful_timely + useful_late (test_audit checks the identity on
     *  raw counters; the bench reports both views side by side). */
    double useful_timely = 0, useful_late = 0, dropped = 0;

    double coverage() const { return hits + delayed; }

    Breakdown &
    operator+=(const Breakdown &o)
    {
        hits += o.hits;
        delayed += o.delayed;
        nonpref += o.nonpref;
        replaced += o.replaced;
        redundant += o.redundant;
        useful_timely += o.useful_timely;
        useful_late += o.useful_late;
        dropped += o.dropped;
        return *this;
    }

    Breakdown &
    operator/=(double d)
    {
        hits /= d;
        delayed /= d;
        nonpref /= d;
        replaced /= d;
        redundant /= d;
        useful_timely /= d;
        useful_late /= d;
        dropped /= d;
        return *this;
    }
};

Breakdown
breakdown(const driver::RunResult &r, const driver::RunResult &base)
{
    const double orig = static_cast<double>(base.hier.l2Misses);
    Breakdown b;
    b.hits = static_cast<double>(r.hier.ulmtHits) / orig;
    b.delayed = static_cast<double>(r.hier.ulmtDelayedHits) / orig;
    b.nonpref = static_cast<double>(r.hier.nonPrefMisses +
                                    r.hier.cpuPfToMemory) /
                orig;
    b.replaced = static_cast<double>(r.hier.ulmtReplaced) / orig;
    b.redundant = static_cast<double>(r.hier.pushRedundant()) / orig;
    if (r.audit.enabled && !r.audit.cores.empty()) {
        mem::AuditOutcomeCounts c;
        for (const auto &cr : r.audit.cores) {
            c.usefulTimely += cr.push.usefulTimely;
            c.usefulLate += cr.push.usefulLate;
            c.droppedFilter += cr.push.droppedFilter;
            c.droppedQueueFull += cr.push.droppedQueueFull;
            c.droppedDemandMatch += cr.push.droppedDemandMatch;
            c.droppedCpuPfMatch += cr.push.droppedCpuPfMatch;
        }
        b.useful_timely = static_cast<double>(c.usefulTimely) / orig;
        b.useful_late = static_cast<double>(c.usefulLate) / orig;
        b.dropped = static_cast<double>(
                        c.droppedFilter + c.droppedQueueFull +
                        c.droppedDemandMatch + c.droppedCpuPfMatch) /
                    orig;
    }
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 1.0);
    driver::ExperimentOptions opt;
    opt.scale = bopt.scale;
    bench::Harness harness("fig9_effectiveness", bopt);

    const std::vector<std::string> configs = {
        "Base", "Chain", "Repl", "Conven4+Repl", "Conven4+ReplMC"};

    const auto &apps = bopt.appList();
    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        jobs.push_back({app, driver::noPrefConfig(opt), opt});
        for (const std::string &name : configs) {
            driver::ExperimentOptions o = opt;
            driver::SystemConfig cfg;
            if (name == "Base") {
                cfg = driver::ulmtConfig(o, core::UlmtAlgo::Base, app);
            } else if (name == "Chain") {
                cfg = driver::ulmtConfig(o, core::UlmtAlgo::Chain, app);
            } else if (name == "Repl") {
                cfg = driver::ulmtConfig(o, core::UlmtAlgo::Repl, app);
            } else if (name == "Conven4+Repl") {
                cfg = driver::conven4PlusUlmtConfig(
                    o, core::UlmtAlgo::Repl, app);
            } else {
                o.placement = mem::MemProcPlacement::NorthBridge;
                cfg = driver::conven4PlusUlmtConfig(
                    o, core::UlmtAlgo::Repl, app);
                cfg.label = "Conven4+ReplMC";
            }
            jobs.push_back({app, std::move(cfg), o});
        }
    }
    const std::size_t per_app = 1 + configs.size();

    const std::vector<driver::RunResult> results =
        harness.run([&] { return driver::runAll(jobs); });

    // group -> config -> accumulated breakdown
    std::map<std::string, std::map<std::string, Breakdown>> groups;
    int others = 0;

    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        const std::string &app = apps[ai];
        const driver::RunResult &base = results[ai * per_app];
        const std::string group =
            (app == "Sparse" || app == "Tree") ? app : "Other7";
        if (group == "Other7")
            ++others;
        for (std::size_t ci = 0; ci < configs.size(); ++ci) {
            const driver::RunResult &r =
                results[ai * per_app + 1 + ci];
            groups[group][configs[ci]] += breakdown(r, base);
        }
    }
    for (auto &[name, b] : groups["Other7"])
        b /= static_cast<double>(others);

    driver::TextTable table({"Group", "Config", "Hits", "DelayedHits",
                             "NonPrefMisses", "Replaced", "Redundant",
                             "Dropped", "Coverage"});
    for (const char *group_name : {"Sparse", "Tree", "Other7"}) {
        const std::string group(group_name);
        for (const std::string &name : configs) {
            const Breakdown &b = groups[group][name];
            table.addRow({group, name, driver::fmt(b.hits),
                          driver::fmt(b.delayed),
                          driver::fmt(b.nonpref),
                          driver::fmt(b.replaced),
                          driver::fmt(b.redundant),
                          driver::fmt(b.dropped),
                          driver::fmt(b.coverage())});
            harness.metric("coverage_" + group + "_" + name,
                           b.coverage());
            // The lifecycle-taxonomy view of the same runs; with
            // auditing on, useful_timely + useful_late must equal the
            // legacy coverage metric above.
            harness.metric("useful_timely_" + group + "_" + name,
                           b.useful_timely);
            harness.metric("useful_late_" + group + "_" + name,
                           b.useful_late);
            harness.metric("dropped_" + group + "_" + name, b.dropped);
        }
    }
    table.print("Figure 9: L2 miss + prefetch breakdown "
                "(normalized to original misses)");
    harness.writeJson();
    return 0;
}
