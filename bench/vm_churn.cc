/**
 * @file
 * VM churn sweep: correlation survival under page-remap pressure.
 *
 * Every machine runs with the VM layer on (workloads issue virtual
 * addresses, the correlation table observes physical ones) while the
 * remap rate sweeps {0, 20, 100, 500} 4 KB-page remaps per million
 * cycles and the page size sweeps {4 KB, 2 MB}.  Page sizes are
 * compared at equal migration *bandwidth* -- a 2 MB migration moves
 * 512x the bytes of a 4 KB one, so its event rate is scaled down by
 * the same factor (an OS pays for migration per byte, not per page).  A remap migrates the hottest
 * page to a fresh physical frame: the prefetcher's rows for the moved
 * page are rewritten in place, but every OTHER row whose successors
 * point into the old frame goes stale, so coverage decays as the
 * churn rate rises.  2 MB pages keep more correlated pairs inside one
 * frame (and fewer pushes die on the page-cross drop), so part of the
 * loss comes back -- the huge-page half of the sweep quantifies how
 * much.
 *
 * Usage: vm_churn [scale] [--jobs=N] [--apps=A,B,...]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

namespace {

/** Machine-wide push-prefetch page-cross drops. */
std::uint64_t
pageCrossDrops(const driver::RunResult &r)
{
    std::uint64_t total = 0;
    for (const mem::AuditCoreReport &c : r.audit.cores)
        total += c.push.droppedPageCross;
    return total;
}

double
tlbMissRate(const driver::RunResult &r)
{
    const std::uint64_t accesses = r.vmTlbHits + r.vmTlbMisses;
    return accesses ? double(r.vmTlbMisses) / double(accesses) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 0.25);
    driver::ExperimentOptions opt;
    opt.scale = bopt.scale;
    bench::Harness harness("vm_churn", bopt);

    // MST is the paper's strongest correlation workload, so its
    // coverage is the most sensitive to table staleness.
    const std::vector<std::string> apps =
        bopt.apps.empty() ? std::vector<std::string>{"MST"}
                          : bopt.apps;
    const std::vector<core::UlmtAlgo> algos = {core::UlmtAlgo::Base,
                                               core::UlmtAlgo::Chain,
                                               core::UlmtAlgo::Repl};
    const std::vector<double> rates = {0.0, 20.0, 100.0, 500.0};
    const std::vector<std::uint32_t> pageSizes = {4096u,
                                                  2u * 1024 * 1024};

    std::vector<driver::Job> jobs;
    for (const std::string &app : apps) {
        for (core::UlmtAlgo algo : algos) {
            for (std::uint32_t page : pageSizes) {
                for (double rate : rates) {
                    driver::SystemConfig cfg =
                        driver::ulmtConfig(opt, algo, app);
                    cfg.vm.enabled = true;
                    cfg.vm.pageBytes = page;
                    // Compare page sizes at equal *migration
                    // bandwidth*: the sweep rate is expressed in
                    // 4 KB-page remaps per Mcycle, and a 2 MB
                    // migration moves 512x the bytes, so its event
                    // rate scales down to keep bytes/cycle matched.
                    // At equal event rates a huge-page machine would
                    // do nothing but relocate.
                    cfg.vm.remapRate = rate * 4096.0 / page;
                    cfg.label = core::to_string(algo) + "/" +
                                vm::pageSizeName(page) + "/r" +
                                std::to_string(
                                    (unsigned long long)rate);
                    jobs.push_back({app, std::move(cfg), opt});
                }
            }
        }
    }

    const std::vector<driver::RunResult> results =
        harness.run([&] { return driver::runAll(jobs); });

    driver::TextTable table({"Appl", "Algo", "Page", "Rate/Mc",
                             "Coverage", "Accuracy", "Remaps",
                             "TLB miss", "PF page-cross"});
    std::size_t idx = 0;
    for (const std::string &app : apps) {
        for (core::UlmtAlgo algo : algos) {
            for (std::uint32_t page : pageSizes) {
                for (double rate : rates) {
                    const driver::RunResult &r = results[idx++];
                    const mem::AuditCoreReport &cr = r.audit.cores[0];
                    const std::string page_s = vm::pageSizeName(page);
                    table.addRow(
                        {app, core::to_string(algo), page_s,
                         std::to_string((unsigned long long)rate),
                         driver::fmt(cr.coverage),
                         driver::fmt(cr.accuracy),
                         std::to_string(r.vmRemaps),
                         driver::fmt(tlbMissRate(r)),
                         std::to_string(pageCrossDrops(r))});
                    const std::string key =
                        app + "_" + core::to_string(algo) + "_" +
                        page_s + "_r" +
                        std::to_string((unsigned long long)rate);
                    harness.metric("coverage_" + key, cr.coverage);
                    harness.metric("accuracy_" + key, cr.accuracy);
                    harness.metric("remaps_" + key,
                                   double(r.vmRemaps));
                    harness.metric("tlb_miss_rate_" + key,
                                   tlbMissRate(r));
                    harness.metric("pf_page_cross_" + key,
                                   double(pageCrossDrops(r)));
                }
            }
        }
    }
    table.print("VM churn: remap rate x page size "
                "(correlation survival)");
    harness.writeJson();
    return 0;
}
