/**
 * @file
 * Host-throughput benchmark of the ULMT simulator (perfbench/README.md).
 *
 * One process runs one workload: untraced passes for the end-to-end
 * metrics until the time budget is spent, then one traced pass that
 * times calls into each layer from outside.  Every simulation is
 * judged by checks that need no pinned reference values, so the
 * verdict holds for any seed, build type or run length.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/experiment.hh"

namespace perfbench {

/** A rejected command line; the message names the offending input. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The benchmark's command line (every flag is required). */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned seconds = 0;
    bool trace = false;
};

/** One-line usage text. */
const char *usage();

/**
 * Parse `--workload W --seed N --seconds S --trace 0|1` (also accepted
 * as `--flag=value`).  Integers are parsed as checked decimals: signs,
 * blanks, trailing garbage and out-of-range values are rejected.
 * @throws UsageError naming the input.
 */
Args parseArgs(const std::vector<std::string> &argv);

/** A reported metric: name and unit, as declared in BENCHMARK.json. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Metrics printed with `--trace 0`. */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics printed with `--trace 1`. */
const std::vector<MetricDef> &perLayerMetrics();

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** One simulation of a workload pass. */
struct SimSpec
{
    std::string app;
    driver::SystemConfig cfg;
    /** Also run a twin that saves a checkpoint mid-run, and finish
     *  that checkpoint again via driver::runSampled. */
    bool checkpointed = false;
};

/** A workload: a fixed set of simulations at one input size. */
struct WorkloadDef
{
    std::string name;
    driver::ExperimentOptions opt;
    std::vector<SimSpec> sims;
};

/** @throws UsageError for an unknown workload name. */
WorkloadDef makeWorkloadDef(const std::string &name, std::uint64_t seed);

/** What the verdict needs to know about one simulation. */
struct SimOutcome
{
    std::string key;            //!< "<app>/<label>"
    std::string error;          //!< non-empty when the simulation threw
    std::uint64_t records = 0;  //!< trace records the CPU consumed
    std::uint64_t traceLength = 0;
    std::uint64_t pendingEvents = 0;  //!< left in the queue after run()
    std::string fingerprint;    //!< driver::resultFingerprint

    // Audit lifecycle conservation over push records (engine slices):
    // issued == closed + open, and the cores issued as many.
    bool audited = false;
    std::uint64_t coreIssued = 0;
    std::uint64_t pushIssued = 0;
    std::uint64_t pushClosed = 0;
    std::uint64_t pushOpen = 0;

    // Table-cache identity: dram_accesses == misses + writebacks.
    bool tcacheOn = false;
    std::uint64_t tcacheDramAccesses = 0;
    std::uint64_t tcacheMisses = 0;
    std::uint64_t tcacheWritebacks = 0;

    // Checkpointed simulations only: the twin that saved a snapshot
    // mid-run, and that snapshot finished again by driver::runSampled.
    bool checkpointed = false;
    std::string twinFingerprint;
    std::string restoredFingerprint;
};

/** Fill the RunResult-derived fields of @p o. */
void describeResult(const driver::RunResult &r, SimOutcome &o);

/** The pass/fail judgement over a whole run. */
struct Verdict
{
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;  //!< one line per failure
};

/**
 * Judge every simulation of the untraced passes and of the traced pass:
 * each must have run without throwing, drained its queue, consumed
 * exactly its trace, kept the audit and table-cache identities, (when
 * checkpointed) restored to its own fingerprint, and produced the same
 * fingerprint in every untraced pass as in the traced pass.
 */
Verdict judge(const std::vector<std::vector<SimOutcome>> &untraced,
              const std::vector<SimOutcome> &traced);

/** Flat map of metric name to value. */
using Metrics = std::map<std::string, double>;

/** Result of a benchmark run, before printing. */
struct Report
{
    Verdict verdict;
    Metrics metrics;  //!< every end-to-end or every per-layer metric
};

/**
 * Run @p def as the command line asks: untraced passes for
 * @p args.seconds (at least one), then the traced pass; with
 * args.trace the per-layer metrics, else the end-to-end ones.
 * Progress goes to @p log.
 */
Report runBenchmark(const Args &args, const WorkloadDef &def,
                    std::ostream &log);

/** The provenance line printed before the result. */
std::string provenance(const Args &args);

/** The final JSON result line (no trailing newline). */
std::string resultJson(const Report &report, bool trace);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
