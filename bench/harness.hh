/**
 * @file
 * Shared benchmark harness: common CLI parsing, wall-clock timing and
 * machine-readable output.
 *
 * Every bench binary records its simulation runs and headline metrics
 * in a Harness and finishes with writeJson(), which emits
 * `BENCH_<name>.json` (in $ULMT_BENCH_DIR or the working directory).
 * The JSON tracks the repo's performance trajectory across PRs: wall
 * clock per run, simulated events per second, sim cycles, worker
 * count, plus whatever figure-level metrics the bench reports.
 * Schema (see EXPERIMENTS.md for the full description):
 *
 * {
 *   "bench": "fig7_exec_time",
 *   "jobs": 8,
 *   "scale": 1.0,
 *   "wall_seconds_total": 12.34,
 *   "provenance": {"git_sha": "...", "timestamp_utc": "...",
 *                  "host": {...}},
 *   "runs": [
 *     {"workload": "Mcf", "config": "NoPref", "source": "synthetic",
 *      "wall_seconds": 0.51, "events": 1234567,
 *      "events_per_sec": 2.4e6, "sim_cycles": 98765432,
 *      "effectiveness": {"cores": [{"push": {...}, "coverage": ...,
 *        "lead_time": {...}, "blocked_by": [...]}, ...],
 *        "engines": [...], ...}}, ...
 *   ],
 *   "metrics": {"avg_speedup_repl": 1.32, ...,
 *     "series": [{"workload": "Mcf", "config": "NoPref",
 *                 "interval_cycles": 16384, "cycle": [...],
 *                 "channels": {"l2.mshr_occupancy": [...], ...}}]}
 * }
 *
 * "provenance" and the host-performance fields are volatile across
 * machines and commits; determinism comparisons must ignore them.
 */

#ifndef BENCH_HARNESS_HH
#define BENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver/system.hh"

namespace bench {

/**
 * Common bench CLI: `bench [scale] [--jobs=N] [--apps=A,B,...]
 * [--trace-events=PATH] [--metrics-interval=N]
 * [--check[=off|basic|deep]] [--check-interval=N] [--audit=on|off]
 * [--checkpoint-at=SPEC] [--checkpoint-to=DIR] [--restore-from=PATH]
 * [--vm=on|off] [--page-size=4k|2m] [--remap-rate=R]
 * [--table-cache=<entries>[,<assoc>]] [--list-workloads]`.
 */
struct Options
{
    double scale = 1.0;
    unsigned jobs = 0;  //!< 0 = resolve via driver::runnerJobs()
    /** Workload list override (names or trace:<path>); empty = the
     *  bench's default set (usually the nine paper applications). */
    std::vector<std::string> apps;
    /** Chrome trace-event output path; empty = tracing off. */
    std::string traceEvents;
    /** Sampling-interval override in cycles (-1 = config default,
     *  0 = sampling off). */
    long long metricsInterval = -1;
    /** Runtime invariant checking for every run (DESIGN.md sect. 10):
     *  `--check`/`--check=basic` walks structural invariants,
     *  `--check=deep` adds the lockstep reference models.  Off by
     *  default; never perturbs simulated timing. */
    check::CheckOptions check;
    /** Checkpoint trigger spec ("<N>" misses or "<N>c"); empty = off. */
    std::string checkpointAt;
    /** Directory for triggered snapshots (empty = "."). */
    std::string checkpointTo;
    /** Restore every run from this snapshot; empty = off. */
    std::string restoreFrom;
    /** Lifecycle auditing for every run (`--audit=on|off`; the
     *  SystemConfig default -- on -- when unset).  Passive. */
    int audit = -1;
    /** Main processors per simulated machine (`--cores=N`). */
    unsigned cores = 1;
    /** ULMT serving mode (`--ulmt-mode=shared|percore|sharded`). */
    core::UlmtMode ulmtMode = core::UlmtMode::Shared;
    /** VM layer for every run (`--vm=on|off`, `--page-size=4k|2m`,
     *  `--remap-rate=R` remaps/Mcycle).  The defaults describe the
     *  pre-VM machine: vm.on() false, nothing built. */
    vm::VmSpec vm;
    /** True when any of the VM flags was given. */
    bool vmSet = false;
    /** Memory-side table cache for every run
     *  (`--table-cache=<entries>[,<assoc>]`; 0 -- the default --
     *  keeps the pre-MSCache table path, bit-identical). */
    mem::TableCacheSpec tableCache;
    /** True when --table-cache was given. */
    bool tableCacheSet = false;

    /** The bench's workload list: the override, or the nine apps. */
    const std::vector<std::string> &appList() const;
};

/**
 * Parse the common CLI.  A bare positional argument is the workload
 * scale, a finite number in (0, 64]; `--jobs=N` overrides the worker count for this process (it
 * takes precedence over ULMT_JOBS); `--apps=A,B,...` replaces the
 * default workload set with any mix of application names and
 * `trace:<path>` corpora; `--trace-events=PATH` streams Chrome trace
 * events from every run into PATH; `--metrics-interval=N` overrides
 * the time-series sampling interval (0 disables sampling);
 * `--check` (or `--check=basic`) runs the invariant checker on every
 * run, `--check=deep` additionally diffs the lockstep reference
 * models, `--check=off` keeps the default (no checker), and `--check-interval=N` sets the cadence in executed
 * events (default 2048);
 * `--audit=on|off` forces the (passive, on-by-default) prefetch
 * lifecycle auditor for every run;
 * `--checkpoint-at=SPEC` snapshots every run after SPEC ("<N>" demand
 * L2 misses, "<N>c" at cycle N) into `--checkpoint-to=DIR`;
 * `--restore-from=PATH` resumes every run from a snapshot;
 * `--cores=N` runs every configuration on an N-core machine and
 * `--ulmt-mode=shared|percore|sharded` picks how its memory-side
 * service is shared among the cores;
 * `--vm=on` forces address translation on for every run,
 * `--page-size=4k|2m` picks the page size and `--remap-rate=R` sets
 * the page-migration churn in remaps per million cycles (any VM flag
 * that leaves the spec non-default builds the VM layer);
 * `--table-cache=<entries>[,<assoc>]` puts an SRAM cache of that
 * geometry in front of the correlation table's DRAM traffic (0
 * disables it, the default);
 * `--list-workloads` prints the registered workload names and exits.
 * A bad command line prints a `fatal:` message naming the bad input
 * and exits with status 2, before any simulation runs.
 */
Options parseArgs(int argc, char **argv, double default_scale);

/** Collects per-run perf data and metrics; writes BENCH_<name>.json. */
class Harness
{
  public:
    /** @param name the bench name, e.g. "fig7_exec_time". */
    Harness(std::string name, const Options &opt);

    /** Record one completed simulation run. */
    void record(const driver::RunResult &r);

    /** Record a batch (e.g. the output of driver::runAll). */
    void recordAll(const std::vector<driver::RunResult> &rs);

    /** Report a figure-level metric (average speedup, coverage, ...). */
    void metric(const std::string &key, double value);

    /**
     * Write BENCH_<name>.json; returns the path written.  Also emits
     * BENCH_throughput.json, the host-side throughput summary of this
     * invocation: one {workload, config, scale, cores, ulmt_mode,
     * events, wall_seconds, events_per_sec} row per run plus the
     * aggregate events/sec.
     */
    std::string writeJson() const;

  private:
    struct Run
    {
        std::string workload;
        std::string label;
        std::string source;
        double wallSeconds;
        std::uint64_t events;
        std::uint64_t simCycles;
        double ckptSaveSeconds;
        double ckptRestoreSeconds;
        std::uint64_t ckptBytes;
        unsigned cores;
        std::string ulmtMode;
        mem::AuditReport audit;
        sim::TimeSeriesData metrics;
        // VM fields (all zero / false when the layer was off).
        bool vmOn;
        std::uint32_t vmPageBytes;
        double vmRemapRate;
        std::uint64_t vmRemaps;
        std::uint64_t vmTlbHits;
        std::uint64_t vmTlbMisses;
        std::uint64_t vmWalkCycles;
        std::uint64_t vmPagesMapped;
        // Table-cache fields (all zero / false when --table-cache=0).
        bool tcacheOn;
        std::uint32_t tcacheEntries;
        std::uint32_t tcacheAssoc;
        mem::TableCacheStats tcache;
    };

    void writeThroughputJson() const;

    std::string name_;
    Options opt_;
    std::chrono::steady_clock::time_point start_;
    std::vector<Run> runs_;
    std::vector<std::pair<std::string, double>> metrics_;
};

} // namespace bench

#endif // BENCH_HARNESS_HH
