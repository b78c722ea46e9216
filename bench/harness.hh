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
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "driver/system.hh"

namespace bench {

/**
 * What the benches read of the common CLI.  Every other flag goes
 * straight to the driver (driver::RunOverrides, the trace writer, the
 * runner's worker count).
 */
struct Options
{
    double scale = 1.0;
    unsigned jobs = 0;  //!< 0 = resolve via driver::runnerJobs()
    /** Workload list override (names or trace:<path>); empty = the
     *  bench's default set (usually the nine paper applications). */
    std::vector<std::string> apps;

    /** The bench's workload list: the override, or the nine apps. */
    const std::vector<std::string> &appList() const;
};

/**
 * Parse the common CLI: `bench [scale] [--jobs=N] [--apps=A,B,...]
 * [--trace-events=PATH] [--metrics-interval=N]
 * [--check[=off|basic|deep]] [--check-interval=N] [--audit=on|off]
 * [--checkpoint-at=SPEC] [--checkpoint-to=DIR] [--restore-from=PATH]
 * [--list-workloads]` plus the machine-shape flags shared with
 * `ulmt-ckpt create` and `ulmt-stats dump` (driver::parseRunFlag:
 * `--cores`, `--ulmt-mode`, `--vm`, `--page-size`, `--remap-rate`,
 * `--table-cache`), which apply to every run of the bench.
 *
 * A bare positional argument is the workload scale, a finite number in
 * (0, 64]; `--jobs=N` overrides the worker count for this process (it
 * takes precedence over ULMT_JOBS); `--apps=A,B,...` replaces the
 * default workload set with any mix of application names and
 * `trace:<path>` corpora; `--trace-events=PATH` streams Chrome trace
 * events from every run into PATH; `--metrics-interval=N` overrides
 * the time-series sampling interval (0 disables sampling);
 * `--check` (or `--check=basic`) runs the invariant checker on every
 * run, `--check=deep` additionally diffs the lockstep reference
 * models, `--check=off` keeps the default (no checker), and
 * `--check-interval=N` sets the cadence in executed events (default
 * 2048); `--audit=on|off` forces the (passive, on-by-default) prefetch
 * lifecycle auditor for every run; `--checkpoint-at=SPEC` snapshots
 * every run after SPEC ("<N>" demand L2 misses, "<N>c" at cycle N)
 * into `--checkpoint-to=DIR`; `--restore-from=PATH` resumes every run
 * from a snapshot; `--list-workloads` prints the registered workload
 * names and exits.  A bad command line prints a `fatal:` message
 * naming the bad input and exits with status 2, before any simulation
 * runs.
 */
Options parseArgs(int argc, char **argv, double default_scale);

/** Collects per-run perf data and metrics; writes BENCH_<name>.json. */
class Harness
{
  public:
    /** @param name the bench name, e.g. "fig7_exec_time". */
    Harness(std::string name, const Options &opt);

    /**
     * Run the bench's simulations (e.g. `[&] { return
     * driver::runAll(jobs); }`), record every result and return them.
     * A run that throws (a snapshot that does not match its config, a
     * bad ULMT_CHECK value, ...) prints a `fatal:` message naming the
     * cause and exits with status 2, writing no JSON.
     */
    std::vector<driver::RunResult>
    run(const std::function<std::vector<driver::RunResult>()> &batch);

    /** Report a figure-level metric (average speedup, coverage, ...). */
    void metric(const std::string &key, double value);

    /** Write BENCH_<name>.json; returns the path written. */
    std::string writeJson() const;

  private:
    std::string name_;
    Options opt_;
    std::chrono::steady_clock::time_point start_;
    std::vector<driver::RunResult> runs_;
    std::vector<std::pair<std::string, double>> metrics_;
};

} // namespace bench

#endif // BENCH_HARNESS_HH
