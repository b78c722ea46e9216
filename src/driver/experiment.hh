/**
 * @file
 * Experiment helpers: the standard machine configurations of the
 * paper's evaluation (Section 5) and the Table 5 customizations.
 */

#ifndef DRIVER_EXPERIMENT_HH
#define DRIVER_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "driver/system.hh"

namespace driver {

/** Options shared by all experiment runs. */
struct ExperimentOptions
{
    double scale = 1.0;            //!< workload size multiplier
    std::uint64_t seed = 0xA11CE;  //!< workload structure seed
    mem::MemProcPlacement placement = mem::MemProcPlacement::InDram;
};

/** No prefetching at all. */
SystemConfig noPrefConfig(const ExperimentOptions &opt);

/** Processor-side Conven4 only. */
SystemConfig conven4Config(const ExperimentOptions &opt);

/**
 * Memory-side ULMT only, sized for @p app per Table 2.
 * @param algo Base, Chain, Repl, Seq1, Seq4 or a combination.
 */
SystemConfig ulmtConfig(const ExperimentOptions &opt,
                        core::UlmtAlgo algo, const std::string &app);

/** Conven4 plus a Non-Verbose ULMT ("Conven4+Repl" etc.). */
SystemConfig conven4PlusUlmtConfig(const ExperimentOptions &opt,
                                   core::UlmtAlgo algo,
                                   const std::string &app);

/**
 * The customized configuration of Table 5 (Conven4 always on):
 * CG -> Seq1+Repl in Verbose mode; MST, Mcf -> Repl with NumLevels=4;
 * other applications -> plain Conven4+Repl.
 *
 * @param customized set to whether @p app has a bespoke customization
 */
SystemConfig customConfig(const ExperimentOptions &opt,
                          const std::string &app, bool &customized);

/** Construct the workload and run one configuration to completion. */
RunResult runOne(const std::string &app, const SystemConfig &cfg,
                 const ExperimentOptions &opt);

// --- Process-wide run overrides and hooks ---------------------------
//
// Every experiment funnel (runOne, and runSampled for the config
// fields) honours these, so one command-line flag covers an entire
// sweep -- including runs dispatched through the parallel runner, each
// of which lands in the shared trace file as its own trace process.

/**
 * The SystemConfig fields a command line may override for every run,
 * one optional each (unset keeps each config's own value), plus the
 * checkpoint hooks of runOne.  The bench harness, `ulmt-ckpt create`
 * and `ulmt-stats dump` all fill one through parseRunFlag.
 */
struct RunOverrides
{
    std::optional<unsigned> cores;               //!< --cores=N
    std::optional<core::UlmtMode> ulmtMode;      //!< --ulmt-mode=
    /** --vm, --page-size, --remap-rate: any of them sets the whole
     *  spec, starting from the default (VM off). */
    std::optional<vm::VmSpec> vm;
    std::optional<mem::TableCacheSpec> tableCache;  //!< --table-cache=
    /** Passive observers: results are bit-identical whatever they
     *  hold (bench flags --check, --audit, --metrics-interval). */
    std::optional<check::CheckOptions> check;
    std::optional<bool> audit;
    std::optional<sim::Cycle> metricsInterval;

    /** One-shot checkpoint trigger of every runOne: "<N>" demand L2
     *  misses or "<N>c" at cycle N; empty = off.  Each run writes
     *  `<checkpointTo or .>/<app>-<label>.ulmtckp`. */
    std::string checkpointAt;
    std::string checkpointTo;
    /** Restore every runOne from this snapshot before running (empty =
     *  off).  The snapshot's configuration fingerprint must match the
     *  run's config, so this is for single-config invocations. */
    std::string restoreFrom;

    /** Copy every set config field into @p cfg. */
    void applyTo(SystemConfig &cfg) const;
};

/** Use @p o for all subsequent runOne / runSampled calls. */
void setRunOverrides(const RunOverrides &o);

/**
 * Parse @p arg into @p o when it is one of the shared machine-shape
 * flags: `--cores=N` (1..sim::maxCores),
 * `--ulmt-mode=shared|percore|sharded`, `--vm=on|off`,
 * `--page-size=4k|2m`, `--remap-rate=R` (remaps per million cycles,
 * 0..1e6) or `--table-cache=<entries>[,<assoc>]` (0 entries disables).
 * @return false when @p arg is none of them.
 * @throws std::invalid_argument naming the input when the value is bad.
 */
bool parseRunFlag(const std::string &arg, RunOverrides &o);

/** The value of @p arg after @p key ("--scale="), or nullptr when
 *  @p arg does not start with @p key. */
const char *flagValue(const std::string &arg, const char *key);

/**
 * A workload scale: a finite number in (0, 64], 64 being 64x the
 * evaluation size.
 * @throws std::invalid_argument naming the input otherwise.
 */
double parseScale(const std::string &s);

/**
 * The whole of @p s as a decimal or 0x-hex integer below 2^64.
 * @throws std::invalid_argument "bad <what> '<s>' ..." otherwise.
 */
std::uint64_t parseUint(const std::string &s, const std::string &what);

/** A seed: parseUint(s, "seed"). */
std::uint64_t parseSeed(const std::string &s);

/**
 * Start writing Chrome trace events from all subsequent runs to
 * @p path (empty string turns tracing back off).
 * @throws std::runtime_error when the file cannot be created.
 */
void setTraceEventsPath(const std::string &path);

/** The active shared writer, or nullptr when tracing is off. */
sim::TraceEventWriter *traceEventWriter();

/** Finalize and close the shared trace file (idempotent). */
void finishTraceEvents();

/**
 * The per-core workload set of a multicore run: core 0 replays the
 * exact single-core trace of (@p app, @p seed, @p scale); every other
 * core runs an independently seeded instance of the same kernel,
 * translated into its own private address slice (workloads/offset.hh).
 */
std::vector<std::unique_ptr<workloads::Workload>>
makeCoreWorkloads(const std::string &app, std::uint64_t seed,
                  double scale, unsigned cores);

/**
 * The sampled-run mode (warmup + measure): rebuild the workload from
 * the checkpoint's own header (app key, seed, scale), restore the
 * snapshot and run the remainder.  The machine shape (cores, ULMT
 * mode) comes from the header; the other RunOverrides fields apply as
 * in runOne, the checkpoint hooks do not.  The result carries full-run
 * cumulative statistics, bit-identical to an uninterrupted run of the
 * same configuration -- the warmup simulation is simply skipped.
 */
RunResult runSampled(const SystemConfig &cfg,
                     const std::string &ckpt_path);

/** Registered workload names (the nine paper applications); the
 *  "trace:<path>" scheme is additionally accepted everywhere. */
const std::vector<std::string> &listWorkloads();

/** Capture the demand L2 miss stream of a NoPref run (Figs. 5/6). */
std::vector<sim::Addr> captureMissStream(const std::string &app,
                                         const ExperimentOptions &opt);

} // namespace driver

#endif // DRIVER_EXPERIMENT_HH
