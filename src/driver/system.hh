/**
 * @file
 * Full-system assembly: the public entry point of the library.
 *
 * A System wires together the main processor, its cache hierarchy
 * (optionally with the Conven4 stream prefetcher), the memory system,
 * and -- when configured -- a ULMT on the memory processor, then runs
 * a workload to completion and returns every statistic the paper's
 * evaluation uses.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *     driver::SystemConfig cfg;
 *     cfg.ulmt.algo = core::UlmtAlgo::Repl;
 *     cfg.ulmt.numRows = workloads::tableNumRows("Mcf");
 *     auto wl = workloads::makeWorkload("Mcf", {});
 *     driver::System sys(cfg, *wl);
 *     driver::RunResult r = sys.run();
 */

#ifndef DRIVER_SYSTEM_HH
#define DRIVER_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.hh"
#include "ckpt/checkpoint.hh"
#include "core/factory.hh"
#include "core/ulmt_engine.hh"
#include "driver/hw_correlation.hh"
#include "cpu/hierarchy.hh"
#include "cpu/main_processor.hh"
#include "mem/memory_system.hh"
#include "mem/timing_params.hh"
#include "sim/event_queue.hh"
#include "sim/fields.hh"
#include "sim/stat_registry.hh"
#include "sim/timeseries.hh"
#include "sim/trace_event.hh"
#include "vm/vm.hh"
#include "workloads/workload.hh"

namespace driver {

/** Everything that defines one simulated machine configuration. */
struct SystemConfig
{
    /** Machine parameters (Table 3 defaults, incl. placement). */
    mem::TimingParams timing;
    /** Enable the processor-side Conven4 stream prefetcher. */
    bool conven4 = false;
    /** The memory-side ULMT (algo None = no memory-side prefetching). */
    core::UlmtSpec ulmt;
    /**
     * Number of main processors (--cores).  Each core gets a private
     * L1/L2 hierarchy and its own workload; all share the bus, the
     * DRAM and the memory-side queues.  1 (the default) is the paper's
     * machine and is bit-identical to the pre-multicore simulator.
     */
    unsigned cores = 1;
    /** How the memory-side service is shared among the cores. */
    core::UlmtMode ulmtMode = core::UlmtMode::Shared;
    /**
     * SRAM budget of a hardware correlation engine at the L2 (bytes);
     * 0 disables it.  A baseline for the ULMT comparison.
     */
    std::size_t hwCorrSramBytes = 0;
    /** Hardware baseline uses Replicated instead of Base. */
    bool hwCorrReplicated = false;
    /** Record the demand L2 miss stream (predictability studies). */
    bool recordMissStream = false;
    /**
     * Time-series sampling interval in cycles (0 disables).  Passive
     * (marked in forEachField) -- it never perturbs simulated timing,
     * and both fingerprints are identical with it on or off.
     */
    sim::Cycle metricsInterval = 16384;
    /**
     * Runtime invariant checking (DESIGN.md section 10).  Off by
     * default; Basic walks structural invariants every
     * check.everyEvents executed events, Deep additionally diffs
     * lockstep reference models.  Passive like metricsInterval.  The
     * ULMT_CHECK environment variable (1/basic/deep) enables it
     * process-wide when this field is Off.
     */
    check::CheckOptions check;
    /**
     * Prefetch lifecycle auditing and per-tenant interference
     * attribution (DESIGN.md section 12).  On by default; passive like
     * metricsInterval.  The ULMT_AUDIT environment variable (0/off or
     * 1/on) overrides this field process-wide.
     */
    bool audit = true;
    /**
     * Virtual-memory layer (DESIGN.md section 13): per-core TLBs, a
     * page-remap engine and page-size control.  Off by default --
     * when vm.on() is false no Vm is built and simulated results are
     * bit-identical to the pre-VM simulator.
     */
    vm::VmSpec vm;
    /**
     * Memory-side table cache (MSCache, DESIGN.md section 14).  Off
     * by default -- when tableCache.on() is false the table/DRAM
     * path is bit-identical to the pre-cache simulator.
     */
    mem::TableCacheSpec tableCache;
    /** Display name ("NoPref", "Conven4+Repl", ...). */
    std::string label = "NoPref";

    /** Every field, named once (sim/fields.hh). */
    template <class V>
    static constexpr void
    forEachField(V &&v)
    {
        v("timing", &SystemConfig::timing);
        v("conven4", &SystemConfig::conven4);
        v("ulmt", &SystemConfig::ulmt);
        v("cores", &SystemConfig::cores);
        v("ulmtMode", &SystemConfig::ulmtMode);
        v("hwCorrSramBytes", &SystemConfig::hwCorrSramBytes);
        v("hwCorrReplicated", &SystemConfig::hwCorrReplicated);
        v("recordMissStream", &SystemConfig::recordMissStream);
        v("metricsInterval", &SystemConfig::metricsInterval,
          sim::passiveField);
        v("check", &SystemConfig::check, sim::passiveField);
        v("audit", &SystemConfig::audit, sim::passiveField);
        v("vm", &SystemConfig::vm);
        v("tableCache", &SystemConfig::tableCache);
        v("label", &SystemConfig::label);
    }
};

/**
 * Fingerprint of everything that defines a simulated machine and its
 * input: every field SystemConfig::forEachField reaches, except the
 * passive ones, plus the workload name.  A snapshot only restores
 * into a machine with the same fingerprint.
 */
std::uint64_t configFingerprint(const SystemConfig &cfg,
                                const std::string &workload);

/** All statistics from one run. */
struct RunResult
{
    std::string workload;
    std::string label;
    /** Where the records came from: "synthetic" or "trace:<path>".
     *  Metadata only -- excluded from determinism fingerprints so a
     *  replayed corpus can be diffed against its live capture. */
    std::string source = "synthetic";

    sim::Cycle cycles = 0;
    sim::Cycle busyCycles = 0;
    sim::Cycle uptoL2Stall = 0;
    sim::Cycle beyondL2Stall = 0;
    std::uint64_t records = 0;
    /** Full processor stats (incl. stall-source decomposition). */
    cpu::ProcessorStats proc;

    cpu::HierarchyStats hier;
    core::UlmtStats ulmt;
    mem::MemorySystemStats memsys;
    mem::DramStats dram;

    /** Machine shape, echoed for report/bench provenance. */
    unsigned cores = 1;
    std::string ulmtMode = "shared";

    // --- Virtual memory (all zero when the VM layer was off) ---------
    bool vmOn = false;
    std::uint32_t vmPageBytes = 0;
    double vmRemapRate = 0.0;
    std::uint64_t vmRemaps = 0;
    /** Machine-wide TLB totals (summed over cores). */
    std::uint64_t vmTlbHits = 0;
    std::uint64_t vmTlbMisses = 0;
    std::uint64_t vmWalkCycles = 0;
    std::uint64_t vmPagesMapped = 0;

    // --- Table cache (all zero when --table-cache was 0) -------------
    bool tcacheOn = false;
    std::uint32_t tcacheEntries = 0;
    std::uint32_t tcacheAssoc = 0;
    mem::TableCacheStats tcache;

    /** Prefetch lifecycle + interference audit (enabled=false when
     *  the auditor was off).  Observability only -- excluded from
     *  determinism fingerprints. */
    mem::AuditReport audit;

    // --- Multicore (populated only when the machine has > 1 core;
    // --- the scalar fields above then refer to core/engine 0) --------
    std::vector<cpu::ProcessorStats> coreProc;
    std::vector<cpu::HierarchyStats> coreHier;
    std::vector<core::UlmtStats> engineUlmt;
    /** Per-tenant controller QoS counters -- always one entry per
     *  core, including the single-core machine. */
    std::vector<mem::CoreQos> coreQos;

    /** Bus busy cycles: total and prefetch-attributable. */
    sim::Cycle busBusyTotal = 0;
    sim::Cycle busBusyPrefetch = 0;

    // --- Host-side performance of the simulation itself -------------
    /** Wall-clock seconds spent inside the event loop (host time;
     *  excluded from determinism comparisons). */
    double wallSeconds = 0.0;
    /** Events executed by the run's event queue. */
    std::uint64_t eventsExecuted = 0;

    // --- Checkpoint costs (0 when no checkpointing happened; host-
    // --- side metadata, excluded from determinism comparisons) ------
    double ckptSaveSeconds = 0.0;
    double ckptRestoreSeconds = 0.0;
    std::uint64_t ckptBytes = 0;

    /** Host-side simulation throughput. */
    double
    eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(eventsExecuted) / wallSeconds
                   : 0.0;
    }

    /** Figure 6 bins: fraction of miss gaps in [0,80) [80,200)
     *  [200,280) [280,inf). */
    std::vector<double> missGapFractions;

    /** Demand L2 miss stream (only when recordMissStream was set). */
    std::vector<sim::Addr> missStream;

    /** Every non-passive registry entry at the end of the run (the
     *  content of resultFingerprint()). */
    std::vector<sim::StatLeaf> leaves;

    /** Sampled time series (empty when metricsInterval was 0).
     *  Observability only -- excluded from determinism fingerprints. */
    sim::TimeSeriesData metrics;

    double
    busUtilization() const
    {
        return cycles ? static_cast<double>(busBusyTotal) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    busUtilizationPrefetch() const
    {
        return cycles ? static_cast<double>(busBusyPrefetch) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Execution time relative to a baseline run. */
    double
    normalizedTime(const RunResult &baseline) const
    {
        return baseline.cycles
                   ? static_cast<double>(cycles) /
                         static_cast<double>(baseline.cycles)
                   : 0.0;
    }

    /** Speedup over a baseline run. */
    double
    speedup(const RunResult &baseline) const
    {
        return cycles ? static_cast<double>(baseline.cycles) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** A fully wired simulated machine running one workload. */
class System
{
  public:
    System(const SystemConfig &cfg, workloads::Workload &workload);

    /**
     * Run an arbitrary trace source (e.g. a multiprogrammed
     * interleaving) under @p name.  Single-core only: a multicore
     * machine needs one source per core.
     */
    System(const SystemConfig &cfg, cpu::TraceSource &source,
           std::string name);

    /**
     * Multicore form: one workload per core (workloads.size() must
     * equal cfg.cores).  The System owns the workloads, so checkpoint
     * restore can rewind and fast-forward each core's trace cursor.
     */
    System(const SystemConfig &cfg,
           std::vector<std::unique_ptr<workloads::Workload>> workloads,
           std::string name);

    /** Run the workload to completion and harvest the statistics. */
    RunResult run();

    // --- Checkpoint / restore (src/ckpt, DESIGN.md section 9) --------

    /**
     * Identify the workload for checkpoint headers: the registry key
     * (@p app_key, e.g. "Mcf" or "trace:<path>") plus the generation
     * seed and scale, so a restoring process can rebuild the identical
     * workload from the header alone.  Defaults to the workload's
     * display name and the WorkloadParams defaults.
     */
    void setCheckpointMeta(std::string app_key, std::uint64_t seed,
                           double scale);

    /**
     * Arm a one-shot checkpoint during run(): @p spec is either
     * "<N>" (after N demand L2 misses) or "<N>c" (at cycle N).  The
     * snapshot is written to @p path and the run continues.
     */
    void setCheckpointTrigger(const std::string &spec, std::string path);

    /** Snapshot the complete simulator state to @p path (between
     *  events; normally invoked via setCheckpointTrigger). */
    void saveCheckpoint(const std::string &path);

    /**
     * Restore a snapshot taken under an identical configuration.
     * Must be called before run(); the run then continues from the
     * snapshot instant and finishes with bit-identical statistics to
     * an uninterrupted run.
     */
    void restoreCheckpoint(const std::string &path);

    /** Deliver an OS page-remap notification to the ULMT (Sec 3.4). */
    void pageRemap(sim::Addr old_page, sim::Addr new_page,
                   std::uint32_t page_bytes);

    // Component access (tests, examples).
    sim::EventQueue &eventQueue() { return eq_; }
    cpu::Hierarchy &hierarchy(unsigned core = 0)
    {
        return *hiers_[core];
    }
    mem::MemorySystem &memorySystem() { return *ms_; }
    /** Engine @p idx, or nullptr when no ULMT is configured. */
    core::UlmtEngine *ulmtEngine(unsigned idx = 0)
    {
        return idx < engines_.size() ? engines_[idx].get() : nullptr;
    }
    cpu::MainProcessor &processor(unsigned core = 0)
    {
        return *cpus_[core];
    }
    unsigned numCores() const { return cfg_.cores; }
    std::size_t numEngines() const { return engines_.size(); }
    const SystemConfig &config() const { return cfg_; }

    /** Every component statistic under one dotted namespace. */
    const sim::StatRegistry &statRegistry() const { return registry_; }

    /** The invariant checker, or nullptr when checking is off. */
    check::InvariantChecker *checker() { return checker_.get(); }

    /** The lifecycle auditor, or nullptr when auditing is off. */
    mem::PrefetchAudit *audit() { return audit_.get(); }

    /** The VM layer, or nullptr when cfg.vm.on() is false. */
    vm::Vm *vm() { return vm_.get(); }

    /**
     * Route trace events into @p buf (owned by the caller; must
     * outlive run()).  nullptr -- the default -- disables tracing at
     * the cost of one pointer test per would-be event.
     */
    void setTraceEvents(sim::TraceEventBuffer *buf);

  private:
    /** Wire every component for cfg_ (shared by all constructors). */
    void init();

    /** Register all component stats and set up the sampler. */
    void initObservability();

    /** Rebuild a pending event's closure from its checkpoint tag. */
    sim::EventQueue::Action resolveEvent(const sim::SavedEvent &s);

    SystemConfig cfg_;
    /** One trace source per core (non-owning). */
    std::vector<cpu::TraceSource *> sources_;
    /** Per-core workloads when known (enables the checkpoint layer to
     *  fast-forward each trace cursor on restore); empty entries when
     *  constructed from a bare TraceSource. */
    std::vector<workloads::Workload *> coreWorkloads_;
    /** Workloads the System owns (multicore constructor). */
    std::vector<std::unique_ptr<workloads::Workload>> ownedWorkloads_;
    std::string workloadName_;
    std::string workloadSource_ = "synthetic";
    bool restored_ = false;
    std::string ckptApp_;
    std::uint64_t ckptSeed_ = workloads::WorkloadParams{}.seed;
    double ckptScale_ = 1.0;
    std::uint64_t ckptTriggerMisses_ = 0;
    sim::Cycle ckptTriggerCycle_ = 0;
    std::string ckptPath_;
    double ckptSaveSeconds_ = 0.0;
    double ckptRestoreSeconds_ = 0.0;
    std::uint64_t ckptBytes_ = 0;
    sim::EventQueue eq_;
    std::unique_ptr<mem::MemorySystem> ms_;
    std::vector<std::unique_ptr<cpu::Hierarchy>> hiers_;
    std::vector<std::unique_ptr<core::UlmtEngine>> engines_;
    std::unique_ptr<HwCorrelationEngine> hwCorr_;
    std::vector<std::unique_ptr<cpu::MainProcessor>> cpus_;
    std::vector<sim::Addr> missStream_;
    sim::StatRegistry registry_;
    std::unique_ptr<sim::TimeSeriesSampler> sampler_;
    std::unique_ptr<check::InvariantChecker> checker_;
    std::unique_ptr<mem::PrefetchAudit> audit_;
    std::unique_ptr<vm::Vm> vm_;
    sim::TraceEventBuffer *trace_ = nullptr;
};

} // namespace driver

#endif // DRIVER_SYSTEM_HH
