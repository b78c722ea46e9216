#include "perfbench.hh"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "check/invariant_checker.hh"
#include "core/cost.hh"
#include "driver/report.hh"
#include "mem/cache.hh"
#include "mem/table_cache.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stat_registry.hh"
#include "workloads/workload.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ===================================================================
// Command line
// ===================================================================

const char *
usage()
{
    return "usage: perfbench --workload paper|churn|checked --seed N "
           "--seconds S --trace 0|1";
}

namespace {

/** Checked decimal parse of @p text into [0, max]. */
std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text,
              std::uint64_t max)
{
    if (text.empty())
        throw UsageError(flag + ": empty value");
    std::uint64_t v = 0;
    for (char ch : text) {
        if (ch < '0' || ch > '9') {
            throw UsageError(flag + ": '" + text +
                             "' is not a non-negative decimal integer");
        }
        const std::uint64_t digit = std::uint64_t(ch - '0');
        if (digit > max || v > (max - digit) / 10) {
            throw UsageError(flag + ": '" + text + "' is out of range "
                             "(at most " + std::to_string(max) + ")");
        }
        v = v * 10 + digit;
    }
    return v;
}

} // namespace

Args
parseArgs(const std::vector<std::string> &argv)
{
    std::map<std::string, std::string> seen;
    for (std::size_t i = 0; i < argv.size(); ++i) {
        std::string flag = argv[i];
        std::string value;
        bool has_value = false;
        if (const auto eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
            has_value = true;
        }
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace") {
            throw UsageError("unknown argument '" + argv[i] + "'");
        }
        if (!has_value) {
            if (i + 1 >= argv.size())
                throw UsageError(flag + ": missing value");
            value = argv[++i];
        }
        if (!seen.emplace(flag, value).second)
            throw UsageError(flag + ": given more than once");
    }
    for (const char *flag :
         {"--workload", "--seed", "--seconds", "--trace"}) {
        if (!seen.count(flag))
            throw UsageError(std::string(flag) + ": missing");
    }

    Args a;
    a.workload = seen["--workload"];
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) ==
        names.end()) {
        throw UsageError("--workload: unknown workload '" + a.workload +
                         "' (paper, churn or checked)");
    }
    a.seed = parseUnsigned("--seed", seen["--seed"],
                           std::numeric_limits<std::uint64_t>::max());
    a.seconds = unsigned(parseUnsigned("--seconds", seen["--seconds"],
                                       3600));
    a.trace = parseUnsigned("--trace", seen["--trace"], 1) == 1;
    return a;
}

// ===================================================================
// Metric catalogue (must match BENCHMARK.json; a test checks it)
// ===================================================================

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"records_per_s", "1/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim.events", "count"},
        {"sim.events_per_record", "ratio"},
        {"sim.dispatch_ns", "ns"},
        {"sim.timeline_acquire_ns", "ns"},
        {"sim.eventqueue_ns", "ns"},
        {"mem.cache_access_ns", "ns"},
        {"mem.tcache_access_ns", "ns"},
        {"mem.tcache_hit_rate", "fraction"},
        {"mem.table_reads", "count"},
        {"mem.table_writes", "count"},
        {"mem.l2_misses", "count"},
        {"mem.bus_util", "fraction"},
        {"mem.dram_row_hit_rate", "fraction"},
        {"mem.q1_wait_mean", "cycles"},
        {"mem.filter_drop_frac", "fraction"},
        {"mem.pf_coverage", "fraction"},
        {"mem.pf_accuracy", "fraction"},
        {"mem.pf_timely_frac", "fraction"},
        {"core.prefetch_step_ns", "ns"},
        {"core.learn_step_ns", "ns"},
        {"core.remap_ns", "ns"},
        {"core.response_mean", "cycles"},
        {"core.occupancy_mean", "cycles"},
        {"cpu.ipc", "ratio"},
        {"cpu.beyond_l2_stall_frac", "fraction"},
        {"vm.remaps", "count"},
        {"vm.tlb_miss_rate", "fraction"},
        {"check.passes", "count"},
        {"check.pass_us", "us"},
        {"check.share", "fraction"},
        {"ckpt.save_s", "s"},
        {"ckpt.restore_s", "s"},
        {"ckpt.bytes", "bytes"},
        {"workloads.gen_s", "s"},
        {"workloads.next_ns", "ns"},
        {"driver.construct_s", "s"},
        {"driver.run_s", "s"},
        {"driver.sims", "count"},
        {"trace.overhead", "ratio"},
    };
    return defs;
}

// ===================================================================
// Workloads
// ===================================================================

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"paper", "churn",
                                                   "checked"};
    return names;
}

WorkloadDef
makeWorkloadDef(const std::string &name, std::uint64_t seed)
{
    using core::UlmtAlgo;
    WorkloadDef def;
    def.name = name;
    def.opt.seed = seed;
    const driver::ExperimentOptions &opt = def.opt;

    if (name == "paper") {
        // The Fig. 7 configurations over irregular (MST, Mcf) and
        // regular (CG, Sparse) applications on the default machine.
        def.opt.scale = 0.25;
        for (const char *app : {"MST", "Mcf", "CG", "Sparse"}) {
            def.sims.push_back({app, driver::noPrefConfig(opt)});
            def.sims.push_back({app, driver::conven4Config(opt)});
            for (UlmtAlgo a :
                 {UlmtAlgo::Base, UlmtAlgo::Chain, UlmtAlgo::Repl}) {
                def.sims.push_back({app, driver::ulmtConfig(opt, a, app)});
            }
            def.sims.push_back(
                {app, driver::conven4PlusUlmtConfig(opt, UlmtAlgo::Repl,
                                                    app)});
        }
        return def;
    }
    if (name == "churn") {
        // vm_churn's r500 point on 4 KB pages with the table cache:
        // relocation rewrites share the table with lookups.  Two
        // pointer-chasing apps; Mcf is left out because its fixed
        // minimum size makes one churned run last ~15 s.
        def.opt.scale = 0.15;
        for (const char *app : {"MST", "Parser"}) {
            for (UlmtAlgo a : {UlmtAlgo::Repl, UlmtAlgo::Base}) {
                SimSpec s{app, driver::ulmtConfig(opt, a, app)};
                s.cfg.vm.enabled = true;
                s.cfg.vm.pageBytes = 4096;
                s.cfg.vm.remapRate = 500.0;
                s.cfg.tableCache = {4096, 8};
                s.cfg.label += "/4k/r500/tc4096x8";
                s.checkpointed = std::string(app) == "MST" &&
                                 a == UlmtAlgo::Repl;
                def.sims.push_back(std::move(s));
            }
        }
        return def;
    }
    if (name == "checked") {
        // Full-structure invariant walks every 2048 events take ~90 %
        // of run time.  Tree's 8K-row table (Table 2) keeps each walk
        // cache-resident, so the host timing is steadier than with
        // MST's 256K rows; the walks dominate either way.
        def.opt.scale = 0.1;
        for (bool conven4 : {false, true}) {
            SimSpec s{"Tree",
                      conven4 ? driver::conven4PlusUlmtConfig(
                                    opt, UlmtAlgo::Repl, "Tree")
                              : driver::ulmtConfig(opt, UlmtAlgo::Repl,
                                                   "Tree")};
            s.cfg.check.mode = check::CheckMode::Basic;
            def.sims.push_back(std::move(s));
        }
        return def;
    }
    throw UsageError("--workload: unknown workload '" + name + "'");
}

// ===================================================================
// Verdict
// ===================================================================

void
describeResult(const driver::RunResult &r, SimOutcome &o)
{
    o.records = r.records;
    o.fingerprint = driver::resultFingerprint(r);
    o.audited = r.audit.enabled;
    o.pushIssued = o.pushClosed = o.coreIssued = 0;
    // The identity is kept per push record, which the engine slices
    // count.  The core slices additionally count delayed hits on a push
    // whose record already closed (one in-flight push can serve several
    // demand misses), so their outcomes may exceed their issues.
    for (const mem::AuditEngineReport &e : r.audit.engines) {
        o.pushIssued += e.push.issued;
        o.pushClosed += e.push.usefulTimely + e.push.usefulLate +
                        e.push.evictedUnused + e.push.redundant;
    }
    for (const mem::AuditCoreReport &c : r.audit.cores)
        o.coreIssued += c.push.issued;
    o.pushOpen = r.audit.openInflight + r.audit.openInstalled;
    o.tcacheOn = r.tcacheOn;
    o.tcacheDramAccesses = r.tcache.dramAccesses;
    o.tcacheMisses = r.tcache.misses;
    o.tcacheWritebacks = r.tcache.writebacks;
}

namespace {

/** Why @p o fails on its own (empty when it passes). */
std::string
selfProblem(const SimOutcome &o)
{
    if (!o.error.empty())
        return "threw: " + o.error;
    if (o.pendingEvents != 0) {
        return std::to_string(o.pendingEvents) +
               " events left in the queue";
    }
    if (o.records != o.traceLength) {
        return "consumed " + std::to_string(o.records) + " of " +
               std::to_string(o.traceLength) + " trace records";
    }
    if (o.audited && (o.pushIssued != o.pushClosed + o.pushOpen ||
                      o.coreIssued != o.pushIssued)) {
        return "audit conservation: issued " +
               std::to_string(o.pushIssued) + " (cores " +
               std::to_string(o.coreIssued) + ") != closed " +
               std::to_string(o.pushClosed) + " + open " +
               std::to_string(o.pushOpen);
    }
    if (o.tcacheOn &&
        o.tcacheDramAccesses != o.tcacheMisses + o.tcacheWritebacks) {
        return "table cache: dram_accesses " +
               std::to_string(o.tcacheDramAccesses) + " != misses " +
               std::to_string(o.tcacheMisses) + " + writebacks " +
               std::to_string(o.tcacheWritebacks);
    }
    if (o.checkpointed && o.twinFingerprint != o.fingerprint)
        return "checkpoint-saving twin differs from the straight run";
    if (o.checkpointed && o.restoredFingerprint != o.fingerprint)
        return "restored fingerprint differs from its straight twin";
    return {};
}

} // namespace

Verdict
judge(const std::vector<std::vector<SimOutcome>> &untraced,
      const std::vector<SimOutcome> &traced)
{
    Verdict v;
    auto count = [&v](const SimOutcome &o, const std::string &pass,
                      std::string problem) {
        ++v.attempted;
        if (problem.empty())
            return;
        ++v.failed;
        v.problems.push_back(pass + " " + o.key + ": " + problem);
    };
    for (std::size_t p = 0; p < untraced.size(); ++p) {
        const std::string pass = "pass " + std::to_string(p);
        if (untraced[p].size() != traced.size()) {
            v.problems.push_back(pass + ": simulation count differs "
                                        "from the traced pass");
            return v;
        }
        for (std::size_t i = 0; i < traced.size(); ++i) {
            const SimOutcome &o = untraced[p][i];
            std::string problem = selfProblem(o);
            if (problem.empty() && o.fingerprint != traced[i].fingerprint)
                problem = "fingerprint differs from the traced pass";
            count(o, pass, std::move(problem));
        }
    }
    for (const SimOutcome &o : traced)
        count(o, "traced", selfProblem(o));
    v.correct = !untraced.empty() && !traced.empty() && v.failed == 0 &&
                v.problems.empty();
    return v;
}

// ===================================================================
// Passes
// ===================================================================

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Registry leaves summed over simulations; a sample stat NAME adds
 *  NAME.sum and NAME.count. */
using Leaves = std::map<std::string, double>;

class LeafSum : public sim::StatVisitor
{
  public:
    explicit LeafSum(Leaves &out) : out_(out) {}

    void
    counter(const std::string &name, std::uint64_t value) override
    {
        out_[name] += double(value);
    }

    void
    gauge(const std::string &name, double value) override
    {
        out_[name] += value;
    }

    void
    sampleStat(const std::string &name, const sim::SampleStat &s) override
    {
        out_[name + ".sum"] += s.sum();
        out_[name + ".count"] += double(s.count());
    }

    void
    histogram(const std::string &, const sim::BinnedHistogram &) override
    {
    }

  private:
    Leaves &out_;
};

/** The timing wrapper of the traced pass: times TraceSource::next. */
class TimedWorkload : public workloads::Workload
{
  public:
    explicit TimedWorkload(workloads::Workload &inner) : inner_(inner) {}

    bool
    next(cpu::TraceRecord &rec) override
    {
        const auto t0 = Clock::now();
        const bool ok = inner_.next(rec);
        seconds_ += since(t0);
        ++calls_;
        return ok;
    }

    std::string name() const override { return inner_.name(); }
    std::string source() const override { return inner_.source(); }
    void reset() override { inner_.reset(); }
    std::size_t footprintBytes() override
    {
        return inner_.footprintBytes();
    }
    std::size_t traceLength() override { return inner_.traceLength(); }

    double seconds() const { return seconds_; }
    std::uint64_t calls() const { return calls_; }

  private:
    workloads::Workload &inner_;
    double seconds_ = 0.0;
    std::uint64_t calls_ = 0;
};

/** Host time of one pass, split the way the end-to-end metrics need. */
struct PassTimes
{
    double genS = 0.0;        //!< workload generation
    double constructS = 0.0;  //!< System construction
    double restoreS = 0.0;    //!< runSampled time outside its run loop
    double runS = 0.0;        //!< inside System::run of straight sims
    std::uint64_t records = 0;

    double setupS() const { return genS + constructS + restoreS; }
};

/** What only the traced pass measures. */
struct LayerData
{
    Leaves all;   //!< every simulation
    Leaves ulmt;  //!< simulations with a memory-side prefetcher
    std::uint64_t events = 0;
    double nextS = 0.0;
    std::uint64_t nextCalls = 0;
    double runCheckS = 0.0;      //!< in-run checker passes
    std::uint64_t runChecks = 0;
    double probeCheckS = 0.0;    //!< walks of finished machines
    std::uint64_t probeChecks = 0;
    double ckptSaveS = 0.0;
    double ckptRestoreS = 0.0;
    std::uint64_t ckptBytes = 0;
};

struct Pass
{
    PassTimes times;
    std::vector<SimOutcome> outcomes;
};

/** Snapshot file for checkpointed simulations, inside the build tree
 *  when run from the checkout root. */
std::string
checkpointPath()
{
    const std::filesystem::path dir = ".bench_build/perfbench-ckpt";
    std::filesystem::create_directories(dir);
    return (dir / ("sim-" + std::to_string(::getpid()) + ".ulmtckp"))
        .string();
}

/** Time one basic invariant walk of a finished machine. */
void
probeCheckWalk(driver::System &sys, LayerData &layers)
{
    std::vector<cpu::Hierarchy *> hiers;
    for (unsigned c = 0; c < sys.numCores(); ++c)
        hiers.push_back(&sys.hierarchy(c));
    std::vector<core::UlmtEngine *> engines;
    for (std::size_t e = 0; e < sys.numEngines(); ++e)
        engines.push_back(sys.ulmtEngine(unsigned(e)));
    check::CheckOptions opts;
    opts.mode = check::CheckMode::Basic;
    check::InvariantChecker chk(opts, sys.eventQueue(),
                                sys.memorySystem(), std::move(hiers),
                                std::move(engines));
    const auto t0 = Clock::now();
    chk.runChecks();
    layers.probeCheckS += since(t0);
    ++layers.probeChecks;
}

/** One finished simulation and the host time of its phases. */
struct SimRun
{
    driver::RunResult result;
    std::uint64_t traceLength = 0;
    std::uint64_t pendingEvents = 0;
    double genS = 0.0;
    double constructS = 0.0;
    double runS = 0.0;
};

/**
 * Generate the workload, build the System and run it.  A non-empty
 * @p ckpt arms a snapshot after @p ckpt_misses demand misses.  With
 * @p layers set, the trace source is wrapped, checker passes are timed,
 * the finished machine is walked and its stat registry harvested.
 */
SimRun
runSim(const WorkloadDef &def, const SimSpec &spec, LayerData *layers,
       const std::string &ckpt = {}, std::uint64_t ckpt_misses = 0)
{
    SimRun s;
    const auto t0 = Clock::now();
    auto wl = workloads::makeWorkload(spec.app,
                                      {def.opt.seed, def.opt.scale});
    s.traceLength = wl->traceLength();  // forces generation
    s.genS = since(t0);

    const auto t1 = Clock::now();
    std::optional<TimedWorkload> timed;
    if (layers)
        timed.emplace(*wl);
    driver::System sys(spec.cfg,
                       timed ? static_cast<workloads::Workload &>(*timed)
                             : *wl);
    sys.setCheckpointMeta(spec.app, def.opt.seed, def.opt.scale);
    if (!ckpt.empty())
        sys.setCheckpointTrigger(std::to_string(ckpt_misses), ckpt);
    check::InvariantChecker *chk = sys.checker();
    if (layers && chk) {
        // Same cadence as the checker's own install().
        sys.eventQueue().setInspector(
            spec.cfg.check.everyEvents, [chk, layers] {
                const auto c0 = Clock::now();
                chk->runChecks();
                layers->runCheckS += since(c0);
                ++layers->runChecks;
            });
    }
    s.constructS = since(t1);

    const auto t2 = Clock::now();
    s.result = sys.run();
    s.runS = since(t2);
    s.pendingEvents = sys.eventQueue().pending();

    if (layers) {
        LeafSum all(layers->all);
        sys.statRegistry().visit(all);
        const sim::SampleStat &q1 = s.result.coreQos.at(0).q1Wait;
        layers->all["memsys.q1_wait.sum"] += q1.sum();
        layers->all["memsys.q1_wait.count"] += double(q1.count());
        if (spec.cfg.ulmt.enabled()) {
            LeafSum ulmt(layers->ulmt);
            sys.statRegistry().visit(ulmt);
        }
        layers->events += s.result.eventsExecuted;
        layers->nextS += timed->seconds();
        layers->nextCalls += timed->calls();
        if (!chk)
            probeCheckWalk(sys, *layers);
    }
    return s;
}

/**
 * Run every simulation of @p def once, one after another on this
 * thread.  A checkpointed simulation also runs a twin that saves a
 * snapshot halfway through its demand misses, and finishes that
 * snapshot again through driver::runSampled.  With @p layers set this
 * is the traced pass; it then also checkpoints the first simulation as
 * a probe outside the pass totals, so ckpt timings exist on every
 * workload.
 */
Pass
runPass(const WorkloadDef &def, LayerData *layers)
{
    Pass pass;
    PassTimes &t = pass.times;
    for (std::size_t i = 0; i < def.sims.size(); ++i) {
        const SimSpec &spec = def.sims[i];
        SimOutcome o;
        o.key = spec.app + "/" + spec.cfg.label;
        o.checkpointed = spec.checkpointed || (layers && i == 0);
        const std::string path = o.checkpointed ? checkpointPath() : "";
        try {
            const SimRun s = runSim(def, spec, layers);
            o.traceLength = s.traceLength;
            o.pendingEvents = s.pendingEvents;
            describeResult(s.result, o);
            t.genS += s.genS;
            t.constructS += s.constructS;
            t.runS += s.runS;
            t.records += s.result.records;

            if (o.checkpointed) {
                const SimRun twin = runSim(
                    def, spec, nullptr, path,
                    std::max<std::uint64_t>(1, s.result.hier.l2Misses / 2));
                o.twinFingerprint = driver::resultFingerprint(twin.result);
                const auto t3 = Clock::now();
                const driver::RunResult rr =
                    driver::runSampled(spec.cfg, path);
                const double restore = since(t3) - rr.wallSeconds;
                o.restoredFingerprint = driver::resultFingerprint(rr);
                if (spec.checkpointed) {
                    t.genS += twin.genS;
                    t.constructS += twin.constructS;
                    t.runS += twin.runS;
                    t.records += twin.result.records;
                    t.restoreS += restore;
                }
                if (layers) {
                    layers->ckptSaveS += twin.result.ckptSaveSeconds;
                    layers->ckptRestoreS += rr.ckptRestoreSeconds;
                    layers->ckptBytes += twin.result.ckptBytes;
                }
            }
        } catch (const std::exception &e) {
            o.error = e.what();
        }
        if (!path.empty()) {
            std::error_code ignored;
            std::filesystem::remove(path, ignored);
        }
        pass.outcomes.push_back(std::move(o));
        // Hand freed heap pages back to the OS, so each simulation sets
        // up in a cold heap, as in a fresh process, and peak RSS is the
        // largest single live set rather than the heap's history.
        malloc_trim(0);
    }
    return pass;
}

// ===================================================================
// Layer microbenchmarks (traced run only), fed by the workload's own
// streams and measured rates
// ===================================================================

/** Keeps a microbenchmark's results observable so its loop is not
 *  optimised away. */
volatile std::uint64_t keepSink = 0;

void
keep(std::uint64_t v)
{
    keepSink = keepSink + v;
}

/** PriorityTimeline::acquire on a booking stream at bus utilisation
 *  @p util with a @p high share of demand (high-priority) bookings. */
double
timelineAcquireNs(double util, double high, std::uint64_t seed)
{
    const mem::TimingParams tp;
    const sim::Cycle dur = tp.busDataOccupancy(tp.l2.lineBytes);
    util = std::clamp(util, 0.01, 0.95);
    struct Booking
    {
        sim::Cycle ready;
        bool high;
    };
    std::vector<Booking> stream(400000);
    sim::Rng rng(seed ^ 0x74696D656C696E65ULL);
    double arrival = 0.0;
    for (Booking &b : stream) {
        // Poisson arrivals at the measured utilisation, pre-booked up
        // to 64 cycles ahead as the controller does.
        arrival += -std::log(1.0 - rng.real()) * double(dur) / util;
        b.ready = sim::Cycle(arrival) + rng.below(64);
        b.high = rng.chance(high);
    }
    std::vector<double> reps;
    sim::Cycle sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        sim::PriorityTimeline tl;
        const auto t0 = Clock::now();
        for (const Booking &b : stream)
            sink += tl.acquire(b.ready, dur, b.high);
        reps.push_back(since(t0) / double(stream.size()));
    }
    keep(sink);
    return median(reps) * 1e9;
}

/** EventQueue::schedule + run per event, at a pending depth of 16 and
 *  delays drawn like the machine's (1..512 cycles). */
double
eventQueueNs(std::uint64_t seed)
{
    struct Ctx
    {
        sim::EventQueue eq;
        std::vector<sim::Cycle> delays;
        std::size_t next = 0;
        std::uint64_t remaining = 0;
    };
    struct Tick
    {
        Ctx *c;
        void
        operator()() const
        {
            if (c->remaining == 0)
                return;
            --c->remaining;
            const sim::Cycle d = c->delays[c->next++ % c->delays.size()];
            c->eq.schedule(c->eq.now() + d, Tick{c});
        }
    };
    sim::Rng rng(seed ^ 0x6576656E74717565ULL);
    std::vector<sim::Cycle> delays(4096);
    for (sim::Cycle &d : delays)
        d = 1 + rng.below(512);
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
        Ctx c;
        c.delays = delays;
        c.remaining = 1'000'000;
        for (int k = 0; k < 16; ++k)
            c.eq.schedule(delays[std::size_t(k)], Tick{&c});
        const auto t0 = Clock::now();
        c.eq.run();
        reps.push_back(since(t0) / double(c.eq.executed()));
    }
    return median(reps) * 1e9;
}

/** mem::Cache access + insert-on-miss over @p stream, L2 geometry. */
double
cacheAccessNs(const std::vector<sim::Addr> &stream)
{
    const mem::TimingParams tp;
    const std::size_t ops = std::max<std::size_t>(stream.size(), 1'000'000);
    std::vector<double> reps;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        mem::Cache l2("l2", tp.l2);
        mem::Eviction ev;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < ops; ++i) {
            const sim::Addr a = stream[i % stream.size()];
            if (!l2.access(a))
                l2.insert(a, i, i, ev);
        }
        reps.push_back(since(t0) / double(ops));
        sink += l2.stats().hits + l2.stats().misses;
    }
    keep(sink);
    return median(reps) * 1e9;
}

/** A CostTracker that records the table addresses an algorithm
 *  touches (the table-cache microbenchmark's input). */
class RecordingCost : public core::CostTracker
{
  public:
    struct Access
    {
        sim::Addr addr;
        bool write;
    };

    void instr(std::uint32_t) override {}
    void
    memRead(sim::Addr addr, std::uint32_t) override
    {
        log_.push_back({addr, false});
    }
    void
    memWrite(sim::Addr addr, std::uint32_t) override
    {
        log_.push_back({addr, true});
    }

    const std::vector<Access> &log() const { return log_; }

  private:
    std::vector<Access> log_;
};

/** mem::TableCache::access over a recorded table-access stream. */
double
tableCacheAccessNs(const std::vector<RecordingCost::Access> &stream,
                   const mem::TableCacheSpec &spec)
{
    const mem::TimingParams tp;
    const std::size_t ops = std::max<std::size_t>(stream.size(), 1'000'000);
    std::vector<double> reps;
    std::vector<sim::Addr> wbs;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        mem::TableCache tc;
        tc.configure(spec, tp.memProcL1.lineBytes, tp.dramRowBytes);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < ops; ++i) {
            const RecordingCost::Access &a = stream[i % stream.size()];
            wbs.clear();
            sink += tc.access(a.addr, a.write, wbs);
        }
        reps.push_back(since(t0) / double(ops));
    }
    keep(sink);
    return median(reps) * 1e9;
}

struct CoreTimes
{
    double prefetchNs = 0.0;
    double learnNs = 0.0;
    double remapNs = 0.0;
    std::vector<RecordingCost::Access> tableStream;
};

/**
 * Each (app, algorithm) the workload configures, on the app's own miss
 * stream: one warm-up sweep of prefetchStep + learnStep (recording the
 * table addresses touched), then prefetchStep alone and learnStep alone
 * over the warmed table, then onPageRemap of every 4 KB page the
 * stream touches.  Each loop is timed as a whole.
 */
CoreTimes
coreStepTimes(const std::vector<std::pair<core::UlmtSpec,
                                          const std::vector<sim::Addr> *>>
                  &algos)
{
    CoreTimes out;
    double pf = 0.0, learn = 0.0, remap = 0.0;
    std::uint64_t steps = 0, remaps = 0, sink = 0;
    for (const auto &[spec, stream] : algos) {
        if (stream->empty())
            continue;
        auto algo = core::makeAlgorithm(spec);
        std::vector<sim::Addr> lines;
        {
            RecordingCost rec;
            for (sim::Addr m : *stream) {
                lines.clear();
                algo->prefetchStep(m, lines, rec);
                algo->learnStep(m, rec);
            }
            if (out.tableStream.empty())
                out.tableStream = rec.log();
        }

        core::NullCostTracker cost;
        const std::size_t n =
            std::max<std::size_t>(stream->size(), 200'000);
        auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            lines.clear();
            algo->prefetchStep((*stream)[i % stream->size()], lines, cost);
            sink += lines.size();
        }
        pf += since(t0);
        t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            algo->learnStep((*stream)[i % stream->size()], cost);
        learn += since(t0);
        steps += n;

        // Move each page to a fresh frame above anything the
        // workloads allocate.
        std::vector<sim::Addr> pages;
        for (sim::Addr a : *stream)
            pages.push_back(a & ~sim::Addr(4095));
        std::sort(pages.begin(), pages.end());
        pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
        sim::Addr fresh = sim::Addr(1) << 44;
        t0 = Clock::now();
        for (sim::Addr p : pages) {
            algo->onPageRemap(p, fresh, 4096, cost);
            fresh += 4096;
        }
        remap += since(t0);
        remaps += pages.size();
    }
    keep(sink);
    out.prefetchNs = ratio(pf, double(steps)) * 1e9;
    out.learnNs = ratio(learn, double(steps)) * 1e9;
    out.remapNs = ratio(remap, double(remaps)) * 1e9;
    return out;
}

// ===================================================================
// Metric assembly
// ===================================================================

double
leaf(const Leaves &l, const std::string &name)
{
    const auto it = l.find(name);
    return it == l.end() ? 0.0 : it->second;
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/** Per-layer metrics from the traced pass and the microbenchmarks. */
Metrics
layerMetrics(const WorkloadDef &def, const LayerData &d,
             const PassTimes &traced, double untracedRunS)
{
    const Leaves &a = d.all;
    const Leaves &u = d.ulmt;
    Metrics m;

    const double records = double(traced.records);
    m["sim.events"] = double(d.events);
    m["sim.events_per_record"] = ratio(double(d.events), records);
    m["sim.dispatch_ns"] = ratio(traced.runS, double(d.events)) * 1e9;

    // Simulated outputs (exact for a given seed).
    const double cycles = leaf(a, "proc.total_cycles");
    m["mem.l2_misses"] = leaf(a, "l2.misses");
    m["mem.bus_util"] = ratio(leaf(a, "bus.busy.total"), cycles);
    m["mem.dram_row_hit_rate"] =
        ratio(leaf(a, "dram.row_hits"), leaf(a, "dram.accesses"));
    m["mem.q1_wait_mean"] = ratio(leaf(a, "memsys.q1_wait.sum"),
                                  leaf(a, "memsys.q1_wait.count"));
    const double drops = leaf(a, "memsys.filter.drops");
    m["mem.filter_drop_frac"] =
        ratio(drops, drops + leaf(a, "memsys.filter.admits"));
    const double timely = leaf(u, "audit.core.0.useful_timely");
    const double useful = timely + leaf(u, "audit.core.0.useful_late");
    m["mem.pf_coverage"] =
        ratio(useful, useful + leaf(u, "l2.push.non_pref_misses"));
    m["mem.pf_accuracy"] = ratio(useful, leaf(u, "audit.core.0.issued"));
    m["mem.pf_timely_frac"] = ratio(timely, useful);
    const double tc_hits = leaf(a, "memsys.tcache.hits");
    m["mem.tcache_hit_rate"] =
        ratio(tc_hits, tc_hits + leaf(a, "memsys.tcache.misses"));
    m["mem.table_reads"] = leaf(a, "memsys.table.reads");
    m["mem.table_writes"] = leaf(a, "memsys.table.writes");
    m["core.response_mean"] = ratio(leaf(u, "ulmt.response_cycles.sum"),
                                    leaf(u, "ulmt.response_cycles.count"));
    m["core.occupancy_mean"] =
        ratio(leaf(u, "ulmt.occupancy_cycles.sum"),
              leaf(u, "ulmt.occupancy_cycles.count"));
    m["cpu.ipc"] = ratio(leaf(a, "proc.ops") + leaf(a, "proc.loads") +
                             leaf(a, "proc.stores"),
                         cycles);
    m["cpu.beyond_l2_stall_frac"] =
        ratio(leaf(a, "proc.stall.beyond_l2"), cycles);
    m["vm.remaps"] = leaf(a, "vm.remaps");
    m["vm.tlb_miss_rate"] = ratio(leaf(a, "vm.core.0.tlb.misses"),
                                  leaf(a, "vm.core.0.tlb.accesses"));

    // Host time, measured from outside each layer.
    m["check.passes"] = leaf(a, "check.passes");
    m["check.pass_us"] =
        d.runChecks ? ratio(d.runCheckS, double(d.runChecks)) * 1e6
                    : ratio(d.probeCheckS, double(d.probeChecks)) * 1e6;
    m["check.share"] = ratio(d.runCheckS, traced.runS);
    m["ckpt.save_s"] = d.ckptSaveS;
    m["ckpt.restore_s"] = d.ckptRestoreS;
    m["ckpt.bytes"] = double(d.ckptBytes);
    m["workloads.gen_s"] = traced.genS;
    m["workloads.next_ns"] = ratio(d.nextS, double(d.nextCalls)) * 1e9;
    m["driver.construct_s"] = traced.constructS;
    m["driver.run_s"] = traced.runS;
    m["driver.sims"] = double(def.sims.size());
    m["trace.overhead"] = ratio(traced.runS, untracedRunS) - 1.0;

    // Microbenchmarks on the workload's own streams and rates.
    const std::uint64_t seed = def.opt.seed;
    const double demand = leaf(a, "audit.core.0.bus.demand_cycles");
    const double bus_all = demand +
                           leaf(a, "audit.core.0.bus.prefetch_cycles") +
                           leaf(a, "audit.core.0.bus.other_cycles");
    m["sim.timeline_acquire_ns"] = timelineAcquireNs(
        m["mem.bus_util"], bus_all > 0 ? demand / bus_all : 1.0, seed);
    m["sim.eventqueue_ns"] = eventQueueNs(seed);

    std::map<std::string, std::vector<sim::Addr>> streams;
    std::vector<sim::Addr> all_misses;
    for (const SimSpec &s : def.sims) {
        if (streams.count(s.app))
            continue;
        auto &st = streams[s.app] = driver::captureMissStream(s.app, def.opt);
        all_misses.insert(all_misses.end(), st.begin(), st.end());
    }
    m["mem.cache_access_ns"] = cacheAccessNs(all_misses);

    std::vector<std::pair<core::UlmtSpec, const std::vector<sim::Addr> *>>
        algos;
    mem::TableCacheSpec tcache{4096, 8};
    for (const SimSpec &s : def.sims) {
        if (s.cfg.tableCache.on())
            tcache = s.cfg.tableCache;
        if (!s.cfg.ulmt.enabled())
            continue;
        const bool dup = std::any_of(
            algos.begin(), algos.end(), [&](const auto &p) {
                return p.second == &streams.at(s.app) &&
                       p.first.algo == s.cfg.ulmt.algo;
            });
        if (!dup)
            algos.push_back({s.cfg.ulmt, &streams.at(s.app)});
    }
    const CoreTimes ct = coreStepTimes(algos);
    m["core.prefetch_step_ns"] = ct.prefetchNs;
    m["core.learn_step_ns"] = ct.learnNs;
    m["core.remap_ns"] = ct.remapNs;
    m["mem.tcache_access_ns"] = tableCacheAccessNs(ct.tableStream, tcache);
    return m;
}

} // namespace

Report
runBenchmark(const Args &args, const WorkloadDef &def, std::ostream &log)
{
    // A fixed mmap threshold turns off glibc's adaptive one, so large
    // blocks (tables, traces) always go back to the OS when freed.
    // With the per-simulation malloc_trim this keeps peak RSS
    // independent of the number of passes run.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    const auto start = Clock::now();
    std::vector<Pass> passes;
    do {
        passes.push_back(runPass(def, nullptr));
        log << "[perfbench] " << def.name << " pass " << passes.size()
            << ": " << passes.back().times.records << " records in "
            << passes.back().times.runS << " s run, "
            << passes.back().times.setupS() << " s setup\n";
    } while (since(start) < double(args.seconds));

    LayerData layers;
    const Pass traced = runPass(def, &layers);

    std::vector<std::vector<SimOutcome>> untraced;
    std::vector<double> rate, setup, run;
    for (const Pass &p : passes) {
        untraced.push_back(p.outcomes);
        rate.push_back(ratio(double(p.times.records), p.times.runS));
        setup.push_back(p.times.setupS());
        run.push_back(p.times.runS);
    }

    Report rep;
    rep.verdict = judge(untraced, traced.outcomes);
    for (const std::string &p : rep.verdict.problems)
        log << "[perfbench] FAILED " << p << "\n";

    if (args.trace) {
        rep.metrics = layerMetrics(def, layers, traced.times, median(run));
    } else {
        rep.metrics["records_per_s"] = median(rate);
        rep.metrics["setup_s"] = median(setup);
        rep.metrics["peak_rss_mb"] = peakRssMb();
    }
    for (const auto &[name, value] : rep.metrics) {
        if (!std::isfinite(value)) {
            rep.verdict.correct = false;
            rep.verdict.problems.push_back("metric " + name +
                                           " is not finite");
        }
    }
    return rep;
}

// ===================================================================
// Output
// ===================================================================

std::string
provenance(const Args &args)
{
#if defined(__clang__)
    const char *compiler = "clang";
#elif defined(__GNUC__)
    const char *compiler = "gcc";
#else
    const char *compiler = "unknown";
#endif
    const char *sha = std::getenv("PERFBENCH_GIT_SHA");
    std::ostringstream os;
    os << "# provenance nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN)
       << " compiler=" << compiler << "-" << __VERSION__
       << " build=" << PERFBENCH_BUILD_TYPE
       << " git=" << (sha && *sha ? sha : "unknown")
       << " workload=" << args.workload << " seed=" << args.seed
       << " seconds=" << args.seconds << " trace=" << args.trace;
    return os.str();
}

std::string
resultJson(const Report &report, bool trace)
{
    std::ostringstream os;
    os << "{\"correct\": " << (report.verdict.correct ? "true" : "false")
       << ", \"attempted\": " << report.verdict.attempted
       << ", \"failed\": " << report.verdict.failed
       << ", \"metrics\": {";
    const auto &defs = trace ? perLayerMetrics() : endToEndMetrics();
    bool first = true;
    for (const MetricDef &d : defs) {
        // A non-finite value (already a failed verdict) stays valid JSON.
        const double v = report.metrics.at(d.name);
        char buf[64] = "null";
        if (std::isfinite(v))
            std::snprintf(buf, sizeof(buf), "%.17g", v);
        os << (first ? "" : ", ") << "\"" << d.name
           << "\": {\"value\": " << buf << ", \"unit\": \"" << d.unit
           << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
