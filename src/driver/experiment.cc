#include "driver/experiment.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "sim/logging.hh"
#include "workloads/offset.hh"

namespace driver {

namespace {

SystemConfig
baseConfig(const ExperimentOptions &opt)
{
    SystemConfig cfg;
    cfg.timing.placement = opt.placement;
    return cfg;
}

// Shared trace writer and run overrides.  Guarded by a mutex only for
// swaps; writeProcess serializes internally.
std::mutex obsMutex;
std::unique_ptr<sim::TraceEventWriter> traceWriter;
RunOverrides overrides;

RunOverrides
currentOverrides()
{
    std::lock_guard<std::mutex> lock(obsMutex);
    return overrides;
}

/** Per-run snapshot file name: path-hostile characters in app names
 *  ("trace:/x/y.ulmttrace") and labels become underscores. */
std::string
snapshotName(const std::string &app, const std::string &label)
{
    std::string n = app + "-" + label;
    for (char &c : n) {
        if (c == '/' || c == ':' || c == '\\')
            c = '_';
    }
    return n + ".ulmtckp";
}

} // namespace

void
setTraceEventsPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(obsMutex);
    traceWriter.reset();
    if (!path.empty())
        traceWriter = std::make_unique<sim::TraceEventWriter>(path);
}

sim::TraceEventWriter *
traceEventWriter()
{
    std::lock_guard<std::mutex> lock(obsMutex);
    return traceWriter.get();
}

void
finishTraceEvents()
{
    std::lock_guard<std::mutex> lock(obsMutex);
    if (traceWriter)
        traceWriter->finish();
}

void
RunOverrides::applyTo(SystemConfig &cfg) const
{
    const auto set = [](auto &field, const auto &value) {
        if (value)
            field = *value;
    };
    set(cfg.cores, cores);
    set(cfg.ulmtMode, ulmtMode);
    set(cfg.vm, vm);
    set(cfg.tableCache, tableCache);
    set(cfg.check, check);
    set(cfg.audit, audit);
    set(cfg.metricsInterval, metricsInterval);
}

void
setRunOverrides(const RunOverrides &o)
{
    std::lock_guard<std::mutex> lock(obsMutex);
    overrides = o;
}

const char *
flagValue(const std::string &arg, const char *key)
{
    const std::size_t n = std::strlen(key);
    return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
}

bool
parseRunFlag(const std::string &arg, RunOverrides &o)
{
    const auto vm_spec = [&o]() -> vm::VmSpec & {
        if (!o.vm)
            o.vm.emplace();
        return *o.vm;
    };
    char *end = nullptr;
    if (const char *v = flagValue(arg, "--cores=")) {
        const long n = std::strtol(v, &end, 10);
        if (end == v || *end != '\0' || n < 1 ||
            n > static_cast<long>(sim::maxCores))
            throw std::invalid_argument(
                sim::strformat("bad --cores value '%s' (expected 1..%u)", v,
                               unsigned(sim::maxCores)));
        o.cores = static_cast<unsigned>(n);
    } else if (const char *m = flagValue(arg, "--ulmt-mode=")) {
        o.ulmtMode = core::parseUlmtMode(m);
    } else if (arg == "--vm=on" || arg == "--vm=off") {
        vm_spec().enabled = arg == "--vm=on";
    } else if (arg == "--vm" || flagValue(arg, "--vm=")) {
        throw std::invalid_argument("bad --vm value '" + arg +
                                    "' (expected on or off)");
    } else if (const char *p = flagValue(arg, "--page-size=")) {
        vm_spec().pageBytes = vm::parsePageSize(p);
    } else if (const char *r = flagValue(arg, "--remap-rate=")) {
        const double rate = std::strtod(r, &end);
        if (end == r || *end != '\0' || !(rate >= 0.0) || rate > 1e6)
            throw std::invalid_argument(
                sim::strformat("bad --remap-rate value '%s' (remaps per "
                               "million cycles, >= 0)",
                               r));
        vm_spec().remapRate = rate;
    } else if (const char *t = flagValue(arg, "--table-cache=")) {
        // <entries>[,<assoc>]; entries 0 disables the cache.
        mem::TableCacheSpec tc =
            o.tableCache.value_or(mem::TableCacheSpec{});
        const long e = std::strtol(t, &end, 10);
        const bool no_entries = end == t;
        long a = tc.assoc;
        if (*end == ',')
            a = std::strtol(end + 1, &end, 10);
        if (no_entries || *end != '\0' || e < 0 || e > (1 << 20) ||
            a < 1 || a > 64 || (e > 0 && e % a != 0))
            throw std::invalid_argument(
                sim::strformat("bad --table-cache value '%s' (expected "
                               "<entries>[,<assoc>], entries divisible by "
                               "assoc, 0 disables)",
                               t));
        tc.entries = static_cast<std::uint32_t>(e);
        tc.assoc = static_cast<std::uint32_t>(a);
        o.tableCache = tc;
    } else {
        return false;
    }
    return true;
}

double
parseScale(const std::string &s)
{
    // 64x the evaluation size is far beyond any sweep in this repo.
    constexpr double max_scale = 64.0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v) ||
        v <= 0.0 || v > max_scale)
        throw std::invalid_argument(
            sim::strformat("bad scale '%s' (expected a number in (0, %g])",
                           s.c_str(), max_scale));
    return v;
}

std::uint64_t
parseUint(const std::string &s, const std::string &what)
{
    const bool hex = s.size() > 2 && s[0] == '0' &&
                     (s[1] == 'x' || s[1] == 'X');
    const char *first = s.data() + (hex ? 2 : 0);
    const char *last = s.data() + s.size();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    if (first == last || ec != std::errc{} || end != last)
        throw std::invalid_argument(
            "bad " + what + " '" + s +
            "' (expected a decimal or 0x-hex integer below 2^64)");
    return v;
}

std::uint64_t
parseSeed(const std::string &s)
{
    return parseUint(s, "seed");
}

std::vector<std::unique_ptr<workloads::Workload>>
makeCoreWorkloads(const std::string &app, std::uint64_t seed,
                  double scale, unsigned cores)
{
    std::vector<std::unique_ptr<workloads::Workload>> ws;
    for (unsigned c = 0; c < cores; ++c) {
        workloads::WorkloadParams wp;
        // Core 0 keeps the base seed (and offset 0), so its trace is
        // bit-identical to the single-core run; the other tenants are
        // independently seeded so the mix is multiprogrammed, not N
        // lockstep copies.
        wp.seed = c ? seed ^ (0x9E3779B97F4A7C15ULL * c) : seed;
        wp.scale = scale;
        auto w = workloads::makeWorkload(app, wp);
        if (c) {
            ws.push_back(std::make_unique<workloads::OffsetWorkload>(
                std::move(w), c));
        } else {
            ws.push_back(std::move(w));
        }
    }
    return ws;
}

SystemConfig
noPrefConfig(const ExperimentOptions &opt)
{
    SystemConfig cfg = baseConfig(opt);
    cfg.label = "NoPref";
    return cfg;
}

SystemConfig
conven4Config(const ExperimentOptions &opt)
{
    SystemConfig cfg = baseConfig(opt);
    cfg.conven4 = true;
    cfg.label = "Conven4";
    return cfg;
}

SystemConfig
ulmtConfig(const ExperimentOptions &opt, core::UlmtAlgo algo,
           const std::string &app)
{
    SystemConfig cfg = baseConfig(opt);
    cfg.ulmt.algo = algo;
    cfg.ulmt.numRows = workloads::tableNumRows(app);
    cfg.label = core::to_string(algo);
    return cfg;
}

SystemConfig
conven4PlusUlmtConfig(const ExperimentOptions &opt, core::UlmtAlgo algo,
                      const std::string &app)
{
    SystemConfig cfg = ulmtConfig(opt, algo, app);
    cfg.conven4 = true;
    cfg.label = "Conven4+" + core::to_string(algo);
    return cfg;
}

SystemConfig
customConfig(const ExperimentOptions &opt, const std::string &app,
             bool &customized)
{
    customized = true;
    if (app == "CG") {
        // Table 5: Seq1+Repl in Verbose mode (Conven4 on).
        SystemConfig cfg =
            conven4PlusUlmtConfig(opt, core::UlmtAlgo::Seq1Repl, app);
        cfg.ulmt.verbose = true;
        cfg.label = "Custom";
        return cfg;
    }
    if (app == "MST" || app == "Mcf") {
        // Table 5: Repl with NumLevels = 4 (Conven4 on).
        SystemConfig cfg =
            conven4PlusUlmtConfig(opt, core::UlmtAlgo::Repl, app);
        cfg.ulmt.numLevels = 4;
        cfg.label = "Custom";
        return cfg;
    }
    customized = false;
    SystemConfig cfg =
        conven4PlusUlmtConfig(opt, core::UlmtAlgo::Repl, app);
    cfg.label = "Custom";
    return cfg;
}

const std::vector<std::string> &
listWorkloads()
{
    return workloads::applicationNames();
}

namespace {

/** Single-core systems hold a caller-owned workload; multicore ones
 *  own their per-core set.  This keeps both alive together. */
struct BuiltSystem
{
    std::unique_ptr<workloads::Workload> workload;
    std::unique_ptr<System> sys;
};

BuiltSystem
buildSystem(const SystemConfig &cfg, const std::string &app,
            std::uint64_t seed, double scale)
{
    BuiltSystem b;
    if (cfg.cores > 1) {
        auto ws = makeCoreWorkloads(app, seed, scale, cfg.cores);
        const std::string name = ws[0]->name();
        b.sys = std::make_unique<System>(cfg, std::move(ws), name);
    } else {
        workloads::WorkloadParams wp;
        wp.seed = seed;
        wp.scale = scale;
        b.workload = workloads::makeWorkload(app, wp);
        b.sys = std::make_unique<System>(cfg, *b.workload);
    }
    b.sys->setCheckpointMeta(app, seed, scale);
    return b;
}

} // namespace

RunResult
runSampled(const SystemConfig &cfg, const std::string &ckpt_path)
{
    // The header carries the workload identity AND the machine shape:
    // rebuilding from it guarantees the restored cursors land in the
    // same traces on the same number of cores in the same serving
    // mode.
    const ckpt::CkptHeader h = ckpt::CheckpointImage::readHeader(ckpt_path);

    SystemConfig effective = cfg;
    currentOverrides().applyTo(effective);
    effective.cores = h.cores;
    if (h.ulmtMode >
        static_cast<std::uint32_t>(core::UlmtMode::Sharded)) {
        throw ckpt::CkptError("checkpoint '" + ckpt_path +
                              "' names an unknown ULMT serving mode");
    }
    effective.ulmtMode = static_cast<core::UlmtMode>(h.ulmtMode);

    BuiltSystem b =
        buildSystem(effective, h.workload, h.seed, h.scale);
    b.sys->restoreCheckpoint(ckpt_path);
    return b.sys->run();
}

RunResult
runOne(const std::string &app, const SystemConfig &cfg,
       const ExperimentOptions &opt)
{
    const RunOverrides o = currentOverrides();
    sim::TraceEventWriter *writer = traceEventWriter();
    SystemConfig effective = cfg;
    o.applyTo(effective);

    BuiltSystem b = buildSystem(effective, app, opt.seed, opt.scale);
    System &sys = *b.sys;
    if (!o.restoreFrom.empty())
        sys.restoreCheckpoint(o.restoreFrom);
    if (!o.checkpointAt.empty()) {
        const std::string dir =
            o.checkpointTo.empty() ? "." : o.checkpointTo;
        sys.setCheckpointTrigger(o.checkpointAt,
                                 dir + "/" +
                                     snapshotName(app, effective.label));
    }
    if (!writer)
        return sys.run();

    // Per-run buffer, flushed as its own trace process so a parallel
    // sweep lands in one file with one row group per experiment.
    sim::TraceEventBuffer buf;
    sys.setTraceEvents(&buf);
    RunResult r = sys.run();
    writer->writeProcess(app + "/" + effective.label, buf);
    return r;
}

std::vector<sim::Addr>
captureMissStream(const std::string &app, const ExperimentOptions &opt)
{
    SystemConfig cfg = noPrefConfig(opt);
    cfg.recordMissStream = true;
    RunResult r = runOne(app, cfg, opt);
    return std::move(r.missStream);
}

} // namespace driver
