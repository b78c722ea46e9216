/**
 * @file
 * ulmt-stats: run one configuration and dump the simulator's full
 * statistic registry as JSON.
 *
 *   ulmt-stats dump <app> [--config=NAME] [--scale=S] [--seed=N]
 *                   [--placement=dram|nb] [--trace-events=PATH]
 *                   [--cores=N] [--ulmt-mode=shared|percore|sharded]
 *                   [--vm=on|off] [--page-size=4k|2m] [--remap-rate=R]
 *                   [--table-cache=<entries>[,<assoc>]]
 *                   [--core=ID] [--filter=GLOB] [--json|--table]
 *       Run <app> (an application name or trace:<path>) under the
 *       named configuration and print every registered statistic --
 *       counters, gauges, samples and histograms -- as one JSON
 *       object keyed by dotted path (--json, the default) or as an
 *       aligned name/value table for eyeballing (--table).
 *
 *   --config accepts: nopref, conven4, custom, or an algorithm name
 *   (Base, Chain, Repl, Seq1, Seq4, Seq1+Repl, Seq4+Repl) optionally
 *   prefixed with "conven4+".  Default: conven4+Repl.
 *
 *   --cores through --table-cache are the benches' machine-shape
 *   flags, parsed by driver::parseRunFlag.  --cores/--ulmt-mode
 *   simulate a multicore machine; its per-core
 *   statistics land under "cpu.<id>.*", "ulmt.<id>.*" and
 *   "memsys.core.<id>.*"; the VM layer's (--vm and friends) under
 *   "vm.core.<id>.*" and "vm.*".  --core=ID restricts the dump to the
 *   paths with the dotted segment <id> (core ID's slice of the
 *   registry); --filter=GLOB restricts it to paths matching a *?-glob
 *   (e.g. --filter='vm.*' or --filter='cpu.3.*').  A pattern ending
 *   in '.' selects a subtree by exact-anchored prefix: 'vm.core.1.'
 *   keeps everything under vm.core.1 and nothing under its siblings
 *   (a glob-expanded 'vm.core.1*' would also sweep up vm.core.12.*).
 *   Both filters may repeat; a path is kept if any filter accepts it.
 *
 * The same registry backs the `metrics` time series in the bench
 * JSON; this tool is the quickest way to see which dotted names
 * exist.  A bad command line exits with status 2.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.hh"
#include "driver/experiment.hh"
#include "sim/stat_registry.hh"
#include "workloads/workload.hh"

namespace {

using driver::flagValue;

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s dump <app> [--config=NAME] [--scale=S] [--seed=N]\n"
        "       [--placement=dram|nb] [--trace-events=PATH]\n"
        "       [--cores=N] [--ulmt-mode=shared|percore|sharded]\n"
        "       [--vm=on|off] [--page-size=4k|2m] [--remap-rate=R]\n"
        "       [--table-cache=<entries>[,<assoc>]]\n"
        "       [--core=ID] [--filter=GLOB] [--json|--table]\n"
        "  filter: *?-glob (e.g. vm.*); a trailing '.' anchors a\n"
        "  subtree prefix exactly (vm.core.1. excludes vm.core.12.*)\n"
        "  config names: nopref, conven4, custom, <algo>,\n"
        "  conven4+<algo>  (algo: Base, Chain, Repl, Seq1, Seq4,\n"
        "  Seq1+Repl, Seq4+Repl; default conven4+Repl)\n",
        argv0);
    return 2;
}

/** Classic *?-glob over a full dotted path. */
bool
globMatch(const char *pat, const char *s)
{
    if (*pat == '\0')
        return *s == '\0';
    if (*pat == '*')
        return globMatch(pat + 1, s) ||
               (*s != '\0' && globMatch(pat, s + 1));
    if (*s != '\0' && (*pat == '?' || *pat == *s))
        return globMatch(pat + 1, s + 1);
    return false;
}

/** True when any dotted segment of @p name equals @p id. */
bool
hasSegment(const std::string &name, const std::string &id)
{
    std::size_t start = 0;
    for (;;) {
        const std::size_t dot = name.find('.', start);
        const std::size_t len =
            (dot == std::string::npos ? name.size() : dot) - start;
        if (name.compare(start, len, id) == 0)
            return true;
        if (dot == std::string::npos)
            return false;
        start = dot + 1;
    }
}

/** The --table renderer: one aligned "name  value" line per stat;
 *  samples and histograms fold to their summary fields. */
class TableVisitor : public sim::StatVisitor
{
  public:
    void
    counter(const std::string &name, std::uint64_t value) override
    {
        std::printf("%-56s %20llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    }

    void
    gauge(const std::string &name, double value) override
    {
        std::printf("%-56s %20.6g\n", name.c_str(), value);
    }

    void
    sampleStat(const std::string &name,
               const sim::SampleStat &s) override
    {
        std::printf("%-56s count %llu mean %.4g min %.4g max %.4g\n",
                    name.c_str(),
                    static_cast<unsigned long long>(s.count()),
                    s.mean(), s.count() ? s.min() : 0.0,
                    s.count() ? s.max() : 0.0);
    }

    void
    histogram(const std::string &name,
              const sim::BinnedHistogram &h) override
    {
        std::printf("%-56s total %llu p50 %.4g p95 %.4g\n",
                    name.c_str(),
                    static_cast<unsigned long long>(h.total()),
                    h.percentile(0.50), h.percentile(0.95));
    }
};

driver::SystemConfig
configByName(const std::string &name, const driver::ExperimentOptions &opt,
             const std::string &app)
{
    if (name == "nopref")
        return driver::noPrefConfig(opt);
    if (name == "conven4")
        return driver::conven4Config(opt);
    if (name == "custom") {
        bool customized = false;
        return driver::customConfig(opt, app, customized);
    }
    constexpr const char *combo = "conven4+";
    if (name.rfind(combo, 0) == 0) {
        return driver::conven4PlusUlmtConfig(
            opt, core::parseUlmtAlgo(name.substr(std::strlen(combo))),
            app);
    }
    return driver::ulmtConfig(opt, core::parseUlmtAlgo(name), app);
}

int
cmdDump(const std::vector<std::string> &args)
{
    if (args.empty()) {
        std::fprintf(stderr, "ulmt-stats: dump needs an <app>\n");
        return 2;
    }
    const std::string &app = args[0];
    std::string config = "conven4+Repl";
    std::string trace_path;
    driver::RunOverrides run;
    std::vector<std::string> core_ids;
    std::vector<std::string> globs;
    bool table = false;
    driver::ExperimentOptions opt;
    opt.scale = 0.25;

    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (driver::parseRunFlag(arg, run))
            continue;
        if (const char *v = flagValue(arg, "--config=")) {
            config = v;
        } else if (const char *v2 = flagValue(arg, "--scale=")) {
            opt.scale = driver::parseScale(v2);
        } else if (const char *v3 = flagValue(arg, "--seed=")) {
            opt.seed = driver::parseSeed(v3);
        } else if (const char *v4 = flagValue(arg, "--placement=")) {
            if (std::strcmp(v4, "dram") == 0)
                opt.placement = mem::MemProcPlacement::InDram;
            else if (std::strcmp(v4, "nb") == 0)
                opt.placement = mem::MemProcPlacement::NorthBridge;
            else
                throw std::invalid_argument(
                    "bad --placement (want dram or nb): " + arg);
        } else if (const char *v5 = flagValue(arg, "--trace-events=")) {
            trace_path = v5;
        } else if (const char *v6 = flagValue(arg, "--core=")) {
            core_ids.emplace_back(v6);
        } else if (const char *v7 = flagValue(arg, "--filter=")) {
            globs.emplace_back(v7);
        } else if (arg == "--json") {
            table = false;  // the default; accepted for symmetry
        } else if (arg == "--table") {
            table = true;
        } else {
            throw std::invalid_argument("unknown argument '" + arg + "'");
        }
    }

    driver::SystemConfig cfg = configByName(config, opt, app);
    run.applyTo(cfg);
    if (!trace_path.empty())
        driver::setTraceEventsPath(trace_path);

    auto ws =
        driver::makeCoreWorkloads(app, opt.seed, opt.scale, cfg.cores);
    const std::string name = ws[0]->name();
    driver::System sys(cfg, std::move(ws), name);

    sim::TraceEventBuffer buf;
    if (driver::traceEventWriter())
        sys.setTraceEvents(&buf);
    sys.run();
    if (sim::TraceEventWriter *w = driver::traceEventWriter()) {
        w->writeProcess(app + "/" + cfg.label, buf);
        driver::finishTraceEvents();
    }

    const bool unfiltered = core_ids.empty() && globs.empty();
    const auto keep = [&](const std::string &path) {
        for (const std::string &id : core_ids)
            if (hasSegment(path, id))
                return true;
        for (const std::string &g : globs) {
            // A trailing '.' anchors the pattern as a subtree prefix,
            // so "vm.core.1." keeps vm.core.1.* without also matching
            // sibling paths like vm.core.12.tlb.hits.
            if (!g.empty() && g.back() == '.') {
                if (path.compare(0, g.size(), g) == 0)
                    return true;
                continue;
            }
            if (globMatch(g.c_str(), path.c_str()))
                return true;
        }
        return false;
    };
    if (table) {
        TableVisitor v;
        if (unfiltered)
            sys.statRegistry().visit(v);
        else
            sys.statRegistry().visit(v, keep);
        return 0;
    }
    if (unfiltered)
        std::fputs(sys.statRegistry().dumpJson().c_str(), stdout);
    else
        std::fputs(sys.statRegistry().dumpJson(keep).c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (cmd == "dump")
            return cmdDump(args);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "ulmt-stats: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ulmt-stats: %s\n", e.what());
        return 1;
    }
    return usage(argv[0]);
}
