/**
 * @file
 * ulmt-fuzz: seed-deterministic configuration fuzzer for the runtime
 * invariant checker (DESIGN.md section 10).
 *
 *   ulmt-fuzz [--seeds N] [--seed0 N] [--check=deep|basic]
 *             [--interval=N] [--scale=S] [-v]
 *
 * Each seed deterministically derives one machine configuration
 * (algorithm, table geometry, queue depth, filter size, placement,
 * Conven4, Verbose, core count, ULMT serving mode) and one short
 * workload, then runs it to completion
 * with the invariant checker armed -- by default in Deep mode, so the
 * lockstep reference models are diffed too.  The same seed always
 * produces the same configuration, on every host.
 *
 * On a violation the fuzzer greedily shrinks the failing
 * configuration -- resetting one dimension at a time to its simplest
 * value and keeping every reset that still fails -- then prints the
 * minimized repro and exits 1.  A clean sweep exits 0.
 *
 * Both `--seeds 50` and `--seeds=50` spellings are accepted (for all
 * value flags).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hh"
#include "driver/experiment.hh"
#include "sim/random.hh"

namespace {

/** One fuzzed scenario: everything run() needs, all printable. */
struct Scenario
{
    std::string app = "MST";
    core::UlmtAlgo algo = core::UlmtAlgo::Base;
    std::uint32_t numRows = 4096;
    std::uint32_t numLevels = 3;
    bool verbose = false;
    bool conven4 = false;
    mem::MemProcPlacement placement = mem::MemProcPlacement::InDram;
    std::uint32_t queueDepth = 16;
    std::uint32_t filterEntries = 32;
    double scale = 0.005;
    unsigned cores = 1;
    core::UlmtMode mode = core::UlmtMode::Shared;
    std::uint32_t tcacheEntries = 0;  //!< 0 = no table cache
    std::uint32_t tcacheAssoc = 4;

    std::string
    describe() const
    {
        char buf[288];
        std::snprintf(
            buf, sizeof(buf),
            "app=%s algo=%s rows=%u levels=%u verbose=%d conven4=%d "
            "placement=%s queueDepth=%u filterEntries=%u scale=%g "
            "cores=%u mode=%s tcache=%u,%u",
            app.c_str(), core::to_string(algo).c_str(), numRows,
            numLevels, verbose, conven4,
            placement == mem::MemProcPlacement::InDram ? "InDram"
                                                       : "NorthBridge",
            queueDepth, filterEntries, scale, cores,
            core::to_string(mode).c_str(), tcacheEntries, tcacheAssoc);
        return buf;
    }
};

/** The seed -> scenario map; one Rng stream, fixed draw order. */
Scenario
deriveScenario(std::uint64_t seed, double scale)
{
    sim::Rng rng(seed);
    Scenario s;
    s.scale = scale;

    static const char *apps[] = {"MST", "Tree", "Mcf"};
    s.app = apps[rng.below(3)];

    static const core::UlmtAlgo algos[] = {
        core::UlmtAlgo::None,     core::UlmtAlgo::Base,
        core::UlmtAlgo::Chain,    core::UlmtAlgo::Repl,
        core::UlmtAlgo::Seq1,     core::UlmtAlgo::Seq4,
        core::UlmtAlgo::Seq4Base, core::UlmtAlgo::Seq4Repl,
        core::UlmtAlgo::Seq1Repl,
    };
    s.algo = algos[rng.below(sizeof(algos) / sizeof(algos[0]))];

    // Power-of-two row counts keep every algorithm's set mapping legal.
    s.numRows = 1024u << rng.below(4);        // 1K .. 8K
    s.numLevels = 2 + (std::uint32_t)rng.below(4);  // 2 .. 5
    s.verbose = rng.chance(0.25);
    s.conven4 = rng.chance(0.4);
    s.placement = rng.chance(0.5) ? mem::MemProcPlacement::InDram
                                  : mem::MemProcPlacement::NorthBridge;
    s.queueDepth = 1 + (std::uint32_t)rng.below(24);  // 1 .. 24
    static const std::uint32_t filters[] = {0, 1, 2, 8, 32};
    s.filterEntries = filters[rng.below(5)];

    // Multicore draws come last so the single-core dimensions of a
    // seed stay what they were before the machine grew cores.
    static const unsigned coreCounts[] = {1, 1, 2, 4};
    s.cores = coreCounts[rng.below(4)];
    static const core::UlmtMode serving[] = {core::UlmtMode::Shared,
                                             core::UlmtMode::PerCore,
                                             core::UlmtMode::Sharded};
    s.mode = serving[rng.below(3)];

    // Table-cache draws are newest, so they come after everything
    // else: a seed's pre-MSCache dimensions are unchanged and the
    // no-cache half of the space reproduces the old machines exactly.
    if (rng.chance(0.5)) {
        static const std::uint32_t tcEntries[] = {256, 1024, 4096};
        s.tcacheEntries = tcEntries[rng.below(3)];
        s.tcacheAssoc = rng.chance(0.5) ? 4 : 8;
    }
    // N cores replay N workload copies; divide the trace down so every
    // seed costs about the same and the sweep's wall time stays flat.
    if (s.cores > 1)
        s.scale = scale / s.cores;
    return s;
}

driver::SystemConfig
buildConfig(const Scenario &s)
{
    driver::ExperimentOptions opt;
    opt.scale = s.scale;
    opt.placement = s.placement;

    driver::SystemConfig cfg;
    if (s.algo == core::UlmtAlgo::None) {
        cfg = s.conven4 ? driver::conven4Config(opt)
                        : driver::noPrefConfig(opt);
    } else {
        cfg = s.conven4
                  ? driver::conven4PlusUlmtConfig(opt, s.algo, s.app)
                  : driver::ulmtConfig(opt, s.algo, s.app);
        cfg.ulmt.numRows = s.numRows;
        cfg.ulmt.numLevels = s.numLevels;
        cfg.ulmt.verbose = s.verbose;
    }
    cfg.timing.queueDepth = s.queueDepth;
    cfg.timing.filterEntries = s.filterEntries;
    cfg.cores = s.cores;
    cfg.ulmtMode = s.mode;
    cfg.tableCache.entries = s.tcacheEntries;
    cfg.tableCache.assoc = s.tcacheAssoc;
    cfg.metricsInterval = 0;  // fuzzing needs no time series
    return cfg;
}

/** Run one scenario; returns the failure message, empty on success. */
std::string
runScenario(const Scenario &s, const check::CheckOptions &chk)
{
    driver::ExperimentOptions opt;
    opt.scale = s.scale;
    opt.placement = s.placement;
    driver::SystemConfig cfg = buildConfig(s);
    cfg.check = chk;
    // The checker's walk visits every per-core structure, so a tick
    // costs cores x more; stretch the cadence to keep overhead flat.
    cfg.check.everyEvents = chk.everyEvents * s.cores;
    try {
        (void)driver::runOne(s.app, cfg, opt);
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

/**
 * Greedy shrink: walk a fixed list of single-dimension
 * simplifications; keep each one that still reproduces a failure.
 */
Scenario
shrink(Scenario s, const check::CheckOptions &chk, bool verbose_log)
{
    const Scenario defaults;
    for (int round = 0; round < 2; ++round) {
        bool changed = false;
        auto trial = [&](auto mutate, const char *what) {
            Scenario t = s;
            mutate(t);
            if (t.describe() == s.describe())
                return;
            if (!runScenario(t, chk).empty()) {
                if (verbose_log)
                    std::fprintf(stderr, "  shrink: %s still fails\n",
                                 what);
                s = t;
                changed = true;
            }
        };
        trial([&](Scenario &t) { t.tcacheEntries = 0; }, "tcache=off");
        trial([&](Scenario &t) { t.cores = 1; }, "cores=1");
        trial([&](Scenario &t) { t.mode = core::UlmtMode::Shared; },
              "mode=shared");
        trial([&](Scenario &t) {
                  t.tcacheEntries = std::min(t.tcacheEntries, 256u);
                  t.tcacheAssoc = 4;
              },
              "tcache=256,4");
        trial([&](Scenario &t) { t.conven4 = false; }, "conven4=0");
        trial([&](Scenario &t) { t.verbose = false; }, "verbose=0");
        trial([&](Scenario &t) { t.placement = defaults.placement; },
              "placement=InDram");
        trial([&](Scenario &t) { t.algo = core::UlmtAlgo::Base; },
              "algo=Base");
        trial([&](Scenario &t) { t.numLevels = defaults.numLevels; },
              "levels=3");
        trial([&](Scenario &t) { t.numRows = defaults.numRows; },
              "rows=4096");
        trial([&](Scenario &t) { t.filterEntries =
                                     defaults.filterEntries; },
              "filterEntries=32");
        trial([&](Scenario &t) { t.queueDepth = defaults.queueDepth; },
              "queueDepth=16");
        trial([&](Scenario &t) { t.app = "MST"; }, "app=MST");
        if (!changed)
            break;
    }
    return s;
}

/**
 * Value of a flag accepting both "--key=V" and "--key V": returns
 * nullptr when argv[i] is not --key, else the value (consuming
 * argv[i+1] in the two-token spelling).
 */
const char *
flagValue(int argc, char **argv, int &i, const char *key)
{
    const std::size_t n = std::strlen(key);
    if (std::strncmp(argv[i], key, n) != 0)
        return nullptr;
    if (argv[i][n] == '=')
        return argv[i] + n + 1;
    if (argv[i][n] == '\0' && i + 1 < argc)
        return argv[++i];
    return nullptr;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seeds N] [--seed0 N] "
                 "[--check=deep|basic] [--interval N] [--scale S] "
                 "[-v]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seeds = 20;
    std::uint64_t seed0 = 1;
    double scale = 0.005;
    bool verbose_log = false;
    check::CheckOptions chk;
    chk.mode = check::CheckMode::Deep;
    chk.everyEvents = 512;  // short runs want a tight cadence

    try {
        for (int i = 1; i < argc; ++i) {
            if (const char *v = flagValue(argc, argv, i, "--seeds")) {
                seeds = driver::parseSeed(v);
            } else if (const char *v0 =
                           flagValue(argc, argv, i, "--seed0")) {
                seed0 = driver::parseSeed(v0);
            } else if (const char *c =
                           flagValue(argc, argv, i, "--check")) {
                if (std::strcmp(c, "deep") == 0)
                    chk.mode = check::CheckMode::Deep;
                else if (std::strcmp(c, "basic") == 0)
                    chk.mode = check::CheckMode::Basic;
                else
                    return usage(argv[0]);
            } else if (const char *iv =
                           flagValue(argc, argv, i, "--interval")) {
                chk.everyEvents =
                    driver::parseUint(iv, "--interval value");
                if (chk.everyEvents == 0)
                    throw std::invalid_argument(
                        std::string("bad --interval value '") + iv +
                        "' (expected at least 1)");
            } else if (const char *sc =
                           flagValue(argc, argv, i, "--scale")) {
                scale = driver::parseScale(sc);
            } else if (std::strcmp(argv[i], "-v") == 0) {
                verbose_log = true;
            } else {
                return usage(argv[0]);
            }
        }
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "ulmt-fuzz: %s\n", e.what());
        return 2;
    }
    if (seeds == 0)
        return usage(argv[0]);

    std::printf("[fuzz] %llu seeds from %llu, %s checking every %llu "
                "events, scale %g\n",
                (unsigned long long)seeds, (unsigned long long)seed0,
                chk.deep() ? "deep" : "basic",
                (unsigned long long)chk.everyEvents, scale);

    for (std::uint64_t i = 0; i < seeds; ++i) {
        const std::uint64_t seed = seed0 + i;
        const Scenario s = deriveScenario(seed, scale);
        if (verbose_log)
            std::fprintf(stderr, "[fuzz] seed %llu: %s\n",
                         (unsigned long long)seed,
                         s.describe().c_str());
        const std::string err = runScenario(s, chk);
        if (err.empty())
            continue;

        std::fprintf(stderr,
                     "[fuzz] seed %llu FAILED:\n%s\n"
                     "[fuzz] config: %s\n[fuzz] shrinking...\n",
                     (unsigned long long)seed, err.c_str(),
                     s.describe().c_str());
        const Scenario small = shrink(s, chk, verbose_log);
        std::fprintf(
            stderr,
            "[fuzz] minimized repro (rerun with --seed0 %llu "
            "--seeds 1 --scale %g):\n[fuzz]   %s\n[fuzz]   %s\n",
            (unsigned long long)seed, scale, small.describe().c_str(),
            runScenario(small, chk).c_str());
        return 1;
    }

    std::printf("[fuzz] all %llu seeds clean\n",
                (unsigned long long)seeds);
    return 0;
}
