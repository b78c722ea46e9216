/**
 * @file
 * Tests for the driver layer: configuration builders (incl. the Table
 * 5 customizations), the algorithm factory, report formatting, the
 * profiling ULMT, and the ULMT_CHECK / ULMT_AUDIT overrides.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/factory.hh"
#include "core/profiler.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/system.hh"
#include "workloads/workload.hh"

namespace {

TEST(Factory, NamesRoundTrip)
{
    for (core::UlmtAlgo a :
         {core::UlmtAlgo::Base, core::UlmtAlgo::Chain,
          core::UlmtAlgo::Repl, core::UlmtAlgo::Seq1,
          core::UlmtAlgo::Seq4, core::UlmtAlgo::Seq4Base,
          core::UlmtAlgo::Seq4Repl, core::UlmtAlgo::Seq1Repl,
          core::UlmtAlgo::Adaptive, core::UlmtAlgo::Profile}) {
        EXPECT_EQ(core::parseUlmtAlgo(core::to_string(a)), a);
        core::UlmtSpec spec;
        spec.algo = a;
        spec.numRows = 1024;
        auto algo = core::makeAlgorithm(spec);
        ASSERT_NE(algo, nullptr) << core::to_string(a);
        EXPECT_EQ(algo->name(), core::to_string(a));
    }
    core::UlmtSpec none;
    none.algo = core::UlmtAlgo::None;
    EXPECT_EQ(core::makeAlgorithm(none), nullptr);
}

TEST(Factory, UnknownNamesThrowNamingTheInput)
{
    EXPECT_EQ(core::parseUlmtMode("percore"), core::UlmtMode::PerCore);
    EXPECT_THROW(core::parseUlmtAlgo("Bogus"), std::invalid_argument);
    EXPECT_THROW(core::parseUlmtAlgo(""), std::invalid_argument);
    EXPECT_THROW(core::parseUlmtMode("bogus"), std::invalid_argument);
    EXPECT_THROW(core::parseUlmtMode("Shared"), std::invalid_argument);
    try {
        core::parseUlmtMode("bogus");
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("'bogus'"),
                  std::string::npos);
    }
}

TEST(RunFlags, ParseEveryMachineShapeFlag)
{
    driver::RunOverrides o;
    for (const char *arg :
         {"--cores=4", "--ulmt-mode=sharded", "--vm=on",
          "--page-size=2m", "--remap-rate=100", "--table-cache=4096,8"})
        EXPECT_TRUE(driver::parseRunFlag(arg, o)) << arg;
    EXPECT_FALSE(driver::parseRunFlag("--scale=1", o));
    EXPECT_FALSE(driver::parseRunFlag("--check=basic", o));

    driver::SystemConfig cfg;
    o.applyTo(cfg);
    EXPECT_EQ(cfg.cores, 4u);
    EXPECT_EQ(cfg.ulmtMode, core::UlmtMode::Sharded);
    EXPECT_TRUE(cfg.vm.enabled);
    EXPECT_EQ(cfg.vm.pageBytes, 2u << 20);
    EXPECT_EQ(cfg.vm.remapRate, 100.0);
    EXPECT_EQ(cfg.tableCache.entries, 4096u);
    EXPECT_EQ(cfg.tableCache.assoc, 8u);
}

TEST(RunFlags, UnsetFieldsKeepTheConfig)
{
    driver::SystemConfig cfg;
    cfg.cores = 2;
    cfg.ulmtMode = core::UlmtMode::PerCore;
    cfg.metricsInterval = 77;
    cfg.audit = false;
    driver::RunOverrides o;
    ASSERT_TRUE(driver::parseRunFlag("--page-size=4k", o));
    o.applyTo(cfg);
    EXPECT_EQ(cfg.cores, 2u);
    EXPECT_EQ(cfg.ulmtMode, core::UlmtMode::PerCore);
    EXPECT_EQ(cfg.metricsInterval, 77u);
    EXPECT_FALSE(cfg.audit);
    // A VM flag sets the whole spec from the default.
    EXPECT_FALSE(cfg.vm.enabled);
    EXPECT_EQ(cfg.vm.remapRate, 0.0);
}

TEST(RunFlags, BadValuesThrowNamingTheInput)
{
    for (const char *arg :
         {"--cores=abc", "--cores=0", "--cores=65", "--cores=",
          "--ulmt-mode=bogus", "--vm=garbage", "--vm", "--page-size=1g",
          "--remap-rate=-1", "--remap-rate=abc", "--remap-rate=",
          "--table-cache=100,3", "--table-cache=x", "--table-cache=",
          "--table-cache=64,0"}) {
        driver::RunOverrides o;
        try {
            driver::parseRunFlag(arg, o);
            ADD_FAILURE() << arg << " was accepted";
        } catch (const std::invalid_argument &e) {
            const std::string value =
                std::string(arg).substr(std::string(arg).find('=') + 1);
            EXPECT_NE(std::string(e.what()).find(value),
                      std::string::npos)
                << arg << ": " << e.what();
        }
    }
}

TEST(RunFlags, ScaleIsFiniteInRange)
{
    EXPECT_EQ(driver::parseScale("0.25"), 0.25);
    EXPECT_EQ(driver::parseScale("64"), 64.0);
    for (const char *bad :
         {"abc", "", "0", "-1", "64.5", "nan", "inf", "1e9", "0.1x"}) {
        EXPECT_THROW(driver::parseScale(bad), std::invalid_argument)
            << bad;
    }
}

TEST(Factory, Table4Defaults)
{
    core::CorrelationParams base = core::baseDefaults(64 * 1024);
    EXPECT_EQ(base.numSucc, 4u);
    EXPECT_EQ(base.assoc, 4u);
    core::CorrelationParams cr = core::chainReplDefaults(64 * 1024);
    EXPECT_EQ(cr.numSucc, 2u);
    EXPECT_EQ(cr.assoc, 2u);
    EXPECT_EQ(cr.numLevels, 3u);
}

TEST(Experiment, Table5Customizations)
{
    driver::ExperimentOptions o;
    bool customized = false;

    // CG: Seq1+Repl in Verbose mode, Conven4 on.
    driver::SystemConfig cg = driver::customConfig(o, "CG", customized);
    EXPECT_TRUE(customized);
    EXPECT_TRUE(cg.conven4);
    EXPECT_TRUE(cg.ulmt.verbose);
    EXPECT_EQ(cg.ulmt.algo, core::UlmtAlgo::Seq1Repl);

    // MST and Mcf: Repl with NumLevels = 4.
    for (const char *app : {"MST", "Mcf"}) {
        driver::SystemConfig c =
            driver::customConfig(o, app, customized);
        EXPECT_TRUE(customized) << app;
        EXPECT_EQ(c.ulmt.algo, core::UlmtAlgo::Repl);
        EXPECT_EQ(c.ulmt.numLevels, 4u);
        EXPECT_FALSE(c.ulmt.verbose);
    }

    // Everyone else: plain Conven4+Repl.
    driver::SystemConfig other =
        driver::customConfig(o, "Gap", customized);
    EXPECT_FALSE(customized);
    EXPECT_EQ(other.ulmt.algo, core::UlmtAlgo::Repl);
    EXPECT_EQ(other.ulmt.numLevels, 3u);
}

TEST(Experiment, ConfigBuilders)
{
    driver::ExperimentOptions o;
    EXPECT_EQ(driver::noPrefConfig(o).label, "NoPref");
    EXPECT_FALSE(driver::noPrefConfig(o).conven4);
    EXPECT_TRUE(driver::conven4Config(o).conven4);
    const driver::SystemConfig u =
        driver::ulmtConfig(o, core::UlmtAlgo::Chain, "Mcf");
    EXPECT_EQ(u.label, "Chain");
    EXPECT_EQ(u.ulmt.numRows, workloads::tableNumRows("Mcf"));
    const driver::SystemConfig c = driver::conven4PlusUlmtConfig(
        o, core::UlmtAlgo::Repl, "Tree");
    EXPECT_EQ(c.label, "Conven4+Repl");
    EXPECT_TRUE(c.conven4);
    EXPECT_EQ(c.ulmt.numRows, 8u * 1024u);
}

TEST(Report, TextTableAligns)
{
    driver::TextTable t({"A", "LongHeader"});
    t.addRow({"xx", "1"});
    t.addRow({"y", "22"});
    const std::string s = t.render();
    EXPECT_NE(s.find("A   LongHeader"), std::string::npos);
    EXPECT_NE(s.find("xx  1"), std::string::npos);
    EXPECT_NE(s.find("y   22"), std::string::npos);
}

TEST(Report, Formatting)
{
    EXPECT_EQ(driver::fmt(1.2345), "1.23");
    EXPECT_EQ(driver::fmt(1.2345, 1), "1.2");
    EXPECT_EQ(driver::fmtPercent(0.375), "37.5%");
    EXPECT_EQ(driver::mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_EQ(driver::mean({}), 0.0);
}

TEST(Profiler, ReportsHotPagesAndSets)
{
    core::ProfilingUlmt prof(4096, 2048, 64);
    core::NullCostTracker nc;
    std::vector<sim::Addr> discard;
    // 100 misses on page 3, 10 on page 7, sequential within page 3.
    for (int i = 0; i < 100; ++i) {
        prof.prefetchStep(3 * 4096 + (i % 64) * 64, discard, nc);
        prof.learnStep(3 * 4096 + (i % 64) * 64, nc);
    }
    for (int i = 0; i < 10; ++i)
        prof.learnStep(7 * 4096 + i * 64, nc);

    const core::MissProfile p = prof.report(5);
    EXPECT_EQ(p.misses, 110u);
    ASSERT_FALSE(p.hottestPages.empty());
    EXPECT_EQ(p.hottestPages[0].first, 3u);
    EXPECT_EQ(p.hottestPages[0].second, 100u);
    EXPECT_GT(p.sequentialFraction, 0.5);
    EXPECT_GT(p.distinctLines, 60u);
    EXPECT_FALSE(p.hottestSets.empty());
}

/** Sets an environment variable for one scope, then restores it (CI
 *  runs these tests with ULMT_CHECK=deep armed process-wide). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(DriverEnv, UnknownCheckAndAuditValuesAreRejected)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.001;
    auto wl = workloads::makeWorkload("MST", wp);
    const driver::SystemConfig cfg;
    for (const char *var : {"ULMT_CHECK", "ULMT_AUDIT"}) {
        const ScopedEnv env(var, "garbage");
        try {
            driver::System sys(cfg, *wl);
            ADD_FAILURE() << var << "=garbage was accepted";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(var), std::string::npos) << what;
            EXPECT_NE(what.find("'garbage'"), std::string::npos) << what;
        }
    }
}

TEST(DriverEnv, AcceptedSpellingsKeepTheirMeaning)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.001;
    auto wl = workloads::makeWorkload("MST", wp);
    const driver::SystemConfig cfg;
    for (const char *off : {"", "0", "off"}) {
        const ScopedEnv env("ULMT_CHECK", off);
        EXPECT_EQ(driver::System(cfg, *wl).checker(), nullptr) << off;
    }
    for (const char *on : {"1", "basic", "deep"}) {
        const ScopedEnv env("ULMT_CHECK", on);
        driver::System sys(cfg, *wl);
        ASSERT_NE(sys.checker(), nullptr) << on;
    }
    for (const char *off : {"0", "off"}) {
        const ScopedEnv env("ULMT_AUDIT", off);
        EXPECT_EQ(driver::System(cfg, *wl).audit(), nullptr) << off;
    }
    for (const char *on : {"", "1", "on"}) {
        const ScopedEnv env("ULMT_AUDIT", on);
        EXPECT_NE(driver::System(cfg, *wl).audit(), nullptr) << on;
    }
}

} // namespace
