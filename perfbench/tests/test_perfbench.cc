/**
 * @file
 * Tests of the benchmark itself: command-line hardening, the
 * correctness verdict (it must be able to fail), and the emitted metric
 * catalogue against BENCHMARK.json.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "perfbench.hh"
#include "sim/json.hh"
#include "workloads/workload.hh"

namespace {

using perfbench::Args;
using perfbench::SimOutcome;
using perfbench::UsageError;

Args
parse(const std::vector<std::string> &argv)
{
    return perfbench::parseArgs(argv);
}

/** The UsageError message for @p argv (fails the test if none). */
std::string
rejection(const std::vector<std::string> &argv)
{
    try {
        parse(argv);
    } catch (const UsageError &e) {
        return e.what();
    }
    ADD_FAILURE() << "accepted a bad command line";
    return {};
}

std::vector<std::string>
withSeed(const std::string &seed)
{
    return {"--workload", "paper", "--seed", seed, "--seconds", "10",
            "--trace", "0"};
}

TEST(PerfbenchArgs, AcceptsTheDriverCommandLine)
{
    const Args a = parse({"--workload", "churn", "--seed", "42",
                          "--seconds", "10", "--trace", "1"});
    EXPECT_EQ(a.workload, "churn");
    EXPECT_EQ(a.seed, 42u);
    EXPECT_EQ(a.seconds, 10u);
    EXPECT_TRUE(a.trace);

    const Args b = parse({"--trace=0", "--seconds=3", "--seed=0",
                          "--workload=checked"});
    EXPECT_EQ(b.workload, "checked");
    EXPECT_EQ(b.seed, 0u);
    EXPECT_FALSE(b.trace);

    EXPECT_EQ(parse(withSeed("18446744073709551615")).seed,
              18446744073709551615ULL);
}

TEST(PerfbenchArgs, RejectsNonIntegerSeed)
{
    for (const char *bad : {"abc", "1.5", "1e3", "12x", " 7", "0x10"}) {
        const std::string msg = rejection(withSeed(bad));
        EXPECT_NE(msg.find("--seed"), std::string::npos) << msg;
        EXPECT_NE(msg.find(bad), std::string::npos) << msg;
    }
}

TEST(PerfbenchArgs, RejectsNegativeSeed)
{
    const std::string msg = rejection(withSeed("-1"));
    EXPECT_NE(msg.find("'-1'"), std::string::npos) << msg;
}

TEST(PerfbenchArgs, RejectsOverflowingSeed)
{
    const std::string msg = rejection(withSeed("18446744073709551616"));
    EXPECT_NE(msg.find("18446744073709551616"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

TEST(PerfbenchArgs, RejectsUnknownWorkload)
{
    const std::string msg = rejection({"--workload", "multicore", "--seed",
                                       "1", "--seconds", "1", "--trace",
                                       "0"});
    EXPECT_NE(msg.find("'multicore'"), std::string::npos) << msg;
}

TEST(PerfbenchArgs, RejectsUnknownFlag)
{
    std::vector<std::string> argv = withSeed("1");
    argv.push_back("--jobs=4");
    const std::string msg = rejection(argv);
    EXPECT_NE(msg.find("'--jobs=4'"), std::string::npos) << msg;
}

TEST(PerfbenchArgs, RejectsMissingValueOrFlag)
{
    std::string msg = rejection({"--workload", "paper", "--seconds", "1",
                                 "--trace", "0", "--seed"});
    EXPECT_NE(msg.find("--seed: missing value"), std::string::npos) << msg;

    msg = rejection({"--workload", "paper", "--seconds", "1", "--trace",
                     "0"});
    EXPECT_NE(msg.find("--seed: missing"), std::string::npos) << msg;

    msg = rejection({"--workload", "paper", "--seed", "", "--seconds",
                     "1", "--trace", "0"});
    EXPECT_NE(msg.find("--seed: empty"), std::string::npos) << msg;
}

TEST(PerfbenchArgs, RejectsBadSecondsAndTrace)
{
    EXPECT_NE(rejection({"--workload", "paper", "--seed", "1", "--seconds",
                         "-5", "--trace", "0"})
                  .find("--seconds"),
              std::string::npos);
    EXPECT_NE(rejection({"--workload", "paper", "--seed", "1", "--seconds",
                         "1", "--trace", "2"})
                  .find("--trace"),
              std::string::npos);
    EXPECT_NE(rejection({"--workload", "paper", "--seed", "1", "--seed",
                         "2", "--seconds", "1", "--trace", "0"})
                  .find("more than once"),
              std::string::npos);
}

// --- The verdict ------------------------------------------------------

/** A real simulation described the way the benchmark describes it. */
SimOutcome
simulate(const std::string &app, const driver::SystemConfig &cfg)
{
    driver::ExperimentOptions opt;
    opt.seed = 11;
    opt.scale = 0.05;
    const driver::RunResult r = driver::runOne(app, cfg, opt);
    SimOutcome o;
    o.key = app + "/" + cfg.label;
    o.traceLength =
        workloads::makeWorkload(app, {opt.seed, opt.scale})->traceLength();
    perfbench::describeResult(r, o);
    return o;
}

struct VerdictFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        driver::ExperimentOptions opt;
        driver::SystemConfig tc =
            driver::ulmtConfig(opt, core::UlmtAlgo::Repl, "Sparse");
        tc.tableCache = {4096, 8};
        traced = {simulate("Sparse", driver::ulmtConfig(
                                         opt, core::UlmtAlgo::Repl,
                                         "Sparse")),
                  simulate("Sparse", tc)};
        untraced = {traced, traced};
    }

    std::vector<SimOutcome> traced;
    std::vector<std::vector<SimOutcome>> untraced;
};

TEST_F(VerdictFixture, CleanRunsAreCorrect)
{
    ASSERT_TRUE(traced[0].audited);
    ASSERT_GT(traced[0].pushIssued, 0u);
    ASSERT_TRUE(traced[1].tcacheOn);
    const perfbench::Verdict v = perfbench::judge(untraced, traced);
    EXPECT_TRUE(v.correct);
    EXPECT_EQ(v.attempted, 6u);
    EXPECT_EQ(v.failed, 0u);
}

TEST_F(VerdictFixture, CorruptFingerprintFails)
{
    untraced[1][0].fingerprint[0] ^= 1;
    const perfbench::Verdict v = perfbench::judge(untraced, traced);
    EXPECT_FALSE(v.correct);
    EXPECT_EQ(v.failed, 1u);
}

TEST_F(VerdictFixture, CorruptConservationCountFails)
{
    untraced[0][0].pushClosed += 1;
    perfbench::Verdict v = perfbench::judge(untraced, traced);
    EXPECT_FALSE(v.correct);
    EXPECT_EQ(v.failed, 1u);

    SetUp();
    traced[1].tcacheMisses += 1;
    v = perfbench::judge(untraced, traced);
    EXPECT_FALSE(v.correct);
    EXPECT_EQ(v.failed, 1u);
}

TEST_F(VerdictFixture, ShortTraceOrLeftoverEventsFail)
{
    untraced[0][1].records -= 1;
    traced[0].pendingEvents = 1;
    const perfbench::Verdict v = perfbench::judge(untraced, traced);
    EXPECT_FALSE(v.correct);
    EXPECT_EQ(v.failed, 2u);
}

TEST_F(VerdictFixture, RestoreMismatchAndThrowFail)
{
    for (auto *o : {&traced[0], &untraced[0][0], &untraced[1][0]}) {
        o->checkpointed = true;
        o->twinFingerprint = o->restoredFingerprint = o->fingerprint;
    }
    EXPECT_TRUE(perfbench::judge(untraced, traced).correct);

    untraced[1][0].restoredFingerprint += "x";
    traced[1].error = "boom";
    const perfbench::Verdict v = perfbench::judge(untraced, traced);
    EXPECT_FALSE(v.correct);
    EXPECT_EQ(v.failed, 2u);
}

// --- End to end, at a tiny input size ---------------------------------

perfbench::WorkloadDef
tiny(const std::string &name, std::uint64_t seed)
{
    perfbench::WorkloadDef def = perfbench::makeWorkloadDef(name, seed);
    def.opt.scale = 0.02;
    // Mcf has a fixed minimum size; the other apps keep every layer.
    std::erase_if(def.sims, [](const perfbench::SimSpec &s) {
        return s.app == "Mcf";
    });
    return def;
}

sim::JsonValue
runTiny(const std::string &name, std::uint64_t seed, bool trace)
{
    const Args args{name, seed, 0, trace};
    std::ostringstream log;
    const perfbench::Report rep =
        perfbench::runBenchmark(args, tiny(name, seed), log);
    EXPECT_TRUE(rep.verdict.correct) << name << ":\n" << log.str();
    EXPECT_EQ(rep.verdict.failed, 0u);
    return sim::parseJson(perfbench::resultJson(rep, trace));
}

/** name -> unit of a BENCHMARK.json metric list. */
std::vector<std::pair<std::string, std::string>>
declared(const sim::JsonValue &manifest, const std::string &list)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const sim::JsonValue &m : manifest.at(list).arr)
        out.emplace_back(m.at("name").str, m.at("unit").str);
    return out;
}

std::vector<std::pair<std::string, std::string>>
emitted(const sim::JsonValue &result)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &[name, v] : result.at("metrics").obj)
        out.emplace_back(name, v.at("unit").str);
    return out;
}

TEST(PerfbenchEndToEnd, EveryWorkloadIsCorrectAndEmitsTheManifest)
{
    const sim::JsonValue manifest = sim::parseJsonFile(PERFBENCH_MANIFEST);
    std::vector<std::string> names;
    for (const sim::JsonValue &w : manifest.at("workloads").arr)
        names.push_back(w.at("name").str);
    EXPECT_EQ(names, perfbench::workloadNames());

    std::uint64_t seed = 3;
    for (const std::string &name : perfbench::workloadNames()) {
        const sim::JsonValue e2e = runTiny(name, seed++, false);
        EXPECT_TRUE(e2e.at("correct").boolean);
        EXPECT_GE(e2e.at("attempted").integer, 1);
        EXPECT_EQ(emitted(e2e), declared(manifest, "end_to_end"));

        const sim::JsonValue layers = runTiny(name, seed++, true);
        EXPECT_EQ(emitted(layers), declared(manifest, "per_layer"));
        for (const auto &[metric, v] : layers.at("metrics").obj) {
            const std::string &unit = v.at("unit").str;
            if (unit == "s" || unit == "ns" || unit == "us") {
                EXPECT_GT(v.at("value").number, 0.0)
                    << name << " " << metric;
            }
        }
    }
}

} // namespace
