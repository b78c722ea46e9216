/**
 * @file
 * Tests for the two fingerprints.
 *
 * The config fingerprint is a walk over each config struct's field
 * visitor (sim/fields.hh): every struct's visitor must name all of its
 * members (checked at compile time), every visited behaviour-shaping
 * field must move the fingerprint and the passive ones must not.  The
 * result fingerprint is the non-passive stat-registry leaves: straight,
 * checkpoint-twin and restored runs must agree on all of them, and a
 * table-cache counter must reach it.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/check.hh"
#include "core/factory.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/system.hh"
#include "mem/table_cache.hh"
#include "mem/timing_params.hh"
#include "vm/vm.hh"
#include "workloads/workload.hh"

namespace {

// --- (a) every member is visited ------------------------------------
//
// The member count of an aggregate is the largest N for which
// T{x1, ..., xN} compiles when every xi converts to anything (the
// brace-initialization trick of Boost.PFR).

struct AnyField
{
    template <class T>
    constexpr operator T() const;  // never defined: unevaluated only
};

template <std::size_t>
using AnyFieldAt = AnyField;

template <class T, std::size_t... I>
constexpr bool
braceInitializable(std::index_sequence<I...>)
{
    return requires { T{AnyFieldAt<I>{}...}; };
}

template <class T, std::size_t N = 0>
constexpr std::size_t
memberCount()
{
    if constexpr (braceInitializable<T>(std::make_index_sequence<N + 1>{}))
        return memberCount<T, N + 1>();
    else
        return N;
}

template <class T>
constexpr std::size_t
visitedCount()
{
    std::size_t n = 0;
    T::forEachField([&n](const char *, auto, auto...) { ++n; });
    return n;
}

template <class T>
constexpr bool everyMemberVisited = memberCount<T>() == visitedCount<T>();

static_assert(everyMemberVisited<mem::CacheGeometry>,
              "CacheGeometry::forEachField misses a member");
static_assert(everyMemberVisited<mem::TimingParams>,
              "TimingParams::forEachField misses a member");
static_assert(everyMemberVisited<core::UlmtSpec>,
              "UlmtSpec::forEachField misses a member");
static_assert(everyMemberVisited<vm::VmSpec>,
              "VmSpec::forEachField misses a member");
static_assert(everyMemberVisited<mem::TableCacheSpec>,
              "TableCacheSpec::forEachField misses a member");
static_assert(everyMemberVisited<driver::SystemConfig>,
              "SystemConfig::forEachField misses a member");

// The counter itself must see a missing member.
struct ThreeMembersTwoVisited
{
    int a = 0;
    double b = 0.0;
    std::string c;

    template <class V>
    static constexpr void
    forEachField(V &&v)
    {
        v("a", &ThreeMembersTwoVisited::a);
        v("b", &ThreeMembersTwoVisited::b);
    }
};
static_assert(memberCount<ThreeMembersTwoVisited>() == 3);
static_assert(!everyMemberVisited<ThreeMembersTwoVisited>);
static_assert(memberCount<mem::TimingParams>() == 33);

// --- (b) visited fields reach the config fingerprint ----------------

/** Change @p v to a different value of its type. */
template <class T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_enum_v<T>)
        v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
    else if constexpr (std::is_arithmetic_v<T>)
        v = static_cast<T>(v + 1);
    else if constexpr (std::is_same_v<T, std::string>)
        v += "x";
    else if constexpr (std::is_same_v<T, check::CheckOptions>)
        v = {check::CheckMode::Deep, v.everyEvents + 1};
    else
        static_assert(!sizeof(T), "no perturbation for this field type");
}

/** Perturb the @p index-th leaf field of @p cfg; returns its path and
 *  whether it is marked passive. */
std::pair<std::string, bool>
perturbLeaf(driver::SystemConfig &cfg, std::size_t index)
{
    std::size_t i = 0;
    std::pair<std::string, bool> hit;
    sim::forEachLeafField(
        cfg, [&](auto &owner, const std::string &path, auto member,
                 auto... options) {
            if (i++ != index)
                return;
            perturb(owner.*member);
            hit = {path, sim::isPassive<decltype(options)...>};
        });
    return hit;
}

TEST(ConfigFingerprint, EveryVisitedFieldMovesItAndPassiveOnesDoNot)
{
    const driver::SystemConfig base;
    const std::uint64_t fp = driver::configFingerprint(base, "MST");

    std::size_t leaves = 0;
    sim::forEachLeafField(base, [&leaves](auto &&...) { ++leaves; });
    // 3 geometries x 3 + 30 timing scalars + 4 ULMT + 4 VM + 2 table
    // cache + 10 SystemConfig scalars.
    EXPECT_EQ(leaves, 59u);

    std::set<std::string> passive;
    for (std::size_t i = 0; i < leaves; ++i) {
        driver::SystemConfig cfg = base;
        const auto [path, is_passive] = perturbLeaf(cfg, i);
        const std::uint64_t moved = driver::configFingerprint(cfg, "MST");
        if (is_passive) {
            passive.insert(path);
            EXPECT_EQ(moved, fp) << path << " is passive";
        } else {
            EXPECT_NE(moved, fp) << path << " escapes the fingerprint";
        }
    }
    EXPECT_EQ(passive, (std::set<std::string>{"metricsInterval", "check",
                                               "audit"}));
    EXPECT_NE(driver::configFingerprint(base, "Mcf"), fp);
}

TEST(ConfigFingerprint, VmSwitchCountsAsOn)
{
    // --vm=on --remap-rate=R and --remap-rate=R are one machine ...
    driver::SystemConfig rate;
    rate.vm.remapRate = 500.0;
    driver::SystemConfig forced_rate = rate;
    forced_rate.vm.enabled = true;
    EXPECT_EQ(driver::configFingerprint(rate, "MST"),
              driver::configFingerprint(forced_rate, "MST"));

    // ... while translation at rate 0 stays distinct from no VM.
    driver::SystemConfig forced;
    forced.vm.enabled = true;
    EXPECT_NE(driver::configFingerprint(forced, "MST"),
              driver::configFingerprint(driver::SystemConfig{}, "MST"));
}

// --- (c) straight, checkpoint-twin and restored runs agree ----------

struct ThreeRuns
{
    driver::RunResult straight, twin, restored;
};

std::unique_ptr<driver::System>
makeSystem(const driver::SystemConfig &cfg, double scale)
{
    const driver::ExperimentOptions defaults;
    auto sys = std::make_unique<driver::System>(
        cfg, driver::makeCoreWorkloads("MST", defaults.seed, scale,
                                       cfg.cores),
        "MST");
    sys->setCheckpointMeta("MST", defaults.seed, scale);
    return sys;
}

ThreeRuns
runThreeWays(const driver::SystemConfig &cfg, double scale,
             const std::string &name)
{
    const std::string path = ::testing::TempDir() + name + ".ulmtckp";
    ThreeRuns r;
    r.straight = makeSystem(cfg, scale)->run();
    auto twin = makeSystem(cfg, scale);
    twin->setCheckpointTrigger("300", path);
    r.twin = twin->run();
    EXPECT_GT(r.twin.ckptBytes, 0u) << "trigger never fired";
    auto restored = makeSystem(cfg, scale);
    restored->restoreCheckpoint(path);
    r.restored = restored->run();
    std::remove(path.c_str());
    return r;
}

driver::SystemConfig
replConfig()
{
    driver::ExperimentOptions opt;
    opt.scale = 0.02;
    driver::SystemConfig cfg =
        driver::ulmtConfig(opt, core::UlmtAlgo::Repl, "MST");
    cfg.audit = true;
    cfg.tableCache = {4096, 8};
    return cfg;
}

bool
hasLeaf(const driver::RunResult &r, const std::string &name)
{
    for (const sim::StatLeaf &l : r.leaves) {
        if (l.name == name)
            return true;
    }
    return false;
}

// Multicore with any VM flag aborts today (ROADMAP item 5), so the
// 2-core machine and the churned one are two cases.
TEST(ResultFingerprint, TwoCorePercoreTableCacheRestoresIdentically)
{
    driver::SystemConfig cfg = replConfig();
    cfg.cores = 2;
    cfg.ulmtMode = core::UlmtMode::PerCore;
    const ThreeRuns r = runThreeWays(cfg, 0.02, "fp_percore");
    const std::string fp = driver::resultFingerprint(r.straight);
    EXPECT_EQ(driver::resultFingerprint(r.twin), fp);
    EXPECT_EQ(driver::resultFingerprint(r.restored), fp);
    EXPECT_TRUE(hasLeaf(r.straight, "memsys.tcache.hits"));
    EXPECT_TRUE(hasLeaf(r.straight, "cpu.1.l2.misses"));
    // The auditor's counts restart on restore: they are passive.
    EXPECT_FALSE(hasLeaf(r.straight, "memsys.core.1.blocked_by.0"));
    EXPECT_FALSE(hasLeaf(r.straight, "audit.blocked_cycles_total"));
}

TEST(ResultFingerprint, RemapChurnWithTableCacheRestoresIdentically)
{
    driver::SystemConfig cfg = replConfig();
    cfg.vm.remapRate = 500.0;
    const ThreeRuns r = runThreeWays(cfg, 0.02, "fp_churn");
    ASSERT_GT(r.straight.vmRemaps, 0u);
    const std::string fp = driver::resultFingerprint(r.straight);
    EXPECT_EQ(driver::resultFingerprint(r.twin), fp);
    EXPECT_EQ(driver::resultFingerprint(r.restored), fp);
    EXPECT_TRUE(hasLeaf(r.straight, "vm.core.0.tlb.misses"));
    EXPECT_FALSE(hasLeaf(r.straight, "bus.stale_requests"));
    EXPECT_FALSE(hasLeaf(r.straight, "ckpt.snapshot_bytes"));
}

// --- (d) table-cache counters reach the result fingerprint ----------

TEST(ResultFingerprint, TableCacheCounterMovesIt)
{
    driver::SystemConfig cfg = replConfig();
    workloads::WorkloadParams wp;
    wp.scale = 0.005;
    auto wl = workloads::makeWorkload("MST", wp);
    const driver::RunResult a = driver::System(cfg, *wl).run();
    ASSERT_GT(a.tcache.hits, 0u);

    driver::RunResult b = a;
    bool bumped = false;
    for (sim::StatLeaf &l : b.leaves) {
        if (l.name == "memsys.tcache.hits") {
            l.value = std::to_string(b.tcache.hits + 1);
            bumped = true;
        }
    }
    ASSERT_TRUE(bumped);
    EXPECT_NE(driver::resultFingerprint(a), driver::resultFingerprint(b));
}

} // namespace
