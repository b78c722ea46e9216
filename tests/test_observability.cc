/**
 * @file
 * Tests of the observability layer: the stat registry, the Welford /
 * percentile extensions of sim/stats.hh, the time-series sampler's
 * determinism guarantee, the Chrome trace-event export, and TextTable
 * edge cases.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/system.hh"
#include "sim/stat_registry.hh"
#include "sim/stats.hh"
#include "sim/timeseries.hh"
#include "sim/trace_event.hh"
#include "workloads/workload.hh"

namespace {

// ---------------------------------------------------------------------
// sim/stats.hh extensions
// ---------------------------------------------------------------------

TEST(SampleStatTest, WelfordVarianceMatchesDirect)
{
    sim::SampleStat s;
    const double vals[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    double sum = 0.0;
    for (double v : vals) {
        s.sample(v);
        sum += v;
    }
    const double mean = sum / 8.0;
    double var = 0.0;
    for (double v : vals)
        var += (v - mean) * (v - mean);
    var /= 8.0;
    EXPECT_NEAR(s.variance(), var, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
}

TEST(SampleStatTest, VarianceDegenerateCases)
{
    sim::SampleStat s;
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    s.sample(42.0);
    EXPECT_EQ(s.variance(), 0.0);  // one sample: no dispersion
    s.sample(42.0);
    EXPECT_NEAR(s.variance(), 0.0, 1e-12);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(BinnedHistogramTest, PercentileInterpolatesWithinBin)
{
    sim::BinnedHistogram h({0.0, 10.0, 20.0});
    for (int i = 0; i < 10; ++i)
        h.sample(5.0);  // 10 samples in [0, 10)
    for (int i = 0; i < 10; ++i)
        h.sample(15.0);  // 10 samples in [10, 20)
    // Rank 10 of 20 sits exactly at the [0,10) bin's upper edge.
    EXPECT_NEAR(h.p50(), 10.0, 1e-9);
    // Rank 19 of 20: 9 samples into the second bin of 10.
    EXPECT_NEAR(h.p95(), 10.0 + 9.0, 1e-9);
}

TEST(BinnedHistogramTest, PercentileOpenFinalBinAndEmpty)
{
    sim::BinnedHistogram h({0.0, 100.0});
    EXPECT_EQ(h.percentile(0.5), 0.0);  // empty
    h.sample(250.0);                    // lands in the open final bin
    EXPECT_EQ(h.p50(), 100.0);          // lower edge of the open bin
    EXPECT_EQ(h.p95(), 100.0);
}

TEST(BinnedHistogramTest, BelowFirstEdgeCountedSeparately)
{
    sim::BinnedHistogram h({10.0, 20.0});
    h.sample(5.0);
    h.sample(15.0);
    EXPECT_EQ(h.below(), 1u);
    EXPECT_EQ(h.total(), 1u);
    EXPECT_EQ(h.binCount(0), 1u);
    // Percentiles are over in-range samples only.
    EXPECT_NEAR(h.p50(), 15.0, 1e-9);
    h.reset();
    EXPECT_EQ(h.below(), 0u);
}

// ---------------------------------------------------------------------
// StatRegistry
// ---------------------------------------------------------------------

TEST(StatRegistryTest, RejectsDuplicateAndEmptyNames)
{
    sim::StatRegistry reg;
    std::uint64_t a = 1, b = 2;
    reg.addCounter("x.count", &a);
    EXPECT_TRUE(reg.has("x.count"));
    EXPECT_THROW(reg.addCounter("x.count", &b),
                 std::invalid_argument);
    EXPECT_THROW(reg.addGauge("x.count", [] { return 0.0; }),
                 std::invalid_argument);
    EXPECT_THROW(reg.addCounter("", &b), std::invalid_argument);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatRegistryTest, VisitsInNameOrderWithLiveValues)
{
    sim::StatRegistry reg;
    std::uint64_t c = 5;
    sim::SampleStat s;
    s.sample(3.0);
    reg.addCounter("b.counter", &c);
    reg.addSample("a.sample", &s);
    reg.addGauge("c.gauge", [] { return 1.5; });
    c = 7;  // registry holds pointers, not copies

    struct Collect : sim::StatVisitor
    {
        std::vector<std::string> names;
        std::uint64_t counterSeen = 0;
        void counter(const std::string &n, std::uint64_t v) override
        {
            names.push_back(n);
            counterSeen = v;
        }
        void gauge(const std::string &n, double) override
        {
            names.push_back(n);
        }
        void sampleStat(const std::string &n,
                        const sim::SampleStat &) override
        {
            names.push_back(n);
        }
        void histogram(const std::string &n,
                       const sim::BinnedHistogram &) override
        {
            names.push_back(n);
        }
    } v;
    reg.visit(v);
    ASSERT_EQ(v.names.size(), 3u);
    EXPECT_EQ(v.names[0], "a.sample");
    EXPECT_EQ(v.names[1], "b.counter");
    EXPECT_EQ(v.names[2], "c.gauge");
    EXPECT_EQ(v.counterSeen, 7u);
}

TEST(StatRegistryTest, DumpJsonIncludesBelowCount)
{
    sim::StatRegistry reg;
    sim::BinnedHistogram h({10.0, 20.0});
    h.sample(5.0);
    h.sample(15.0);
    reg.addHistogram("gaps", &h);
    const std::string json = reg.dumpJson();
    EXPECT_NE(json.find("\"below\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON well-formedness checker
// ---------------------------------------------------------------------

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_;  // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_;  // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;  // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *lit)
    {
        const std::size_t n = std::strlen(lit);
        if (s_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

TEST(JsonCheckerTest, SanityOnKnownInputs)
{
    EXPECT_TRUE(JsonChecker("{\"a\": [1, 2.5e3, null]}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\": }").valid());
    EXPECT_FALSE(JsonChecker("{\"a\": 1,}").valid());
    EXPECT_FALSE(JsonChecker("[1, 2").valid());
}

TEST(StatRegistryTest, DumpJsonIsWellFormed)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.02;
    driver::SystemConfig cfg =
        driver::conven4PlusUlmtConfig(opt, core::UlmtAlgo::Repl,
                                      "Tree");
    workloads::WorkloadParams wp;
    wp.scale = opt.scale;
    auto wl = workloads::makeWorkload("Tree", wp);
    driver::System sys(cfg, *wl);
    sys.run();
    const std::string json = sys.statRegistry().dumpJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
    // Stats from every layer are present.
    EXPECT_NE(json.find("\"l2.misses\""), std::string::npos);
    EXPECT_NE(json.find("\"bus.busy.demand_data\""), std::string::npos);
    EXPECT_NE(json.find("\"dram.accesses\""), std::string::npos);
    EXPECT_NE(json.find("\"ulmt.response_cycles\""),
              std::string::npos);
    EXPECT_NE(json.find("\"memsys.queue3.issued\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Time-series sampler
// ---------------------------------------------------------------------

TEST(TimeSeriesTest, CompactionBoundsRowsAndDoublesInterval)
{
    sim::TimeSeriesSampler sampler(100, /*capacity=*/8);
    int calls = 0;
    sampler.addChannel("n", [&] { return double(++calls); });
    for (sim::Cycle t = 100; t <= 10000; t += 100)
        sampler.tick(t);
    sim::TimeSeriesData d = sampler.take();
    EXPECT_LT(d.cycles.size(), 8u);
    EXPECT_GT(d.interval, 100u);  // doubled at least once
    ASSERT_EQ(d.channels.size(), 1u);
    EXPECT_EQ(d.values[0].size(), d.cycles.size());
    // Rows stay chronologically ordered across compactions.
    for (std::size_t i = 1; i < d.cycles.size(); ++i)
        EXPECT_LT(d.cycles[i - 1], d.cycles[i]);
}

/**
 * The ticker keeps firing at the initial interval forever; the
 * sampler must decimate after compaction, not compact every
 * capacity/2 ticks (which used to overflow `interval` by doubling it
 * once per compaction on long runs).
 */
TEST(TimeSeriesTest, MillionsOfTicksKeepIntervalSane)
{
    sim::TimeSeriesSampler sampler(16384, /*capacity=*/64);
    sampler.addChannel("c", [] { return 0.0; });
    for (sim::Cycle t = 1; t <= 2'000'000; ++t)
        sampler.tick(t * 16384);
    sampler.flush(2'000'001 * sim::Cycle(16384));
    sim::TimeSeriesData d = sampler.take();
    EXPECT_LT(d.cycles.size(), 64u);
    EXPECT_GT(d.interval, 16384u);
    // 2M offers is ~15 doublings with decimation; without it the
    // interval would have doubled ~62k times and wrapped to zero.
    EXPECT_LT(d.interval, sim::Cycle(1) << 40);
    for (std::size_t i = 1; i < d.cycles.size(); ++i)
        EXPECT_LT(d.cycles[i - 1], d.cycles[i]);
}

TEST(TimeSeriesTest, DuplicateTickIsNoOp)
{
    sim::TimeSeriesSampler sampler(10);
    sampler.addChannel("c", [] { return 1.0; });
    sampler.tick(50);
    sampler.tick(50);
    EXPECT_EQ(sampler.samples(), 1u);
}

/** Fingerprints must be bit-identical with sampling on or off. */
TEST(ObservabilityDeterminismTest, SamplingDoesNotPerturbSimulation)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.05;
    workloads::WorkloadParams wp;
    wp.scale = opt.scale;

    auto fingerprint = [&](sim::Cycle interval) {
        driver::SystemConfig cfg = driver::conven4PlusUlmtConfig(
            opt, core::UlmtAlgo::Repl, "Mcf");
        cfg.metricsInterval = interval;
        auto wl = workloads::makeWorkload("Mcf", wp);
        driver::System sys(cfg, *wl);
        driver::RunResult r = sys.run();
        return std::make_pair(driver::resultFingerprint(r),
                              r.metrics.empty());
    };

    const auto off = fingerprint(0);
    const auto dense = fingerprint(1024);
    const auto sparse = fingerprint(65536);
    EXPECT_TRUE(off.second);
    EXPECT_FALSE(dense.second);
    EXPECT_EQ(off.first, dense.first);
    EXPECT_EQ(off.first, sparse.first);
}

/** Same guarantee through the parallel runner funnel. */
TEST(ObservabilityDeterminismTest, ParallelRunnerSamplingInvariant)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.02;
    const std::vector<std::string> apps = {"Tree", "Mcf"};

    auto sweep = [&](sim::Cycle interval) {
        driver::RunOverrides sampling;
        sampling.metricsInterval = interval;
        driver::setRunOverrides(sampling);
        std::vector<std::function<driver::RunResult()>> tasks;
        for (const std::string &app : apps) {
            tasks.push_back([&, app] {
                return driver::runOne(
                    app,
                    driver::conven4PlusUlmtConfig(
                        opt, core::UlmtAlgo::Repl, app),
                    opt);
            });
        }
        auto results = driver::runTasks(tasks, 2);
        driver::setRunOverrides({});
        std::string fp;
        for (const auto &r : results)
            fp += driver::resultFingerprint(r) + "\n";
        return fp;
    };

    EXPECT_EQ(sweep(0), sweep(4096));
}

// ---------------------------------------------------------------------
// Trace-event export
// ---------------------------------------------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(TraceEventTest, WriterEmitsWellFormedJson)
{
    const std::string path =
        testing::TempDir() + "trace_writer_test.json";
    {
        sim::TraceEventWriter writer(path);
        sim::TraceEventBuffer buf;
        buf.complete("span \"quoted\"", "cat", 10, 5,
                     sim::traceTidUlmt);
        buf.instant("marker", "cat", 12, sim::traceTidMemsys);
        buf.counter("depth", 14, 3.5, sim::traceTidSampler);
        const std::uint64_t id = buf.newFlowId();
        buf.flow(sim::TracePhase::FlowStart, id, 10,
                 sim::traceTidMemsys);
        buf.flow(sim::TracePhase::FlowEnd, id, 14, sim::traceTidUlmt);
        writer.writeProcess("Mcf/Repl", buf);
        writer.finish();
        writer.finish();  // idempotent
    }
    const std::string text = slurp(path);
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"process_name\""), std::string::npos);
    EXPECT_NE(text.find("\"bp\": \"e\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceEventTest, EndToEndSimulationTrace)
{
    const std::string path =
        testing::TempDir() + "trace_sim_test.json";
    {
        driver::ExperimentOptions opt;
        opt.scale = 0.02;
        driver::SystemConfig cfg = driver::conven4PlusUlmtConfig(
            opt, core::UlmtAlgo::Repl, "Tree");
        workloads::WorkloadParams wp;
        wp.scale = opt.scale;
        auto wl = workloads::makeWorkload("Tree", wp);
        driver::System sys(cfg, *wl);
        sim::TraceEventBuffer buf;
        sys.setTraceEvents(&buf);
        sys.run();
        EXPECT_GT(buf.size(), 0u);
        sim::TraceEventWriter writer(path);
        writer.writeProcess("Tree/Conven4+Repl", buf);
        writer.finish();
    }
    const std::string text = slurp(path);
    EXPECT_TRUE(JsonChecker(text).valid())
        << text.substr(0, 400);
    // ULMT episode spans and nested prefetch steps are present, as
    // are bus/DRAM spans and the demand-miss flow arrows.
    EXPECT_NE(text.find("\"miss_episode\""), std::string::npos);
    EXPECT_NE(text.find("\"prefetch_step\""), std::string::npos);
    EXPECT_NE(text.find("\"demand_fetch\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\": \"s\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceEventTest, DisabledPathLeavesNoTrace)
{
    driver::ExperimentOptions opt;
    opt.scale = 0.02;
    driver::SystemConfig cfg = driver::conven4Config(opt);
    workloads::WorkloadParams wp;
    wp.scale = opt.scale;
    auto wl = workloads::makeWorkload("Tree", wp);
    driver::System sys(cfg, *wl);
    // No setTraceEvents call: nothing should be buffered anywhere and
    // the run must still complete normally.
    driver::RunResult r = sys.run();
    EXPECT_GT(r.cycles, 0u);
}

TEST(TraceEventTest, WriterThrowsOnUnwritablePath)
{
    EXPECT_THROW(
        sim::TraceEventWriter("/nonexistent-dir-xyz/trace.json"),
        std::runtime_error);
}

// ---------------------------------------------------------------------
// TextTable edge cases
// ---------------------------------------------------------------------

TEST(TextTableTest, EmptyHeaderListRendersWithoutUnderflow)
{
    driver::TextTable t({});
    const std::string out = t.render();
    // Must not attempt a (size_t)(-2)-character separator.
    EXPECT_LT(out.size(), 16u);
}

TEST(TextTableTest, SingleColumnRender)
{
    driver::TextTable t({"col"});
    t.addRow({"v"});
    const std::string out = t.render();
    EXPECT_NE(out.find("col"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_NE(out.find("v"), std::string::npos);
}

// ---------------------------------------------------------------------
// Workload registry error-message satellite
// ---------------------------------------------------------------------

TEST(WorkloadErrorTest, TraceOpenFailureNamesTheInput)
{
    const std::string name = "trace:/no/such/file.trace";
    try {
        workloads::makeWorkload(name, {});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(name),
                  std::string::npos)
            << e.what();
    }
    try {
        workloads::tableNumRows(name);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(name),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
