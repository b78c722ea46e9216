/**
 * @file
 * Figure 5: fraction of L2 cache misses correctly predicted by the
 * different algorithms at successor levels 1-3.
 *
 * Each algorithm simply observes the NoPref demand-miss stream of each
 * application without prefetching.  The pair-based schemes use large
 * tables so that no prediction is lost to conflicts (NumRows=256K,
 * Assoc=4, NumSucc=4); under these conditions Chain and Repl are
 * equivalent to Base at level 1.
 *
 * The miss streams are captured in parallel (one NoPref simulation per
 * application), then every (application, algorithm) replay runs as an
 * independent chunk writing into its own slot.
 *
 * Usage: fig5_predictability [scale] [--jobs=N]
 */

#include <cstdio>
#include <functional>
#include <map>

#include "bench/harness.hh"
#include "core/base_chain.hh"
#include "core/composite.hh"
#include "core/predictability.hh"
#include "core/replicated.hh"
#include "core/seq_prefetcher.hh"
#include "driver/experiment.hh"
#include "driver/report.hh"
#include "driver/runner.hh"

namespace {

core::CorrelationParams
bigTable()
{
    core::CorrelationParams p;
    p.numRows = 256 * 1024;
    p.assoc = 4;
    p.numSucc = 4;
    p.numLevels = 3;
    return p;
}

core::SeqParams
seqParams(std::uint32_t streams)
{
    core::SeqParams p;
    p.numSeq = streams;
    p.numPref = 6;
    p.lineBytes = 64;
    return p;
}

using Maker =
    std::function<std::unique_ptr<core::CorrelationPrefetcher>()>;

std::vector<std::pair<std::string, Maker>>
algorithms()
{
    return {
        {"Seq1",
         [] { return std::make_unique<core::SeqPrefetcher>(
                  seqParams(1)); }},
        {"Seq4",
         [] { return std::make_unique<core::SeqPrefetcher>(
                  seqParams(4)); }},
        {"Base",
         [] { return std::make_unique<core::BasePrefetcher>(
                  bigTable()); }},
        {"Chain",
         [] { return std::make_unique<core::ChainPrefetcher>(
                  bigTable()); }},
        {"Repl",
         [] { return std::make_unique<core::ReplicatedPrefetcher>(
                  bigTable()); }},
        {"Seq4+Base",
         [] {
             std::vector<std::unique_ptr<core::CorrelationPrefetcher>>
                 parts;
             parts.push_back(
                 std::make_unique<core::SeqPrefetcher>(seqParams(4)));
             parts.push_back(
                 std::make_unique<core::BasePrefetcher>(bigTable()));
             return std::make_unique<core::CompositePrefetcher>(
                 std::move(parts));
         }},
        {"Seq4+Repl",
         [] {
             std::vector<std::unique_ptr<core::CorrelationPrefetcher>>
                 parts;
             parts.push_back(
                 std::make_unique<core::SeqPrefetcher>(seqParams(4)));
             parts.push_back(
                 std::make_unique<core::ReplicatedPrefetcher>(
                     bigTable()));
             return std::make_unique<core::CompositePrefetcher>(
                 std::move(parts));
         }},
    };
}

struct Cell
{
    bool applicable[3] = {false, false, false};
    double accuracy[3] = {0.0, 0.0, 0.0};
};

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options bopt = bench::parseArgs(argc, argv, 1.0);
    driver::ExperimentOptions opt;
    opt.scale = bopt.scale;
    bench::Harness harness("fig5_predictability", bopt);

    const auto algos = algorithms();
    const std::vector<std::string> apps =
        workloads::applicationNames();

    const std::vector<driver::RunResult> captures =
        harness.run([&] {
            return driver::captureMissStreamRuns(apps, opt);
        });

    // One chunk per (application, algorithm) replay; each writes its
    // own Cell, so the chunks are fully independent.
    std::vector<Cell> cells(apps.size() * algos.size());
    std::vector<std::function<void()>> chunks;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        for (std::size_t gi = 0; gi < algos.size(); ++gi) {
            chunks.push_back([&, ai, gi] {
                auto algo = algos[gi].second();
                const core::PredictabilityResult res =
                    core::evaluatePredictability(
                        *algo, captures[ai].missStream, 3);
                Cell &cell = cells[ai * algos.size() + gi];
                for (int lvl = 0; lvl < 3; ++lvl) {
                    // Base predicts one level only.
                    const bool applicable =
                        lvl < static_cast<int>(res.accuracy.size()) &&
                        static_cast<std::uint32_t>(lvl) <
                            std::min<std::uint32_t>(algo->levels(), 3);
                    cell.applicable[lvl] = applicable;
                    if (applicable)
                        cell.accuracy[lvl] = res.accuracy[
                            static_cast<std::size_t>(lvl)];
                }
            });
        }
    }
    driver::parallelInvoke(chunks);

    // accuracy[level][algo] per app, then averaged.
    std::map<std::string, std::vector<double>> acc[3];

    std::vector<std::string> headers = {"Appl"};
    for (const auto &[name, maker] : algos)
        headers.push_back(name);

    driver::TextTable tables[3] = {driver::TextTable(headers),
                                   driver::TextTable(headers),
                                   driver::TextTable(headers)};

    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        std::vector<std::string> row[3] = {
            {apps[ai]}, {apps[ai]}, {apps[ai]}};
        for (std::size_t gi = 0; gi < algos.size(); ++gi) {
            const Cell &cell = cells[ai * algos.size() + gi];
            for (int lvl = 0; lvl < 3; ++lvl) {
                row[lvl].push_back(
                    cell.applicable[lvl]
                        ? driver::fmtPercent(cell.accuracy[lvl])
                        : std::string("n/a"));
                if (cell.applicable[lvl])
                    acc[lvl][algos[gi].first].push_back(
                        cell.accuracy[lvl]);
            }
        }
        for (int lvl = 0; lvl < 3; ++lvl)
            tables[lvl].addRow(row[lvl]);
    }

    for (int lvl = 0; lvl < 3; ++lvl) {
        std::vector<std::string> avg_row = {"Average"};
        for (const auto &[name, maker] : algos) {
            const auto &v = acc[lvl][name];
            const bool have = !v.empty();
            avg_row.push_back(have ? driver::fmtPercent(
                                         driver::mean(v))
                                   : std::string("n/a"));
            if (have)
                harness.metric(
                    sim::strformat("avg_accuracy_%s_level%d",
                                   name.c_str(), lvl + 1),
                    driver::mean(v));
        }
        tables[lvl].addRow(avg_row);
        tables[lvl].print(
            sim::strformat("Figure 5: %% of L2 misses correctly "
                           "predicted, level %d", lvl + 1));
    }
    harness.writeJson();
    return 0;
}
