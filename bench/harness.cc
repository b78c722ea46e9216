#include "bench/harness.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>

#include <sys/utsname.h>
#include <unistd.h>

#include "ckpt/checkpoint.hh"
#include "driver/experiment.hh"
#include "driver/runner.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace bench {

using driver::flagValue;

const std::vector<std::string> &
Options::appList() const
{
    return apps.empty() ? workloads::applicationNames() : apps;
}

namespace {

/** Reject the command line; parseArgs prints @p msg as a fatal message
 *  and exits with status 2, the usage-error code. */
[[noreturn]] void
badArgs(const std::string &msg)
{
    throw std::invalid_argument(msg);
}

/** The non-empty path value of `--key=PATH` (@p what names it). */
const char *
pathValue(const char *v, const char *what)
{
    if (*v == '\0')
        badArgs(std::string("empty ") + what);
    return v;
}

} // namespace

Options
parseArgs(int argc, char **argv, double default_scale)
{
    Options opt;
    opt.scale = default_scale;
    driver::RunOverrides run;
    check::CheckOptions chk;
    std::string trace_events;
    bool scale_seen = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            char *end = nullptr;
            if (driver::parseRunFlag(arg, run))
                continue;
            if (const char *j = flagValue(arg, "--jobs=")) {
                const long v = std::strtol(j, &end, 10);
                if (*end != '\0' || v < 1 || v > 1024)
                    badArgs(sim::strformat("bad --jobs value '%s'", j));
                opt.jobs = static_cast<unsigned>(v);
            } else if (const char *list = flagValue(arg, "--apps=")) {
                std::string cur;
                for (const char *p = list;; ++p) {
                    if (*p == ',' || *p == '\0') {
                        if (!cur.empty())
                            opt.apps.push_back(cur);
                        cur.clear();
                        if (*p == '\0')
                            break;
                    } else {
                        cur += *p;
                    }
                }
                if (opt.apps.empty())
                    badArgs("empty --apps list");
            } else if (const char *t = flagValue(arg, "--trace-events=")) {
                trace_events = pathValue(t, "--trace-events path");
            } else if (const char *m =
                           flagValue(arg, "--metrics-interval=")) {
                const long long v = std::strtoll(m, &end, 10);
                if (*end != '\0' || v < 0)
                    badArgs(sim::strformat(
                        "bad --metrics-interval value '%s'", m));
                run.metricsInterval = static_cast<sim::Cycle>(v);
            } else if (arg == "--check" || arg == "--check=basic") {
                chk.mode = check::CheckMode::Basic;
            } else if (arg == "--check=deep") {
                chk.mode = check::CheckMode::Deep;
            } else if (arg == "--check=off") {
                chk.mode = check::CheckMode::Off;
            } else if (const char *c = flagValue(arg, "--check=")) {
                badArgs(sim::strformat("bad --check mode '%s' (expected "
                                       "off, basic or deep)",
                                       c));
            } else if (const char *n =
                           flagValue(arg, "--check-interval=")) {
                const long long v = std::strtoll(n, &end, 10);
                if (*end != '\0' || v < 1)
                    badArgs(sim::strformat(
                        "bad --check-interval value '%s'", n));
                chk.everyEvents = static_cast<std::uint64_t>(v);
            } else if (arg == "--audit=on" || arg == "--audit=off") {
                run.audit = arg == "--audit=on";
            } else if (flagValue(arg, "--audit")) {
                badArgs("bad --audit value '" + arg +
                        "' (expected on or off)");
            } else if (const char *at = flagValue(arg, "--checkpoint-at=")) {
                run.checkpointAt = pathValue(at, "--checkpoint-at spec");
            } else if (const char *to = flagValue(arg, "--checkpoint-to=")) {
                run.checkpointTo =
                    pathValue(to, "--checkpoint-to directory");
            } else if (const char *r = flagValue(arg, "--restore-from=")) {
                run.restoreFrom = pathValue(r, "--restore-from path");
            } else if (arg == "--list-workloads") {
                for (const std::string &w : driver::listWorkloads())
                    std::printf("%s\n", w.c_str());
                std::printf("trace:<path>\n");
                std::exit(0);
            } else if (!scale_seen && !flagValue(arg, "--")) {
                opt.scale = driver::parseScale(arg);
                scale_seen = true;
            } else {
                badArgs("unexpected argument '" + arg +
                        "' (usage: bench "
                        "[scale] [--jobs=N] [--apps=A,B,...] "
                        "[--trace-events=PATH] [--metrics-interval=N] "
                        "[--check[=off|basic|deep]] [--check-interval=N] "
                        "[--audit=on|off] "
                        "[--checkpoint-at=SPEC] [--checkpoint-to=DIR] "
                        "[--restore-from=PATH] [--cores=N] "
                        "[--ulmt-mode=shared|percore|sharded] "
                        "[--vm=on|off] [--page-size=4k|2m] "
                        "[--remap-rate=R] "
                        "[--table-cache=<entries>[,<assoc>]] "
                        "[--list-workloads])");
            }
        }
        if (!run.restoreFrom.empty()) {
            // Validate up front so a bad path or corrupt snapshot
            // fails before the sweep starts, with a clean diagnostic.
            try {
                (void)ckpt::CheckpointImage::readHeader(run.restoreFrom);
            } catch (const ckpt::CkptError &e) {
                badArgs(std::string("--restore-from: ") + e.what());
            }
        }
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        std::exit(2);
    }
    if (chk.enabled())
        run.check = chk;
    if (opt.jobs)
        driver::setRunnerJobs(opt.jobs);
    if (!trace_events.empty())
        driver::setTraceEventsPath(trace_events);
    driver::setRunOverrides(run);
    return opt;
}

Harness::Harness(std::string name, const Options &opt)
    : name_(std::move(name)), opt_(opt),
      start_(std::chrono::steady_clock::now())
{
}

std::vector<driver::RunResult>
Harness::run(const std::function<std::vector<driver::RunResult>()> &batch)
{
    std::vector<driver::RunResult> results;
    try {
        results = batch();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        std::exit(2);
    }
    for (const driver::RunResult &r : results) {
        runs_.push_back(r);
        // No JSON field reads the miss stream; drop the second copy.
        runs_.back().missStream = std::vector<sim::Addr>();
    }
    return results;
}

void
Harness::metric(const std::string &key, double value)
{
    metrics_.emplace_back(key, value);
}

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += sim::strformat("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
}

std::string
jsonNumber(double v)
{
    // Shortest round-trippable decimal; JSON has no inf/nan.
    if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0)
        return "null";
    return sim::strformat("%.17g", v);
}

/** Host throughput of one run (0 when it took no measurable time). */
std::string
eventsPerSec(const driver::RunResult &r)
{
    return jsonNumber(r.wallSeconds > 0.0
                          ? static_cast<double>(r.eventsExecuted) /
                                r.wallSeconds
                          : 0.0);
}

/** Series samples need far less precision than headline metrics. */
std::string
seriesNumber(double v)
{
    if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0)
        return "null";
    return sim::strformat("%.6g", v);
}

/** The commit being benchmarked: CI env var, else git, else unknown. */
std::string
gitSha()
{
    if (const char *sha = std::getenv("GITHUB_SHA")) {
        if (*sha)
            return sha;
    }
    std::string out;
    if (std::FILE *p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof(buf), p))
            out += buf;
        ::pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    if (out.size() != 40)
        return "unknown";
    return out;
}

std::string
utcTimestamp()
{
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/** The {"git_sha", "timestamp_utc", "host"} provenance stamp. */
std::string
provenanceJson()
{
    std::string out = "  \"provenance\": {\n";
    out += "    \"git_sha\": ";
    appendEscaped(out, gitSha());
    out += ",\n    \"timestamp_utc\": ";
    appendEscaped(out, utcTimestamp());
    out += ",\n    \"host\": {";
    struct utsname un{};
    if (::uname(&un) == 0) {
        out += "\"hostname\": ";
        appendEscaped(out, un.nodename);
        out += ", \"sysname\": ";
        appendEscaped(out, un.sysname);
        out += ", \"release\": ";
        appendEscaped(out, un.release);
        out += ", \"machine\": ";
        appendEscaped(out, un.machine);
        out += sim::strformat(", \"nproc\": %ld",
                              ::sysconf(_SC_NPROCESSORS_ONLN));
    }
    out += "}\n  },\n";
    return out;
}

/** One push-outcome counter set as a JSON object.  The page-cross
 *  drop class exists only when the VM layer is on; emitting it
 *  conditionally keeps pre-VM BENCH files byte-identical. */
std::string
outcomeJson(const mem::AuditOutcomeCounts &c, bool with_page_cross)
{
    std::string out = sim::strformat(
        "{\"issued\": %llu, \"useful_timely\": %llu, "
        "\"useful_late\": %llu, \"evicted_unused\": %llu, "
        "\"redundant\": %llu, \"dropped_filter\": %llu, "
        "\"dropped_queue_full\": %llu, \"dropped_demand_match\": %llu, "
        "\"dropped_cpu_pf_match\": %llu",
        (unsigned long long)c.issued, (unsigned long long)c.usefulTimely,
        (unsigned long long)c.usefulLate,
        (unsigned long long)c.evictedUnused,
        (unsigned long long)c.redundant,
        (unsigned long long)c.droppedFilter,
        (unsigned long long)c.droppedQueueFull,
        (unsigned long long)c.droppedDemandMatch,
        (unsigned long long)c.droppedCpuPfMatch);
    if (with_page_cross)
        out += sim::strformat(", \"dropped_page_cross\": %llu",
                              (unsigned long long)c.droppedPageCross);
    return out + "}";
}

/**
 * The per-run "effectiveness" block: the audit layer's lifecycle
 * outcome taxonomy, lead-time histogram, per-tenant bus/DRAM split and
 * the blocked_by interference matrix.  Fully deterministic (no host
 * times), so regression gates may compare it exactly.
 */
std::string
effectivenessJson(const mem::AuditReport &a, bool vm_on)
{
    std::string out = "{\"cores\": [";
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
        const mem::AuditCoreReport &cr = a.cores[c];
        out += c ? ",\n        " : "\n        ";
        out += "{\"push\": " + outcomeJson(cr.push, vm_on);
        out += ", \"coverage\": " + jsonNumber(cr.coverage);
        out += ", \"accuracy\": " + jsonNumber(cr.accuracy);
        out += ", \"timeliness\": " + jsonNumber(cr.timeliness);
        out += sim::strformat(
            ",\n         \"cpu_pf\": {\"issued\": %llu, "
            "\"to_memory\": %llu, \"useful_timely\": %llu, "
            "\"useful_late\": %llu, \"replaced\": %llu",
            (unsigned long long)cr.cpuPfIssued,
            (unsigned long long)cr.cpuPfToMemory,
            (unsigned long long)cr.cpuPfUsefulTimely,
            (unsigned long long)cr.cpuPfUsefulLate,
            (unsigned long long)cr.cpuPfReplaced);
        if (vm_on)
            out += sim::strformat(
                ", \"dropped_page_cross\": %llu",
                (unsigned long long)cr.cpuPfDroppedPageCross);
        out += "}";
        out += ",\n         \"lead_time\": {\"edges\": [";
        for (std::size_t i = 0; i < cr.leadEdges.size(); ++i)
            out += (i ? ", " : "") + jsonNumber(cr.leadEdges[i]);
        out += "], \"counts\": [";
        for (std::size_t i = 0; i < cr.leadCounts.size(); ++i)
            out += sim::strformat("%s%llu", i ? ", " : "",
                                  (unsigned long long)cr.leadCounts[i]);
        out += sim::strformat("], \"below\": %llu",
                              (unsigned long long)cr.leadBelow);
        out += ", \"p50\": " + jsonNumber(cr.leadP50);
        out += ", \"p95\": " + jsonNumber(cr.leadP95) + "}";
        out += sim::strformat(",\n         \"late\": {\"count\": %llu",
                              (unsigned long long)cr.lateCount);
        out += ", \"mean\": " + jsonNumber(cr.lateMean) + "}";
        out += sim::strformat(
            ",\n         \"bus_cycles\": {\"demand\": %llu, "
            "\"prefetch\": %llu, \"other\": %llu}",
            (unsigned long long)cr.busDemandCycles,
            (unsigned long long)cr.busPrefetchCycles,
            (unsigned long long)cr.busOtherCycles);
        out += sim::strformat(
            ", \"dram_cycles\": {\"demand\": %llu, "
            "\"prefetch\": %llu, \"other\": %llu}",
            (unsigned long long)cr.dramDemandCycles,
            (unsigned long long)cr.dramPrefetchCycles,
            (unsigned long long)cr.dramOtherCycles);
        out += ",\n         \"blocked_by\": [";
        for (std::size_t i = 0; i < cr.blockedBy.size(); ++i)
            out += sim::strformat("%s%llu", i ? ", " : "",
                                  (unsigned long long)cr.blockedBy[i]);
        out += "]}";
    }
    out += "],\n       \"engines\": [";
    for (std::size_t e = 0; e < a.engines.size(); ++e) {
        out += e ? ", " : "";
        out += sim::strformat("{\"engine\": %u, \"push\": ",
                              a.engines[e].engine);
        out += outcomeJson(a.engines[e].push, vm_on) + "}";
    }
    out += sim::strformat(
        "],\n       \"table_dram_cycles\": %llu, "
        "\"open_inflight\": %llu, \"open_installed\": %llu}",
        (unsigned long long)a.tableDramCycles,
        (unsigned long long)a.openInflight,
        (unsigned long long)a.openInstalled);
    return out;
}

} // namespace

std::string
Harness::writeJson() const
{
    const double total = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();

    std::string out = "{\n";
    out += "  \"bench\": ";
    appendEscaped(out, name_);
    out += ",\n";
    out += sim::strformat("  \"jobs\": %u,\n", driver::runnerJobs());
    out += "  \"scale\": " + jsonNumber(opt_.scale) + ",\n";
    out += "  \"wall_seconds_total\": " + jsonNumber(total) + ",\n";
    out += provenanceJson();

    out += "  \"runs\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        const driver::RunResult &r = runs_[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"workload\": ";
        appendEscaped(out, r.workload);
        out += ", \"config\": ";
        appendEscaped(out, r.label);
        out += ", \"source\": ";
        appendEscaped(out, r.source);
        out += ", \"wall_seconds\": " + jsonNumber(r.wallSeconds);
        out += sim::strformat(", \"events\": %llu",
                              (unsigned long long)r.eventsExecuted);
        out += ", \"events_per_sec\": " + eventsPerSec(r);
        out += sim::strformat(", \"sim_cycles\": %llu",
                              (unsigned long long)r.cycles);
        // Core count only on multicore runs, so single-core benches
        // keep the established schema byte-for-byte.
        if (r.cores > 1)
            out += sim::strformat(", \"cores\": %u", std::max(r.cores, 1u));
        // Checkpoint costs only when the run actually checkpointed,
        // so runs without one keep the established schema.
        if (r.ckptSaveSeconds > 0.0 || r.ckptRestoreSeconds > 0.0 ||
            r.ckptBytes > 0) {
            out += ", \"ckpt_save_seconds\": " +
                   jsonNumber(r.ckptSaveSeconds);
            out += ", \"ckpt_restore_seconds\": " +
                   jsonNumber(r.ckptRestoreSeconds);
            out += sim::strformat(", \"ckpt_bytes\": %llu",
                                  (unsigned long long)r.ckptBytes);
        }
        // VM layer (ISSUE 9): present only when translation ran, so
        // every pre-VM bench keeps the established schema.
        if (r.vmOn) {
            out += sim::strformat(",\n     \"vm\": {\"page_bytes\": %u",
                                  r.vmPageBytes);
            out += ", \"remap_rate\": " + jsonNumber(r.vmRemapRate);
            out += sim::strformat(
                ", \"remaps\": %llu, \"tlb_hits\": %llu, "
                "\"tlb_misses\": %llu, \"walk_cycles\": %llu, "
                "\"pages_mapped\": %llu}",
                (unsigned long long)r.vmRemaps,
                (unsigned long long)r.vmTlbHits,
                (unsigned long long)r.vmTlbMisses,
                (unsigned long long)r.vmWalkCycles,
                (unsigned long long)r.vmPagesMapped);
        }
        // Table cache (ISSUE 10): present only when --table-cache was
        // on, so cache-off runs keep the established schema.
        if (r.tcacheOn) {
            out += sim::strformat(
                ",\n     \"tcache\": {\"entries\": %u, \"assoc\": %u, "
                "\"hits\": %llu, \"misses\": %llu, "
                "\"writebacks\": %llu, "
                "\"row_batched_writebacks\": %llu, "
                "\"dirty_buf_high_water\": %llu, "
                "\"dram_accesses\": %llu}",
                r.tcacheEntries, r.tcacheAssoc,
                (unsigned long long)r.tcache.hits,
                (unsigned long long)r.tcache.misses,
                (unsigned long long)r.tcache.writebacks,
                (unsigned long long)r.tcache.rowBatchedWritebacks,
                (unsigned long long)r.tcache.dirtyBufHighWater,
                (unsigned long long)r.tcache.dramAccesses);
        }
        // Lifecycle audit (ISSUE 8): present only when the auditor ran,
        // so audit-off invocations keep the established schema.
        if (r.audit.enabled) {
            out += ",\n     \"effectiveness\": ";
            out += effectivenessJson(r.audit, r.vmOn);
        }
        out += "}";
    }
    out += runs_.empty() ? "],\n" : "\n  ],\n";

    out += "  \"metrics\": {";
    bool first_metric = true;
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        out += first_metric ? "\n    " : ",\n    ";
        first_metric = false;
        appendEscaped(out, metrics_[i].first);
        out += ": " + jsonNumber(metrics_[i].second);
    }
    // Per-run sampled time series (runs with sampling off are
    // skipped).
    bool any_series = false;
    for (const driver::RunResult &r : runs_)
        any_series = any_series || !r.metrics.empty();
    if (any_series) {
        out += first_metric ? "\n    " : ",\n    ";
        first_metric = false;
        out += "\"series\": [";
        bool first_run = true;
        for (const driver::RunResult &r : runs_) {
            if (r.metrics.empty())
                continue;
            out += first_run ? "\n      " : ",\n      ";
            first_run = false;
            out += "{\"workload\": ";
            appendEscaped(out, r.workload);
            out += ", \"config\": ";
            appendEscaped(out, r.label);
            out += sim::strformat(
                ", \"interval_cycles\": %llu",
                (unsigned long long)r.metrics.interval);
            out += ",\n       \"cycle\": [";
            for (std::size_t s = 0; s < r.metrics.cycles.size(); ++s)
                out += sim::strformat(
                    "%s%llu", s ? ", " : "",
                    (unsigned long long)r.metrics.cycles[s]);
            out += "],\n       \"channels\": {";
            for (std::size_t c = 0; c < r.metrics.channels.size();
                 ++c) {
                out += c ? ",\n         " : "\n         ";
                appendEscaped(out, r.metrics.channels[c]);
                out += ": [";
                const auto &vals = r.metrics.values[c];
                for (std::size_t s = 0; s < vals.size(); ++s) {
                    if (s)
                        out += ", ";
                    out += seriesNumber(vals[s]);
                }
                out += "]";
            }
            out += "}}";
        }
        out += "\n    ]";
    }
    out += first_metric ? "}\n" : "\n  }\n";
    out += "}\n";

    // A bench owns the process-wide trace file: close it here so the
    // JSON epilogue lands even when main never returns normally.
    driver::finishTraceEvents();

    std::string path = "BENCH_" + name_ + ".json";
    if (const char *dir = std::getenv("ULMT_BENCH_DIR")) {
        if (*dir)
            path = std::string(dir) + "/" + path;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        sim::warn("cannot write %s", path.c_str());
        return path;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("\n[bench] wrote %s (%.2fs total, %u jobs)\n",
                path.c_str(), total, driver::runnerJobs());
    return path;
}

} // namespace bench
