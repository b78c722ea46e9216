#include "bench/harness.hh"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

const std::vector<std::string> &
Options::appList() const
{
    return apps.empty() ? workloads::applicationNames() : apps;
}

namespace {

/** Largest accepted workload scale: 64x the evaluation size. */
constexpr double maxScale = 64.0;

/** Reject the command line: print @p fmt as a fatal message and exit
 *  with status 2, the usage-error code. */
[[noreturn]] __attribute__((format(printf, 1, 2))) void
badArgs(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    char msg[1024];
    std::vsnprintf(msg, sizeof(msg), fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", msg);
    std::exit(2);
}

/** The positional workload scale: a finite number in (0, maxScale]. */
double
parseScale(const char *arg)
{
    char *end = nullptr;
    const double v = std::strtod(arg, &end);
    if (end == arg || *end != '\0' || !std::isfinite(v) || v <= 0.0 ||
        v > maxScale)
        badArgs("bad scale '%s' (expected a number in (0, %g])", arg,
                maxScale);
    return v;
}

} // namespace

Options
parseArgs(int argc, char **argv, double default_scale)
{
    Options opt;
    opt.scale = default_scale;
    bool scale_seen = false;
    bool cores_seen = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--jobs=", 7) == 0) {
            char *end = nullptr;
            const long v = std::strtol(arg + 7, &end, 10);
            if (*end != '\0' || v < 1 || v > 1024)
                badArgs("bad --jobs value '%s'", arg + 7);
            opt.jobs = static_cast<unsigned>(v);
        } else if (std::strncmp(arg, "--apps=", 7) == 0) {
            std::string cur;
            for (const char *p = arg + 7;; ++p) {
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
        } else if (std::strncmp(arg, "--trace-events=", 15) == 0) {
            if (arg[15] == '\0')
                badArgs("empty --trace-events path");
            opt.traceEvents = arg + 15;
        } else if (std::strncmp(arg, "--metrics-interval=", 19) == 0) {
            char *end = nullptr;
            const long long v = std::strtoll(arg + 19, &end, 10);
            if (*end != '\0' || v < 0)
                badArgs("bad --metrics-interval value '%s'",
                           arg + 19);
            opt.metricsInterval = v;
        } else if (std::strcmp(arg, "--check") == 0 ||
                   std::strcmp(arg, "--check=basic") == 0) {
            opt.check.mode = check::CheckMode::Basic;
        } else if (std::strcmp(arg, "--check=deep") == 0) {
            opt.check.mode = check::CheckMode::Deep;
        } else if (std::strcmp(arg, "--check=off") == 0) {
            opt.check.mode = check::CheckMode::Off;
        } else if (std::strncmp(arg, "--check=", 8) == 0) {
            badArgs("bad --check mode '%s' (expected off, basic or deep)",
                       arg + 8);
        } else if (std::strncmp(arg, "--check-interval=", 17) == 0) {
            char *end = nullptr;
            const long long v = std::strtoll(arg + 17, &end, 10);
            if (*end != '\0' || v < 1)
                badArgs("bad --check-interval value '%s'", arg + 17);
            opt.check.everyEvents = static_cast<std::uint64_t>(v);
        } else if (std::strcmp(arg, "--audit=on") == 0) {
            opt.audit = 1;
        } else if (std::strcmp(arg, "--audit=off") == 0) {
            opt.audit = 0;
        } else if (std::strncmp(arg, "--audit", 7) == 0) {
            badArgs("bad --audit value '%s' (expected on or off)",
                       arg);
        } else if (std::strncmp(arg, "--checkpoint-at=", 16) == 0) {
            if (arg[16] == '\0')
                badArgs("empty --checkpoint-at spec");
            opt.checkpointAt = arg + 16;
        } else if (std::strncmp(arg, "--checkpoint-to=", 16) == 0) {
            if (arg[16] == '\0')
                badArgs("empty --checkpoint-to directory");
            opt.checkpointTo = arg + 16;
        } else if (std::strncmp(arg, "--restore-from=", 15) == 0) {
            if (arg[15] == '\0')
                badArgs("empty --restore-from path");
            opt.restoreFrom = arg + 15;
        } else if (std::strcmp(arg, "--vm=on") == 0) {
            opt.vm.enabled = true;
            opt.vmSet = true;
        } else if (std::strcmp(arg, "--vm=off") == 0) {
            opt.vm.enabled = false;
            opt.vmSet = true;
        } else if (std::strncmp(arg, "--vm", 4) == 0 &&
                   (arg[4] == '\0' || arg[4] == '=')) {
            badArgs("bad --vm value '%s' (expected on or off)", arg);
        } else if (std::strncmp(arg, "--page-size=", 12) == 0) {
            try {
                opt.vm.pageBytes = vm::parsePageSize(arg + 12);
            } catch (const std::invalid_argument &e) {
                badArgs("%s", e.what());
            }
            opt.vmSet = true;
        } else if (std::strncmp(arg, "--remap-rate=", 13) == 0) {
            char *end = nullptr;
            const double v = std::strtod(arg + 13, &end);
            if (*end != '\0' || !(v >= 0.0) || v > 1e6)
                badArgs("bad --remap-rate value '%s' (remaps per "
                           "million cycles, >= 0)",
                           arg + 13);
            opt.vm.remapRate = v;
            opt.vmSet = true;
        } else if (std::strncmp(arg, "--table-cache=", 14) == 0) {
            // <entries>[,<assoc>]; entries 0 disables the cache.
            char *end = nullptr;
            const long e = std::strtol(arg + 14, &end, 10);
            long a = opt.tableCache.assoc;
            if (*end == ',')
                a = std::strtol(end + 1, &end, 10);
            if (*end != '\0' || e < 0 || e > (1 << 20) || a < 1 ||
                a > 64 || (e > 0 && e % a != 0))
                badArgs("bad --table-cache value '%s' (expected "
                           "<entries>[,<assoc>], entries divisible by "
                           "assoc, 0 disables)",
                           arg + 14);
            opt.tableCache.entries = static_cast<std::uint32_t>(e);
            opt.tableCache.assoc = static_cast<std::uint32_t>(a);
            opt.tableCacheSet = true;
        } else if (std::strncmp(arg, "--cores=", 8) == 0) {
            char *end = nullptr;
            const long v = std::strtol(arg + 8, &end, 10);
            if (*end != '\0' || v < 1 ||
                v > static_cast<long>(sim::maxCores))
                badArgs("bad --cores value '%s' (expected 1..%u)",
                           arg + 8, unsigned(sim::maxCores));
            opt.cores = static_cast<unsigned>(v);
            cores_seen = true;
        } else if (std::strncmp(arg, "--ulmt-mode=", 12) == 0) {
            opt.ulmtMode = core::parseUlmtMode(arg + 12);
            cores_seen = true;
        } else if (std::strcmp(arg, "--list-workloads") == 0) {
            for (const std::string &w : driver::listWorkloads())
                std::printf("%s\n", w.c_str());
            std::printf("trace:<path>\n");
            std::exit(0);
        } else if (!scale_seen && std::strncmp(arg, "--", 2) != 0) {
            opt.scale = parseScale(arg);
            scale_seen = true;
        } else {
            badArgs("unexpected argument '%s' (usage: bench "
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
                       "[--list-workloads])",
                       arg);
        }
    }
    if (opt.jobs)
        driver::setRunnerJobs(opt.jobs);
    if (!opt.traceEvents.empty())
        driver::setTraceEventsPath(opt.traceEvents);
    if (opt.metricsInterval >= 0)
        driver::setMetricsIntervalOverride(
            static_cast<sim::Cycle>(opt.metricsInterval));
    if (opt.check.enabled())
        driver::setCheckOverride(opt.check);
    if (opt.audit >= 0)
        driver::setAuditOverride(opt.audit != 0);
    if (!opt.checkpointAt.empty())
        driver::setCheckpointAt(opt.checkpointAt);
    if (!opt.checkpointTo.empty())
        driver::setCheckpointTo(opt.checkpointTo);
    if (cores_seen)
        driver::setCoresOverride(opt.cores, opt.ulmtMode);
    if (opt.vmSet)
        driver::setVmOverride(opt.vm);
    if (opt.tableCacheSet)
        driver::setTableCacheOverride(opt.tableCache);
    if (!opt.restoreFrom.empty()) {
        // Validate up front so a bad path or corrupt snapshot fails
        // before the sweep starts, with a clean diagnostic.
        try {
            (void)ckpt::CheckpointImage::readHeader(opt.restoreFrom);
        } catch (const ckpt::CkptError &e) {
            badArgs("--restore-from: %s", e.what());
        }
        driver::setRestoreFrom(opt.restoreFrom);
    }
    return opt;
}

Harness::Harness(std::string name, const Options &opt)
    : name_(std::move(name)), opt_(opt),
      start_(std::chrono::steady_clock::now())
{
}

void
Harness::record(const driver::RunResult &r)
{
    const unsigned cores = r.cores ? r.cores : 1u;
    runs_.push_back(Run{r.workload, r.label, r.source, r.wallSeconds,
                        r.eventsExecuted, r.cycles, r.ckptSaveSeconds,
                        r.ckptRestoreSeconds, r.ckptBytes, cores,
                        r.ulmtMode, r.audit, r.metrics, r.vmOn,
                        r.vmPageBytes, r.vmRemapRate, r.vmRemaps,
                        r.vmTlbHits, r.vmTlbMisses, r.vmWalkCycles,
                        r.vmPagesMapped, r.tcacheOn, r.tcacheEntries,
                        r.tcacheAssoc, r.tcache});
}

void
Harness::recordAll(const std::vector<driver::RunResult> &rs)
{
    for (const driver::RunResult &r : rs)
        record(r);
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
        const Run &r = runs_[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"workload\": ";
        appendEscaped(out, r.workload);
        out += ", \"config\": ";
        appendEscaped(out, r.label);
        out += ", \"source\": ";
        appendEscaped(out, r.source);
        out += ", \"wall_seconds\": " + jsonNumber(r.wallSeconds);
        out += sim::strformat(", \"events\": %llu",
                              (unsigned long long)r.events);
        out += ", \"events_per_sec\": " +
               jsonNumber(r.wallSeconds > 0.0
                              ? static_cast<double>(r.events) /
                                    r.wallSeconds
                              : 0.0);
        out += sim::strformat(", \"sim_cycles\": %llu",
                              (unsigned long long)r.simCycles);
        // Core count only on multicore runs, so single-core benches
        // keep the established schema byte-for-byte.
        if (r.cores > 1)
            out += sim::strformat(", \"cores\": %u", r.cores);
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
    for (const Run &r : runs_)
        any_series = any_series || !r.metrics.empty();
    if (any_series) {
        out += first_metric ? "\n    " : ",\n    ";
        first_metric = false;
        out += "\"series\": [";
        bool first_run = true;
        for (const Run &r : runs_) {
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
    writeThroughputJson();
    std::printf("\n[bench] wrote %s (%.2fs total, %u jobs)\n",
                path.c_str(), total, driver::runnerJobs());
    return path;
}

void
Harness::writeThroughputJson() const
{
    // The host-side throughput summary of this bench invocation: how
    // fast the simulator itself ran each configuration.  Every bench
    // rewrites the file, so it always describes the latest invocation
    // (CI archives it next to the bench's own JSON).
    std::uint64_t total_events = 0;
    double total_wall = 0.0;
    std::string out = "{\n  \"bench\": ";
    appendEscaped(out, name_);
    out += ",\n";
    out += provenanceJson();
    out += "  \"throughput\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        const Run &r = runs_[i];
        total_events += r.events;
        total_wall += r.wallSeconds;
        out += i ? ",\n    " : "\n    ";
        out += "{\"workload\": ";
        appendEscaped(out, r.workload);
        out += ", \"config\": ";
        appendEscaped(out, r.label);
        // Self-identifying rows: a throughput archive mixes many bench
        // invocations, so each row carries its machine shape.
        out += ", \"scale\": " + jsonNumber(opt_.scale);
        out += sim::strformat(", \"cores\": %u", r.cores);
        out += ", \"ulmt_mode\": ";
        appendEscaped(out, r.ulmtMode.empty() ? "shared" : r.ulmtMode);
        out += sim::strformat(", \"events\": %llu",
                              (unsigned long long)r.events);
        out += ", \"wall_seconds\": " + jsonNumber(r.wallSeconds);
        out += ", \"events_per_sec\": " +
               jsonNumber(r.wallSeconds > 0.0
                              ? static_cast<double>(r.events) /
                                    r.wallSeconds
                              : 0.0);
        out += "}";
    }
    out += runs_.empty() ? "],\n" : "\n  ],\n";
    out += sim::strformat("  \"events_total\": %llu,\n",
                          (unsigned long long)total_events);
    out += "  \"wall_seconds_sim\": " + jsonNumber(total_wall) + ",\n";
    out += "  \"events_per_sec_overall\": " +
           jsonNumber(total_wall > 0.0
                          ? static_cast<double>(total_events) /
                                total_wall
                          : 0.0) +
           "\n}\n";

    std::string path = "BENCH_throughput.json";
    if (const char *dir = std::getenv("ULMT_BENCH_DIR")) {
        if (*dir)
            path = std::string(dir) + "/" + path;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        sim::warn("cannot write %s", path.c_str());
        return;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
}

} // namespace bench
