/**
 * @file
 * Plain-text reporting helpers used by the benchmark binaries to print
 * the paper's tables and figures as aligned ASCII tables.
 */

#ifndef DRIVER_REPORT_HH
#define DRIVER_REPORT_HH

#include <string>
#include <vector>

namespace driver {

struct RunResult;

/** A simple column-aligned text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    void addRow(std::vector<std::string> cells);

    /** Render with a title banner to stdout. */
    void print(const std::string &title) const;

    /** Render to a string (tests). */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits decimals. */
std::string fmt(double v, int digits = 2);

/** Format a percentage (0.37 -> "37.0%"). */
std::string fmtPercent(double v, int digits = 1);

/** Geometric-mean-free average of a vector (arithmetic mean). */
double mean(const std::vector<double> &v);

/**
 * Serialize the deterministic outcome of a run into one string: the
 * workload and config label, the executed-event count, a hash of the
 * recorded miss stream and every non-passive registry leaf
 * (RunResult::leaves; samples and gauges in exact hex-float form).
 * Two runs of the same (app, config, seed) must produce byte-identical
 * fingerprints regardless of worker count, and a checkpoint-restored
 * run must match its straight twin -- the determinism regression
 * tests and golden comparisons rely on this.  Host-side timing and
 * passive observability (audit, checker, sampler) are excluded.
 */
std::string resultFingerprint(const RunResult &r);

} // namespace driver

#endif // DRIVER_REPORT_HH
