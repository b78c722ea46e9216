#include "driver/report.hh"

#include <cstdio>
#include <numeric>

#include "ckpt/format.hh"
#include "driver/system.hh"
#include "sim/logging.hh"

namespace driver {

void
TextTable::addRow(std::vector<std::string> cells)
{
    SIM_ASSERT(cells.size() == headers_.size(),
               "row width %zu != header width %zu", cells.size(),
               headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto render_row = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += row[c];
            line.append(width[c] - row[c].size() + 2, ' ');
        }
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        return line + "\n";
    };

    std::string out = render_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        total += width[c] + 2;
    // A table with no columns has total == 0; avoid the size_t
    // underflow in total - 2.
    out.append(total >= 2 ? total - 2 : 0, '-');
    out += "\n";
    for (const auto &row : rows_)
        out += render_row(row);
    return out;
}

void
TextTable::print(const std::string &title) const
{
    std::printf("\n== %s ==\n%s", title.c_str(), render().c_str());
    std::fflush(stdout);
}

std::string
fmt(double v, int digits)
{
    return sim::strformat("%.*f", digits, v);
}

std::string
fmtPercent(double v, int digits)
{
    return sim::strformat("%.*f%%", digits, v * 100.0);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

std::string
resultFingerprint(const RunResult &r)
{
    const std::uint64_t hash =
        ckpt::fnv1a64(r.missStream.data(),
                      r.missStream.size() * sizeof(sim::Addr));
    std::string out = sim::strformat(
        "workload=%s label=%s eventsExecuted=%llu missStream.size=%zu "
        "missStream.hash=%llu ",
        r.workload.c_str(), r.label.c_str(),
        (unsigned long long)r.eventsExecuted, r.missStream.size(),
        (unsigned long long)hash);
    for (const sim::StatLeaf &l : r.leaves)
        out += l.name + "=" + l.value + " ";
    return out;
}

} // namespace driver
