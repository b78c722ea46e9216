#include "sim/stat_registry.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/logging.hh"

namespace sim {

void
StatRegistry::insert(Entry e)
{
    if (e.name.empty())
        throw std::invalid_argument(
            "stat registry: empty statistic name");
    if (!names_.insert(e.name).second)
        throw std::invalid_argument(
            "stat registry: duplicate statistic name '" + e.name +
            "'");
    e.passive = passive_;
    entries_.push_back(std::move(e));
}

void
StatRegistry::addCounter(const std::string &name,
                         const std::uint64_t *value)
{
    SIM_ASSERT(value != nullptr, "null counter '%s'", name.c_str());
    Entry e;
    e.name = name;
    e.kind = Kind::Counter;
    e.counter = value;
    insert(std::move(e));
}

void
StatRegistry::addGauge(const std::string &name,
                       std::function<double()> fn)
{
    SIM_ASSERT(fn != nullptr, "null gauge '%s'", name.c_str());
    Entry e;
    e.name = name;
    e.kind = Kind::Gauge;
    e.gauge = std::move(fn);
    insert(std::move(e));
}

void
StatRegistry::addSample(const std::string &name, const SampleStat *s)
{
    SIM_ASSERT(s != nullptr, "null sample '%s'", name.c_str());
    Entry e;
    e.name = name;
    e.kind = Kind::Sample;
    e.sample = s;
    insert(std::move(e));
}

void
StatRegistry::addHistogram(const std::string &name,
                           const BinnedHistogram *h)
{
    SIM_ASSERT(h != nullptr, "null histogram '%s'", name.c_str());
    Entry e;
    e.name = name;
    e.kind = Kind::Histogram;
    e.hist = h;
    insert(std::move(e));
}

void
StatRegistry::visit(StatVisitor &v) const
{
    visit(v, [](const std::string &) { return true; });
}

std::vector<const StatRegistry::Entry *>
StatRegistry::sorted(const std::function<bool(const Entry &)> &keep) const
{
    std::vector<const Entry *> order;
    order.reserve(entries_.size());
    for (const Entry &e : entries_) {
        if (keep(e))
            order.push_back(&e);
    }
    std::sort(order.begin(), order.end(),
              [](const Entry *a, const Entry *b) {
                  return a->name < b->name;
              });
    return order;
}

void
StatRegistry::visit(
    StatVisitor &v,
    const std::function<bool(const std::string &)> &keep) const
{
    for (const Entry *e :
         sorted([&keep](const Entry &e) { return keep(e.name); })) {
        switch (e->kind) {
          case Kind::Counter:
            v.counter(e->name, *e->counter);
            break;
          case Kind::Gauge:
            v.gauge(e->name, e->gauge());
            break;
          case Kind::Sample:
            v.sampleStat(e->name, *e->sample);
            break;
          case Kind::Histogram:
            v.histogram(e->name, *e->hist);
            break;
        }
    }
}

std::vector<StatLeaf>
StatRegistry::leaves() const
{
    std::vector<StatLeaf> out;
    for (const Entry *e :
         sorted([](const Entry &e) { return !e.passive; })) {
        std::string v;
        switch (e->kind) {
          case Kind::Counter:
            v = std::to_string(*e->counter);
            break;
          case Kind::Gauge:
            v = strformat("%a", e->gauge());
            break;
          case Kind::Sample:
            v = strformat("(%llu,%a,%a,%a)",
                          (unsigned long long)e->sample->count(),
                          e->sample->sum(), e->sample->min(),
                          e->sample->max());
            break;
          case Kind::Histogram:
            for (std::size_t i = 0; i < e->hist->numBins(); ++i)
                v += std::to_string(e->hist->binCount(i)) + ",";
            v += "below=" + std::to_string(e->hist->below());
            break;
        }
        out.push_back({e->name, std::move(v)});
    }
    return out;
}

namespace {

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strformat("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double v)
{
    if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0)
        return "null";  // JSON has no inf/nan
    return strformat("%.17g", v);
}

/** Renders the registry as one JSON object keyed by dotted path. */
class JsonDumper : public StatVisitor
{
  public:
    void
    counter(const std::string &name, std::uint64_t value) override
    {
        key(name);
        out_ += strformat("%llu", (unsigned long long)value);
    }

    void
    gauge(const std::string &name, double value) override
    {
        key(name);
        out_ += jsonNumber(value);
    }

    void
    sampleStat(const std::string &name, const SampleStat &s) override
    {
        key(name);
        out_ += strformat("{\"count\": %llu",
                          (unsigned long long)s.count());
        out_ += ", \"sum\": " + jsonNumber(s.sum());
        out_ += ", \"min\": " + jsonNumber(s.min());
        out_ += ", \"max\": " + jsonNumber(s.max());
        out_ += ", \"mean\": " + jsonNumber(s.mean());
        out_ += ", \"stddev\": " + jsonNumber(s.stddev()) + "}";
    }

    void
    histogram(const std::string &name,
              const BinnedHistogram &h) override
    {
        key(name);
        out_ += "{\"edges\": [";
        for (std::size_t i = 0; i < h.numBins(); ++i) {
            if (i)
                out_ += ", ";
            out_ += jsonNumber(h.binEdge(i));
        }
        out_ += "], \"counts\": [";
        for (std::size_t i = 0; i < h.numBins(); ++i) {
            if (i)
                out_ += ", ";
            out_ += strformat("%llu",
                              (unsigned long long)h.binCount(i));
        }
        out_ += strformat("], \"total\": %llu, \"below\": %llu",
                          (unsigned long long)h.total(),
                          (unsigned long long)h.below());
        out_ += ", \"p50\": " + jsonNumber(h.p50());
        out_ += ", \"p95\": " + jsonNumber(h.p95()) + "}";
    }

    std::string
    take()
    {
        return "{\n" + std::move(out_) + "\n}\n";
    }

  private:
    void
    key(const std::string &name)
    {
        if (!out_.empty())
            out_ += ",\n";
        out_ += "  " + jsonQuote(name) + ": ";
    }

    std::string out_;
};

} // namespace

std::string
StatRegistry::dumpJson() const
{
    JsonDumper d;
    visit(d);
    return d.take();
}

std::string
StatRegistry::dumpJson(
    const std::function<bool(const std::string &)> &keep) const
{
    JsonDumper d;
    visit(d, keep);
    return d.take();
}

} // namespace sim
