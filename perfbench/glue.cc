#include "glue.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "methodology/published_data.hh"
#include "methodology/rank_table.hh"
#include "obs/json.hh"
#include "stats/correlation.hh"

namespace perfbench
{

Percentile
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        throw std::invalid_argument("percentile: no samples");
    if (!(q > 0.0 && q <= 100.0))
        throw std::invalid_argument("percentile: q must be in (0, 100]");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return {values[rank - 1], n, n - rank};
}

int
SpanRecorder::begin(std::string name, std::uint64_t cell, int parent)
{
    if (!_enabled)
        return -1;
    Span span;
    span.name = std::move(name);
    span.cell = cell;
    span.parent = parent;
    span.start = secondsBetween(_origin, Clock::now());
    _spans.push_back(std::move(span));
    return static_cast<int>(_spans.size() - 1);
}

void
SpanRecorder::end(int index)
{
    if (index < 0)
        return;
    _spans[static_cast<std::size_t>(index)].end =
        secondsBetween(_origin, Clock::now());
}

std::vector<double>
selfTimes(std::span<const Span> spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        if (static_cast<std::size_t>(s.parent) >= spans.size())
            throw std::invalid_argument("selfTimes: dangling parent");
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        const double lo = std::max(s.start, p.start);
        const double hi = std::min(s.end, p.end);
        if (hi > lo)
            children[static_cast<std::size_t>(s.parent)].emplace_back(lo,
                                                                      hi);
    }

    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<double, double>> &cover = children[i];
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double run_lo = 0.0;
        double run_hi = -1.0;
        for (const auto &[lo, hi] : cover) {
            if (lo > run_hi) {
                if (run_hi > run_lo)
                    covered += run_hi - run_lo;
                run_lo = lo;
                run_hi = hi;
            } else {
                run_hi = std::max(run_hi, hi);
            }
        }
        if (run_hi > run_lo)
            covered += run_hi - run_lo;
        self[i] = (spans[i].end - spans[i].start) - covered;
    }
    return self;
}

std::map<std::string, double>
selfTimeByLayer(std::span<const Span> spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string &name = spans[i].name;
        const std::string layer = spans[i].parent < 0
                                      ? "unattributed"
                                      : name.substr(0, name.find('.'));
        by_layer[layer] += self[i];
    }
    return by_layer;
}

double
table9Spearman(std::span<const rigor::doe::FactorRankSummary> summaries)
{
    const rigor::methodology::PublishedRankTable &published =
        rigor::methodology::publishedTable9();
    const std::vector<double> ours =
        rigor::methodology::sumOfRanksInOrder(summaries,
                                              published.factors);
    const std::vector<double> theirs(published.sums.begin(),
                                     published.sums.end());
    return rigor::stats::spearmanCorrelation(ours, theirs);
}

PeakRss
peakRss()
{
    // Linux reports ru_maxrss in KiB. RUSAGE_CHILDREN covers every
    // descendant this process has waited for (the sandbox workers are
    // reaped when their pool is destroyed).
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return {static_cast<double>(self.ru_maxrss) / 1024.0,
            static_cast<double>(children.ru_maxrss) / 1024.0};
}

void
JsonLine::key(const std::string &key)
{
    if (!_body.empty())
        _body += ", ";
    rigor::obs::appendJsonString(_body, key);
    _body += ": ";
}

JsonLine &
JsonLine::add(const std::string &k, double value)
{
    key(k);
    _body += rigor::obs::jsonNumber(value);
    return *this;
}

JsonLine &
JsonLine::add(const std::string &k, std::uint64_t value)
{
    key(k);
    _body += std::to_string(value);
    return *this;
}

JsonLine &
JsonLine::add(const std::string &k, bool value)
{
    key(k);
    _body += value ? "true" : "false";
    return *this;
}

JsonLine &
JsonLine::add(const std::string &k, const std::string &value)
{
    key(k);
    rigor::obs::appendJsonString(_body, value);
    return *this;
}

JsonLine &
JsonLine::addRaw(const std::string &k, const std::string &json)
{
    key(k);
    _body += json;
    return *this;
}

} // namespace perfbench
