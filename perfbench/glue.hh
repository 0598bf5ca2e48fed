/**
 * @file
 * The campaign benchmark's own measuring glue: percentiles with their
 * sample counts, in-memory spans with per-layer self time, Spearman
 * against the published Table 9, peak resident memory across the
 * process and its reaped children, and a flat JSON line writer.
 *
 * None of this instruments the library: every span is opened and
 * closed by the benchmark around a call into a layer's public API.
 */

#ifndef RIGOR_PERFBENCH_GLUE_HH
#define RIGOR_PERFBENCH_GLUE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "doe/ranking.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** A nearest-rank percentile and the samples behind it. */
struct Percentile
{
    double value = 0.0;
    /** Samples the percentile was taken over. */
    std::size_t samples = 0;
    /** Samples strictly above the percentile's rank. */
    std::size_t beyond = 0;
};

/**
 * Nearest-rank percentile @p q (0 < q <= 100) of @p values: the
 * ceil(q/100 * n)-th smallest value. Throws on an empty input or a q
 * outside (0, 100].
 */
Percentile percentile(std::vector<double> values, double q);

/** One closed span: a call into a layer, timed by the benchmark. */
struct Span
{
    std::string name;
    /** Identifier shared by every span of one cell. */
    std::uint64_t cell = 0;
    /** Index of the enclosing span in the recorder; -1 for a root. */
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
};

/**
 * Keeps spans in memory for the traced run. A disabled recorder reads
 * no clock and stores nothing, so the untraced twin of a traced pass
 * runs the same calls without the tracing cost.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : _enabled(enabled) {}

    /** Open a span; returns its index (-1 when disabled). */
    int begin(std::string name, std::uint64_t cell, int parent);
    /** Close the span opened as @p index (no-op for -1). */
    void end(int index);

    const std::vector<Span> &spans() const { return _spans; }

  private:
    bool _enabled;
    Clock::time_point _origin = Clock::now();
    std::vector<Span> _spans;
};

/** RAII span around one scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, std::string name,
               std::uint64_t cell, int parent)
        : _recorder(recorder),
          _index(recorder.begin(std::move(name), cell, parent))
    {
    }
    ~ScopedSpan() { _recorder.end(_index); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return _index; }

  private:
    SpanRecorder &_recorder;
    int _index;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (overlapping children are
 * merged, and children are clipped to the parent's interval).
 */
std::vector<double> selfTimes(std::span<const Span> spans);

/**
 * Self time summed per layer, the layer being the span name up to its
 * first '.'. Root spans (the cells) are charged to "unattributed":
 * time inside a cell that no layer call covers.
 */
std::map<std::string, double> selfTimeByLayer(std::span<const Span> spans);

/**
 * Spearman correlation between a measured rank table's sums of ranks
 * and the published Table 9, factors matched by name.
 */
double table9Spearman(std::span<const rigor::doe::FactorRankSummary> summaries);

/** Peak resident set sizes from getrusage, in MiB. */
struct PeakRss
{
    double selfMb = 0.0;
    /** Largest peak among waited-for descendants. */
    double childrenMb = 0.0;

    double peakMb() const
    {
        return selfMb > childrenMb ? selfMb : childrenMb;
    }
};

/** Current peak RSS of this process and of its reaped children. */
PeakRss peakRss();

/** Builds one flat JSON object, keys in insertion order. */
class JsonLine
{
  public:
    JsonLine &add(const std::string &key, double value);
    JsonLine &add(const std::string &key, std::uint64_t value);
    JsonLine &add(const std::string &key, bool value);
    JsonLine &add(const std::string &key, const std::string &value);
    JsonLine &add(const std::string &key, const char *value)
    {
        return add(key, std::string(value));
    }
    /** Insert @p json verbatim as the value (a nested object). */
    JsonLine &addRaw(const std::string &key, const std::string &json);

    std::string str() const { return "{" + _body + "}"; }

  private:
    void key(const std::string &key);
    std::string _body;
};

} // namespace perfbench

#endif // RIGOR_PERFBENCH_GLUE_HH
