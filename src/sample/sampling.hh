/**
 * @file
 * SMARTS-style systematic sampled simulation.
 *
 * Instead of one long detailed run, the stream is divided into fixed
 * sampling periods. Each period is simulated as: detailed warm-up
 * (cycles excluded), a measured sampling unit (cycles kept), and a
 * functional fast-forward to the next period boundary that keeps the
 * caches, TLBs, BTB, and branch predictor warm without paying for
 * cycle accounting. Per-unit CPIs feed a CLT (Student-t) confidence
 * interval, so every sampled response comes with a reported error —
 * the statistical-rigor posture of the source paper applied to the
 * simulator's own throughput problem (ROADMAP item 2).
 */

#ifndef RIGOR_SAMPLE_SAMPLING_HH
#define RIGOR_SAMPLE_SAMPLING_HH

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>

#include "sim/core.hh"
#include "trace/generator.hh"

namespace rigor::sample
{

/**
 * Sampling schedule and reporting targets. Kept trivially copyable:
 * the process-isolation backend ships it to sandbox workers as a pod.
 */
struct SamplingOptions
{
    /** Off by default: a disabled options block means a full run. */
    bool enabled = false;
    /** Detailed instructions measured per sampling unit. */
    std::uint64_t unitInstructions = 1000;
    /** Detailed warm-up instructions before each unit (cycles
     *  excluded from the unit's CPI). */
    std::uint64_t warmupInstructions = 2000;
    /** Period length: one unit is taken every this many
     *  instructions; the remainder is functional fast-forward. */
    std::uint64_t intervalInstructions = 10000;
    /** Reporting target: CI half-width / mean the campaign aims for.
     *  Purely a target — the schedule above decides the actual
     *  error, and adaptive mode tightens the schedule to meet it. */
    double targetRelativeError = 0.05;
    /** Confidence level of the reported interval. */
    double confidence = 0.95;

    /** Throw std::invalid_argument when the schedule is malformed. */
    void validate() const;

    /**
     * Identity string of the fields that determine the response
     * ("s:u<unit>:w<warmup>:i<interval>"), or "" when disabled. Part
     * of the RunKey so sampled and full runs never share cache or
     * journal entries.
     */
    std::string id() const;
};

static_assert(std::is_trivially_copyable_v<SamplingOptions>,
              "SamplingOptions is shipped to workers as a pod");

/**
 * Result of one sampled run. Trivially copyable for the same
 * wire reason as SamplingOptions.
 */
struct SampleSummary
{
    /** Measured sampling units taken. */
    std::uint64_t units = 0;
    /** Instructions simulated in detail (warm-up + measured). */
    std::uint64_t detailedInstructions = 0;
    /** Instructions inside measured units only. */
    std::uint64_t measuredInstructions = 0;
    /** Total stream length the estimate extrapolates over. */
    std::uint64_t streamInstructions = 0;
    /** Mean per-unit CPI. */
    double cpiMean = 0.0;
    /** Sample standard deviation of the per-unit CPIs. */
    double cpiStddev = 0.0;
    /** Student-t CI half-width of the mean CPI (0 when units < 2). */
    double ciHalfWidth = 0.0;
    /** ciHalfWidth / cpiMean; the quantity compared against
     *  SamplingOptions::targetRelativeError. */
    double relativeError = 0.0;
    /** cpiMean x streamInstructions: the extrapolated total cycle
     *  count, directly comparable with a full run's measured
     *  cycles. */
    double estimatedCycles = 0.0;

    /** True when the CI is tight enough for @p target_rel_error. */
    bool meetsTarget(double target_rel_error) const
    {
        return units >= 2 && relativeError <= target_rel_error;
    }
};

static_assert(std::is_trivially_copyable_v<SampleSummary>,
              "SampleSummary is shipped to workers as a pod");

/**
 * Aggregate per-unit CPIs into a SampleSummary. Exposed separately
 * from runSampled() so the CI math is testable against golden
 * vectors.
 */
SampleSummary summarizeUnits(std::span<const double> unit_cpis,
                             std::uint64_t stream_instructions,
                             std::uint64_t detailed_instructions,
                             std::uint64_t measured_instructions,
                             double confidence);

/**
 * Run @p source through @p core under the systematic schedule of
 * @p options: per period, detailed warm-up, measured unit, functional
 * fast-forward. The core should be freshly constructed (or reset());
 * the source is consumed exactly once, in order, so any
 * trace::TraceSource works — including non-rewindable ones.
 *
 * @return the aggregated summary; throws std::invalid_argument when
 *         the options are malformed or the stream is shorter than
 *         one warm-up + unit
 */
SampleSummary runSampled(sim::SuperscalarCore &core,
                         trace::TraceSource &source,
                         const SamplingOptions &options);

} // namespace rigor::sample

#endif // RIGOR_SAMPLE_SAMPLING_HH
