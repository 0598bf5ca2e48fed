/**
 * @file
 * One worker's trace replay slot.
 *
 * The generator's stream depends only on the workload profile and the
 * stream length — never on the processor configuration — and a
 * screen simulates one workload under every design row, back to back
 * on each worker (SimJobQueue deals contiguous index ranges). So
 * SimulationEngine::simulateJob keeps the last stream it generated,
 * packed (trace/packed_trace.hh), in a thread_local ReplaySlot and
 * replays it while consecutive jobs share the stream. Replay is
 * bit-identical to generation: a cell's response does not depend on
 * whether its stream was replayed or generated.
 *
 * Because the slot is thread_local, the same code serves the engine's
 * worker threads, forked sandbox children, and remote worker threads,
 * with no sharing and no locks.
 */

#ifndef RIGOR_EXEC_REPLAY_SLOT_HH
#define RIGOR_EXEC_REPLAY_SLOT_HH

#include <cstdint>

#include "exec/engine.hh"
#include "trace/packed_trace.hh"
#include "trace/workload_profile.hh"

namespace rigor::exec::detail
{

/**
 * Longest stream a slot holds (32 MiB of packed records). Longer
 * streams keep the fused generator.
 */
constexpr std::uint64_t kReplayMaxInstructions = std::uint64_t{1} << 20;

/** Holds one packed stream, keyed on (profile, length). */
class ReplaySlot
{
  public:
    explicit ReplaySlot(
        std::uint64_t max_instructions = kReplayMaxInstructions)
        : _maxInstructions(max_instructions)
    {
    }

    /**
     * The stream of @p length instructions of @p profile, or null
     * when it is longer than the slot holds. A hit returns the held
     * trace; a miss generates the stream into the slot first, polling
     * @p ctx's deadline as it goes. A miss that throws leaves the
     * slot empty.
     */
    const trace::PackedTrace *acquire(const trace::WorkloadProfile &profile,
                                      std::uint64_t length,
                                      const AttemptContext &ctx);

    /** Calls served from the held trace. */
    std::uint64_t hits() const { return _hits; }
    /** Calls that generated the stream into the slot. */
    std::uint64_t misses() const { return _misses; }

  private:
    std::uint64_t _maxInstructions;
    bool _held = false;
    trace::WorkloadProfile _profile;
    std::uint64_t _length = 0;
    trace::PackedTrace _trace;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

/**
 * The body of SimulationEngine::simulateJob, over an explicit slot:
 * replays the job's stream from @p slot when it fits, else generates
 * it fused, and polls @p ctx's deadline every few thousand
 * instructions of generation and simulation alike.
 */
double simulateJobWith(ReplaySlot &slot, const SimJob &job,
                       const AttemptContext &ctx);

} // namespace rigor::exec::detail

#endif // RIGOR_EXEC_REPLAY_SLOT_HH
