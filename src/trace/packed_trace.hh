/**
 * @file
 * Compact in-memory instruction stream for replay.
 *
 * A campaign simulates the same workload stream under every design
 * row, so a worker that keeps the stream it generated last can replay
 * it instead of generating it again. Kept as 56-byte Instructions a
 * 10^6-instruction stream would cost 56 MB; PackedTrace stores it
 * losslessly in 32 bytes per instruction:
 *
 *  - one address field holds memAddr for loads and stores and target
 *    for control ops (no instruction carries both);
 *  - call return addresses, the only other 8-byte field, live in a
 *    side vector consumed in call order.
 *
 * append() rejects an instruction that this layout cannot represent
 * (an address field the op class does not own), so a replay is always
 * field-for-field the stream that was packed.
 */

#ifndef RIGOR_TRACE_PACKED_TRACE_HH
#define RIGOR_TRACE_PACKED_TRACE_HH

#include <cstdint>
#include <vector>

#include "trace/generator.hh"
#include "trace/instruction.hh"

namespace rigor::trace
{

/** A lossless packed copy of an instruction stream. */
class PackedTrace
{
  public:
    /** Drop every record, keeping the allocated capacity. */
    void clear();

    /** Reserve room for @p instructions records. */
    void reserve(std::uint64_t instructions);

    /**
     * Pack @p inst at the end of the stream.
     * @throws std::logic_error when @p inst sets an address field its
     *         op class does not own (memAddr outside loads/stores,
     *         target outside control ops, retAddr outside calls)
     */
    void append(const Instruction &inst);

    /** Instructions stored. */
    std::uint64_t size() const { return _records.size(); }

  private:
    friend class PackedTraceSource;

    struct Record
    {
        std::uint64_t pc;
        /** memAddr of a memory op, target of a control op, else 0. */
        std::uint64_t addr;
        std::uint32_t valA;
        std::uint32_t valB;
        OpClass op;
        std::uint8_t srcA;
        std::uint8_t srcB;
        std::uint8_t dst;
        bool taken;
    };
    static_assert(sizeof(Record) == 32,
                  "a packed instruction must stay 32 bytes");

    std::vector<Record> _records;
    /** retAddr of each call, in stream order. */
    std::vector<std::uint64_t> _retAddrs;
};

/** Replays a PackedTrace (not owned; must outlive the source). */
class PackedTraceSource : public TraceSource
{
  public:
    explicit PackedTraceSource(const PackedTrace &trace)
        : _trace(trace)
    {
    }

    bool next(Instruction &out) override;

    void
    reset() override
    {
        _pos = 0;
        _retPos = 0;
    }

    std::uint64_t length() const override { return _trace.size(); }

  private:
    const PackedTrace &_trace;
    std::size_t _pos = 0;
    std::size_t _retPos = 0;
};

} // namespace rigor::trace

#endif // RIGOR_TRACE_PACKED_TRACE_HH
