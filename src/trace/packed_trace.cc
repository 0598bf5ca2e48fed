#include "trace/packed_trace.hh"

#include <stdexcept>

namespace rigor::trace
{

void
PackedTrace::clear()
{
    _records.clear();
    _retAddrs.clear();
}

void
PackedTrace::reserve(std::uint64_t instructions)
{
    _records.reserve(instructions);
}

void
PackedTrace::append(const Instruction &inst)
{
    const bool mem = isMemOp(inst.op);
    const bool control = isControlOp(inst.op);
    if ((!mem && inst.memAddr != 0) || (!control && inst.target != 0) ||
        (inst.op != OpClass::Call && inst.retAddr != 0))
        throw std::logic_error(
            "PackedTrace: " + toString(inst.op) +
            " instruction sets an address field its op class does "
            "not own; it cannot be packed losslessly");

    _records.push_back({inst.pc, mem ? inst.memAddr : inst.target,
                        inst.valA, inst.valB, inst.op, inst.srcA,
                        inst.srcB, inst.dst, inst.taken});
    if (inst.op == OpClass::Call)
        _retAddrs.push_back(inst.retAddr);
}

bool
PackedTraceSource::next(Instruction &out)
{
    if (_pos >= _trace._records.size())
        return false;
    const PackedTrace::Record &r = _trace._records[_pos++];
    const bool mem = isMemOp(r.op);
    out.pc = r.pc;
    out.op = r.op;
    out.srcA = r.srcA;
    out.srcB = r.srcB;
    out.dst = r.dst;
    out.memAddr = mem ? r.addr : 0;
    out.taken = r.taken;
    out.target = mem ? 0 : r.addr;
    out.retAddr =
        r.op == OpClass::Call ? _trace._retAddrs[_retPos++] : 0;
    out.valA = r.valA;
    out.valB = r.valB;
    return true;
}

} // namespace rigor::trace
