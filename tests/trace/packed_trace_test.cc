#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "trace/generator.hh"
#include "trace/packed_trace.hh"
#include "trace/workloads.hh"

namespace trace = rigor::trace;

namespace
{

/** Every field of an instruction, for one comparison. */
auto
fields(const trace::Instruction &inst)
{
    return std::make_tuple(inst.pc, static_cast<int>(inst.op), inst.srcA,
                           inst.srcB, inst.dst, inst.memAddr, inst.taken,
                           inst.target, inst.retAddr, inst.valA,
                           inst.valB);
}

trace::PackedTrace
packStream(const trace::WorkloadProfile &profile, std::uint64_t n)
{
    trace::SyntheticTraceGenerator gen(profile, n);
    trace::PackedTrace packed;
    packed.reserve(n);
    trace::Instruction inst;
    while (gen.next(inst))
        packed.append(inst);
    return packed;
}

/** Replay @p packed against a fresh generator, field for field. */
void
expectReplayMatchesGenerator(const trace::WorkloadProfile &profile,
                             std::uint64_t n,
                             trace::PackedTraceSource &replay)
{
    trace::SyntheticTraceGenerator gen(profile, n);
    trace::Instruction want;
    trace::Instruction got;
    std::uint64_t i = 0;
    while (gen.next(want)) {
        ASSERT_TRUE(replay.next(got)) << profile.name << " ends at " << i;
        ASSERT_EQ(fields(want), fields(got))
            << profile.name << " diverges at instruction " << i;
        ++i;
    }
    EXPECT_FALSE(replay.next(got)) << profile.name;
    EXPECT_EQ(i, n);
}

} // namespace

TEST(PackedTrace, ReplayIsFieldForFieldTheGeneratorStream)
{
    for (const std::uint64_t n : {12000u, 40000u}) {
        for (const trace::WorkloadProfile &profile :
             trace::spec2000Workloads()) {
            const trace::PackedTrace packed = packStream(profile, n);
            ASSERT_EQ(packed.size(), n);
            trace::PackedTraceSource replay(packed);
            EXPECT_EQ(replay.length(), n);
            expectReplayMatchesGenerator(profile, n, replay);
        }
    }
}

TEST(PackedTrace, ResetReplaysFromTheStart)
{
    const trace::WorkloadProfile &profile = trace::workloadByName("gcc");
    const trace::PackedTrace packed = packStream(profile, 5000);
    trace::PackedTraceSource replay(packed);
    trace::Instruction inst;
    for (int i = 0; i < 1234; ++i)
        ASSERT_TRUE(replay.next(inst));
    replay.reset();
    expectReplayMatchesGenerator(profile, 5000, replay);
}

TEST(PackedTrace, StreamsExerciseEveryAddressField)
{
    // The lossless claim is only tested if the streams carry memory
    // addresses, control targets and call return addresses.
    const trace::PackedTrace packed =
        packStream(trace::workloadByName("vortex"), 40000);
    trace::PackedTraceSource replay(packed);
    trace::Instruction inst;
    std::uint64_t mem = 0, control = 0, calls = 0;
    while (replay.next(inst)) {
        mem += inst.memAddr != 0;
        control += inst.target != 0;
        calls += inst.retAddr != 0;
    }
    EXPECT_GT(mem, 0u);
    EXPECT_GT(control, 0u);
    EXPECT_GT(calls, 0u);
}

TEST(PackedTrace, ClearKeepsNothing)
{
    trace::PackedTrace packed =
        packStream(trace::workloadByName("mcf"), 3000);
    packed.clear();
    EXPECT_EQ(packed.size(), 0u);
    trace::PackedTraceSource replay(packed);
    trace::Instruction inst;
    EXPECT_FALSE(replay.next(inst));
}

TEST(PackedTrace, RejectsAnInstructionItCannotRepresent)
{
    trace::PackedTrace packed;

    trace::Instruction alu;
    alu.op = trace::OpClass::IntAlu;
    alu.memAddr = 0x1000;
    EXPECT_THROW(packed.append(alu), std::logic_error);

    trace::Instruction load;
    load.op = trace::OpClass::Load;
    load.memAddr = 0x1000;
    load.target = 0x2000;
    EXPECT_THROW(packed.append(load), std::logic_error);

    trace::Instruction branch;
    branch.op = trace::OpClass::Branch;
    branch.target = 0x2000;
    branch.memAddr = 0x1000;
    EXPECT_THROW(packed.append(branch), std::logic_error);

    trace::Instruction ret;
    ret.op = trace::OpClass::Return;
    ret.target = 0x2000;
    ret.retAddr = 0x3000;
    EXPECT_THROW(packed.append(ret), std::logic_error);

    EXPECT_EQ(packed.size(), 0u);

    // The representable shapes pack, including a call's return address.
    load.target = 0;
    packed.append(load);
    branch.memAddr = 0;
    packed.append(branch);
    trace::Instruction call;
    call.op = trace::OpClass::Call;
    call.taken = true;
    call.target = 0x4000;
    call.retAddr = 0x5000;
    packed.append(call);
    trace::PackedTraceSource replay(packed);
    trace::Instruction got;
    ASSERT_TRUE(replay.next(got));
    EXPECT_EQ(fields(load), fields(got));
    ASSERT_TRUE(replay.next(got));
    EXPECT_EQ(fields(branch), fields(got));
    ASSERT_TRUE(replay.next(got));
    EXPECT_EQ(fields(call), fields(got));
}
