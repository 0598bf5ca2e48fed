#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>

#include "sim/core.hh"
#include "sim/stats_report.hh"
#include "trace/vector_source.hh"

namespace sim = rigor::sim;
namespace trace = rigor::trace;

TEST(SlotAllocator, HonorsPerCycleCapacity)
{
    sim::SlotAllocator alloc(2);
    EXPECT_EQ(alloc.allocate(10, 10), 10u);
    EXPECT_EQ(alloc.allocate(10, 10), 10u);
    EXPECT_EQ(alloc.allocate(10, 10), 11u); // cycle 10 full
    EXPECT_EQ(alloc.allocate(10, 10), 11u);
    EXPECT_EQ(alloc.allocate(10, 10), 12u);
}

TEST(SlotAllocator, IndependentCycles)
{
    sim::SlotAllocator alloc(1);
    EXPECT_EQ(alloc.allocate(5, 5), 5u);
    EXPECT_EQ(alloc.allocate(100, 5), 100u);
    EXPECT_EQ(alloc.allocate(5, 5), 6u);
}

TEST(SlotAllocator, OutOfOrderRequests)
{
    sim::SlotAllocator alloc(1);
    EXPECT_EQ(alloc.allocate(50, 40), 50u);
    // An earlier-cycle request books the earlier cycle.
    EXPECT_EQ(alloc.allocate(49, 40), 49u);
    // Both booked: next request at 49 spills to 51.
    EXPECT_EQ(alloc.allocate(49, 49), 51u);
}

TEST(SlotAllocator, LongRuns)
{
    sim::SlotAllocator alloc(4);
    // Fill 1000 consecutive cycles at capacity.
    for (std::uint64_t c = 0; c < 1000; ++c)
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(alloc.allocate(c, 0), c);
    // Everything full: the next request lands at 1000.
    EXPECT_EQ(alloc.allocate(0, 0), 1000u);
}

TEST(SlotAllocator, RejectsACapacityItCannotBook)
{
    EXPECT_THROW(sim::SlotAllocator(0), std::invalid_argument);
    // The bookings count shares a word with the cycle tag: 16 bits.
    EXPECT_THROW(sim::SlotAllocator(1u << 16), std::invalid_argument);
    EXPECT_THROW(sim::SlotAllocator(~0u), std::invalid_argument);

    sim::SlotAllocator widest((1u << 16) - 1);
    for (std::uint32_t k = 0; k < (1u << 16) - 1; ++k)
        ASSERT_EQ(widest.allocate(7, 7), 7u);
    EXPECT_EQ(widest.allocate(7, 7), 8u);
}

TEST(SlotAllocator, CoreRejectsAWidthTheAllocatorCannotBook)
{
    // ProcessorConfig::validate bounds neither width from above.
    sim::ProcessorConfig wide;
    wide.machineWidth = 1u << 16;
    EXPECT_THROW(sim::SuperscalarCore{wide}, std::invalid_argument);
    sim::ProcessorConfig ported;
    ported.memPorts = 1u << 16;
    EXPECT_THROW(sim::SuperscalarCore{ported}, std::invalid_argument);
}

TEST(SlotAllocator, ResetReleasesEveryBooking)
{
    constexpr std::uint64_t lap = sim::SlotAllocator::initialRingEntries;
    sim::SlotAllocator alloc(1);
    EXPECT_EQ(alloc.allocate(0, 0), 0u);
    EXPECT_EQ(alloc.allocate(0, 0), 1u);
    EXPECT_EQ(alloc.allocate(4 * lap, 0), 4 * lap); // grows the ring
    EXPECT_GT(alloc.ringEntries(), lap);
    alloc.reset();
    EXPECT_EQ(alloc.ringEntries(), lap);
    EXPECT_EQ(alloc.allocate(0, 0), 0u);
    // Once the floor passes cycle 0, the entry one lap later is a
    // different cycle, not a booking, and needs no larger ring.
    EXPECT_EQ(alloc.allocate(lap, 1), lap);
    EXPECT_EQ(alloc.ringEntries(), lap);
    // Cycle lap + 1 is a full lap above the floor: the ring grows and
    // keeps the booking at lap.
    EXPECT_EQ(alloc.allocate(lap, 1), lap + 1);
    EXPECT_EQ(alloc.ringEntries(), 2 * lap);
    EXPECT_EQ(alloc.allocate(lap, 1), lap + 2);
}

TEST(SlotAllocator, RejectsARequestBelowTheLiveWindow)
{
    sim::SlotAllocator alloc(2);
    EXPECT_EQ(alloc.allocate(10, 8), 10u);
    // Below its own floor.
    EXPECT_THROW(alloc.allocate(7, 8), std::logic_error);
    // A floor that moved back.
    EXPECT_THROW(alloc.allocate(7, 7), std::logic_error);
    // A refused request books nothing.
    EXPECT_EQ(alloc.allocate(10, 8), 10u);
    EXPECT_EQ(alloc.allocate(10, 8), 11u);
    alloc.reset();
    EXPECT_EQ(alloc.allocate(0, 0), 0u);
}

TEST(SlotAllocator, MatchesAReferenceModelUnderRandomRequests)
{
    // Reference: a map from cycle to bookings, searched linearly.
    constexpr std::uint64_t lap = sim::SlotAllocator::initialRingEntries;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        std::mt19937_64 rng(seed);
        const auto capacity = static_cast<std::uint32_t>(1 + seed % 8);
        sim::SlotAllocator alloc(capacity);
        std::map<std::uint64_t, std::uint32_t> model;
        std::uint64_t floor = rng() % 100;
        std::size_t peak = alloc.ringEntries();
        constexpr int ops = 6000;
        for (int op = 0; op < ops; ++op) {
            // Mostly a short window near the floor, which fills to
            // capacity, and sometimes a whole number of laps above
            // it, where a ring too small for the spread would alias
            // a full cycle; the far window widens to 64 laps.
            const std::uint64_t roll = rng() % 100;
            const std::uint64_t laps = 1 + op * 64 / ops;
            const std::uint64_t spread =
                roll < 70   ? rng() % 16
                : roll < 85 ? rng() % lap
                            : (rng() % laps) * lap + rng() % 16;
            const std::uint64_t earliest = floor + spread;
            std::uint64_t expected = earliest;
            while (model[expected] >= capacity)
                ++expected;
            ++model[expected];
            ASSERT_EQ(alloc.allocate(earliest, floor), expected)
                << "seed " << seed << ", op " << op;
            peak = std::max(peak, alloc.ringEntries());
            if (rng() % 2 == 0)
                floor += rng() % 4;
            // Dead cycles drop out of the model as well.
            model.erase(model.begin(), model.lower_bound(floor));
        }
        EXPECT_GT(peak, lap) << "seed " << seed;
    }
}

TEST(StatsReport, MentionsAllSections)
{
    // Run a tiny trace so the report has real numbers.
    std::vector<trace::Instruction> v(50);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i].pc = 0x1000 + 4 * i;
        v[i].op = i % 7 == 0 ? trace::OpClass::Load
                             : trace::OpClass::IntAlu;
        v[i].memAddr = 0x20000 + i * 64;
        v[i].dst = 1;
    }
    trace::VectorTraceSource src(v);
    sim::SuperscalarCore core{sim::ProcessorConfig{}};
    const sim::CoreStats stats = core.run(src);
    const std::string report = sim::formatRunReport(core, stats);
    EXPECT_NE(report.find("IPC"), std::string::npos);
    EXPECT_NE(report.find("l1d"), std::string::npos);
    EXPECT_NE(report.find("itlb"), std::string::npos);
    EXPECT_NE(report.find("int-alu"), std::string::npos);
    EXPECT_NE(report.find("instructions: 50"), std::string::npos);
}

TEST(StatsReport, JsonVariantCarriesTheSameRun)
{
    std::vector<trace::Instruction> v(50);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i].pc = 0x1000 + 4 * i;
        v[i].op = i % 7 == 0 ? trace::OpClass::Load
                             : trace::OpClass::IntAlu;
        v[i].memAddr = 0x20000 + i * 64;
        v[i].dst = 1;
    }
    trace::VectorTraceSource src(v);
    sim::SuperscalarCore core{sim::ProcessorConfig{}};
    const sim::CoreStats stats = core.run(src);
    const std::string json = sim::formatRunReportJson(core, stats);
    // Single-line JSON object with stable snake_case keys.
    EXPECT_EQ(json.find('\n'), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"instructions\":50"), std::string::npos);
    EXPECT_NE(json.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(json.find("\"caches\":{"), std::string::npos);
    EXPECT_NE(json.find("\"l1d\":{"), std::string::npos);
    EXPECT_NE(json.find("\"tlbs\":{"), std::string::npos);
    EXPECT_NE(json.find("\"functional_units\":{"),
              std::string::npos);
    EXPECT_NE(json.find("\"loads\":"), std::string::npos);
}

TEST(CoreStats, MeasuredWindowAccessors)
{
    sim::CoreStats stats;
    stats.instructions = 100;
    stats.cycles = 500;
    stats.warmupInstructions = 40;
    stats.warmupCycles = 260;
    EXPECT_EQ(stats.measuredInstructions(), 60u);
    EXPECT_EQ(stats.measuredCycles(), 240u);
    EXPECT_DOUBLE_EQ(stats.ipc(), 0.2);
}

TEST(CoreStats, WarmupSplitsRunDeterministically)
{
    // run(n_warmup) must produce the same totals as run(0), with the
    // warmup markers set at the boundary.
    std::vector<trace::Instruction> v(200);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i].pc = 0x1000 + 4 * (i % 32);
        v[i].op = trace::OpClass::IntAlu;
        v[i].srcA = 1;
        v[i].dst = 1;
    }
    trace::VectorTraceSource src1(v);
    sim::SuperscalarCore core1{sim::ProcessorConfig{}};
    const sim::CoreStats plain = core1.run(src1);

    trace::VectorTraceSource src2(v);
    sim::SuperscalarCore core2{sim::ProcessorConfig{}};
    const sim::CoreStats warmed = core2.run(src2, 100);

    EXPECT_EQ(plain.cycles, warmed.cycles);
    EXPECT_EQ(warmed.warmupInstructions, 100u);
    EXPECT_GT(warmed.warmupCycles, 0u);
    EXPECT_LT(warmed.warmupCycles, warmed.cycles);
}
