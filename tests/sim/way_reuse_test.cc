// A tag store built over a retired way array, or flushed, must behave
// exactly like one built on a thread that never built one: the array
// a store gets may change how fast a core is built, never a result.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "doe/foldover.hh"
#include "doe/pb_design.hh"
#include "methodology/parameter_space.hh"
#include "sim/core.hh"
#include "sim/replacement.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"

namespace doe = rigor::doe;
namespace methodology = rigor::methodology;
namespace sim = rigor::sim;
namespace trace = rigor::trace;

namespace
{

/**
 * Drive @p store with seeded lookups, inserts and probes over a tag
 * range three times the associativity, so sets fill, hit and evict;
 * return every outcome in order.
 */
std::vector<int>
drive(sim::TagStore &store, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    const std::uint64_t tags = 3 * std::uint64_t{store.assoc()};
    std::vector<int> outcomes;
    for (int i = 0; i < 6000; ++i) {
        const auto set =
            static_cast<std::uint32_t>(rng() % store.numSets());
        const std::uint64_t tag = rng() % tags;
        std::uint64_t payload = 0;
        if (store.lookup(set, tag, &payload))
            outcomes.push_back(payload == 7 * tag ? 1 : -1);
        else
            outcomes.push_back(store.insert(set, tag, 7 * tag) ? 2 : 3);
        if (i % 5 == 0)
            outcomes.push_back(store.probe(set, rng() % tags) ? 4 : 5);
    }
    return outcomes;
}

/** drive() on a store built on a thread that never built one. */
std::vector<int>
driveOnFreshThread(std::uint32_t sets, std::uint32_t assoc,
                   sim::ReplacementKind kind, std::uint64_t seed)
{
    std::vector<int> outcomes;
    std::thread([&] {
        sim::TagStore store(sets, assoc, kind);
        outcomes = drive(store, seed);
    }).join();
    return outcomes;
}

struct Geometry
{
    std::uint32_t sets;
    std::uint32_t assoc;
};

constexpr std::array<Geometry, 3> geometries{
    {{4, 2}, {256, 4}, {1, 16}}};

constexpr std::array<sim::ReplacementKind, 3> policies{
    sim::ReplacementKind::LRU, sim::ReplacementKind::FIFO,
    sim::ReplacementKind::Random};

/** Everything a run reports: core, memory system, caches, TLBs, BTB. */
std::vector<std::uint64_t>
runResult(const sim::ProcessorConfig &config,
          const trace::WorkloadProfile &profile)
{
    trace::SyntheticTraceGenerator source(profile, 3000);
    sim::SuperscalarCore core(config);
    const sim::CoreStats s = core.run(source, 1000);
    const sim::MemorySystem &m = core.memory();
    const sim::MemorySystemStats &ms = m.stats();
    std::vector<std::uint64_t> result{
        s.instructions, s.cycles, s.branches, s.branchMispredicts,
        s.btbMisfetches, s.rasMispredicts, s.loads, s.stores,
        s.interceptedInstructions, s.warmupInstructions, s.warmupCycles,
        ms.instructionFetches, ms.dataAccesses, ms.l2Accesses,
        ms.memoryTransfers, ms.busQueueCycles, ms.instructionPrefetches,
        core.btb().stats().lookups, core.btb().stats().misses};
    for (const sim::Cache *cache : {&m.l1i(), &m.l1d(), &m.l2()}) {
        result.push_back(cache->stats().accesses);
        result.push_back(cache->stats().misses);
        result.push_back(cache->stats().evictions);
    }
    for (const sim::Tlb *tlb : {&m.itlb(), &m.dtlb()}) {
        result.push_back(tlb->stats().accesses);
        result.push_back(tlb->stats().misses);
    }
    return result;
}

} // namespace

TEST(WayReuse, StoreOverADirtyRetiredArrayMatchesAFreshThread)
{
    std::uint64_t seed = 11;
    for (const sim::ReplacementKind kind : policies) {
        for (const Geometry g : geometries) {
            ++seed;
            const std::vector<int> fresh =
                driveOnFreshThread(g.sets, g.assoc, kind, seed);
            {
                // Retire arrays of this size and larger, full of the
                // same tags with stamps above any fresh store's.
                sim::TagStore larger(2 * g.sets, g.assoc, kind);
                drive(larger, seed + 100);
                sim::TagStore same(g.sets, g.assoc, kind);
                drive(same, seed + 200);
            }
            sim::TagStore reused(g.sets, g.assoc, kind);
            EXPECT_EQ(drive(reused, seed), fresh)
                << "policy " << static_cast<int>(kind) << ", "
                << g.sets << " x " << g.assoc;
        }
    }
}

TEST(WayReuse, FlushedStoreMatchesAFreshThread)
{
    std::uint64_t seed = 51;
    for (const sim::ReplacementKind kind : policies) {
        for (const Geometry g : geometries) {
            ++seed;
            const std::vector<int> fresh =
                driveOnFreshThread(g.sets, g.assoc, kind, seed);
            sim::TagStore store(g.sets, g.assoc, kind);
            drive(store, seed + 100);
            store.flush();
            EXPECT_EQ(drive(store, seed), fresh)
                << "policy " << static_cast<int>(kind) << ", "
                << g.sets << " x " << g.assoc;
        }
    }
}

TEST(WayReuse, RetiredListStaysBounded)
{
    std::thread([] {
        {
            std::vector<std::unique_ptr<sim::TagStore>> stores;
            for (std::uint32_t k = 0; k < 3 * sim::TagStore::retiredArrays;
                 ++k)
                stores.push_back(std::make_unique<sim::TagStore>(
                    1u << (k % 7), 2, sim::ReplacementKind::LRU));
        }
        EXPECT_EQ(sim::TagStore::retiredOnThisThread(),
                  sim::TagStore::retiredArrays);
        // A new store takes one of them; its destruction returns it.
        {
            sim::TagStore store(64, 2, sim::ReplacementKind::LRU);
            EXPECT_EQ(sim::TagStore::retiredOnThisThread(),
                      sim::TagStore::retiredArrays - 1);
        }
        EXPECT_EQ(sim::TagStore::retiredOnThisThread(),
                  sim::TagStore::retiredArrays);
    }).join();
}

TEST(WayReuse, EveryFoldoverCellMatchesItsRunOnAFreshThread)
{
    // The paper's 88-row screen on two profiles, in order on this
    // thread, so every core after the first is built over the arrays
    // its predecessors retired (of other cache and TLB shapes).
    const doe::DesignMatrix design = doe::foldover(doe::pbDesign(44));
    ASSERT_EQ(design.numRows(), 88u);
    for (const char *name : {"gzip", "mcf"}) {
        const trace::WorkloadProfile &profile = trace::workloadByName(name);
        for (std::size_t r = 0; r < design.numRows(); ++r) {
            const std::vector<doe::Level> levels = design.row(r);
            const sim::ProcessorConfig config =
                methodology::configForLevels(levels);
            const std::vector<std::uint64_t> reused =
                runResult(config, profile);
            std::vector<std::uint64_t> fresh;
            std::thread([&] { fresh = runResult(config, profile); }).join();
            ASSERT_EQ(reused, fresh) << name << ", design row " << r;
        }
    }
}
