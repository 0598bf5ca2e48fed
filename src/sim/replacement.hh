/**
 * @file
 * Set-associative tag store with pluggable replacement.
 *
 * Shared by the caches, the TLBs, and the BTB: each is a set of sets
 * of (tag, payload) ways with LRU / FIFO / Random victim selection.
 */

#ifndef RIGOR_SIM_REPLACEMENT_HH
#define RIGOR_SIM_REPLACEMENT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/config.hh"

namespace rigor::sim
{

/**
 * Tag store of numSets x assoc ways. Payload is a single uint64 per
 * way (the BTB stores a branch target there; caches ignore it).
 *
 * Validity is an epoch: every insert (and every LRU hit) stamps the
 * way with ++tick, and a way is valid iff its stamp is above the
 * store's base. flush() just moves the base up to the tick, so it is
 * O(1) and writes no way.
 *
 * That makes any array of ways usable as long as its stamps are at
 * or below the base. A destroyed store therefore hands its array to
 * a thread-local list of retired arrays (at most retiredArrays of
 * them; past that the smallest is freed), and a new store takes the
 * smallest retired array that fits, else grows the largest, else
 * allocates; its base and tick start at the thread's highest tick
 * so far, so every way the array still holds reads as invalid.
 * Arrays never shrink (a later grow would zero-fill the tail again);
 * a store uses the first numSets x assoc ways of its array. Building
 * a core thus costs O(1) per store once the thread has built one.
 *
 * Results do not depend on the array a store got: victim choice
 * takes invalid ways first, LRU and FIFO compare stamps only among
 * valid ways (whose relative order is the same at any base), and
 * Random draws from the store's own seeded PRNG.
 */
class TagStore
{
  public:
    /** Retired way arrays kept per thread. */
    static constexpr std::size_t retiredArrays = 16;

    /**
     * @param num_sets number of sets (power of two)
     * @param assoc ways per set (already resolved; not 0)
     * @param replacement victim-selection policy
     * @param seed PRNG seed for the Random policy
     */
    TagStore(std::uint32_t num_sets, std::uint32_t assoc,
             ReplacementKind replacement, std::uint64_t seed = 0x9e3779b9);

    /** Hands the way array to this thread's retired list. */
    ~TagStore();

    TagStore(const TagStore &) = delete;
    TagStore &operator=(const TagStore &) = delete;

    /** Retired arrays this thread holds now. */
    static std::size_t retiredOnThisThread();

    std::uint32_t numSets() const { return _numSets; }
    std::uint32_t assoc() const { return _assoc; }

    /**
     * Look up @p tag in @p set, updating replacement state on a hit.
     *
     * @param payload_out when non-null and the lookup hits, receives
     *        the way's payload
     * @return true on hit
     */
    bool lookup(std::uint32_t set, std::uint64_t tag,
                std::uint64_t *payload_out = nullptr);

    /** Probe without updating replacement state. */
    bool probe(std::uint32_t set, std::uint64_t tag) const;

    /**
     * Insert @p tag into @p set, evicting a victim if necessary.
     *
     * @return true when a valid block was evicted
     */
    bool insert(std::uint32_t set, std::uint64_t tag,
                std::uint64_t payload = 0);

    /**
     * Invalidate everything and restore construction-time replacement
     * state (Random PRNG; the LRU clock keeps counting, which only
     * orders valid ways). A flushed store behaves bit-identically to
     * a freshly constructed one.
     */
    void flush();

  private:
    /** One way; valid iff stamp > the owning store's _base. */
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t payload = 0;
        std::uint64_t stamp = 0;
    };
    static_assert(sizeof(Way) == 24, "a way is three words");

    /** This thread's retired arrays and highest tick (replacement.cc). */
    struct Retired;
    static Retired &retired();

    std::uint32_t _numSets;
    std::uint32_t _assoc;
    ReplacementKind _replacement;
    std::uint64_t _seed;
    /** Ways stamped at or below this are invalid. */
    std::uint64_t _base;
    std::uint64_t _tick;
    std::uint64_t _rngState;
    /** At least numSets x assoc ways; only those are used. */
    std::vector<Way> _ways;

    bool valid(const Way &way) const { return way.stamp > _base; }
    Way *setBase(std::uint32_t set);
    const Way *setBase(std::uint32_t set) const;
    std::uint32_t victimWay(std::uint32_t set);
    std::uint64_t nextRandom();
};

} // namespace rigor::sim

#endif // RIGOR_SIM_REPLACEMENT_HH
