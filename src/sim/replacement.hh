/**
 * @file
 * Set-associative tag store with pluggable replacement.
 *
 * Shared by the caches, the TLBs, and the BTB: each is a set of sets
 * of (tag, payload) ways with LRU / FIFO / Random victim selection.
 */

#ifndef RIGOR_SIM_REPLACEMENT_HH
#define RIGOR_SIM_REPLACEMENT_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"

namespace rigor::sim
{

/**
 * Tag store of numSets x assoc ways. Payload is a single uint64 per
 * way (the BTB stores a branch target there; caches ignore it).
 */
class TagStore
{
  public:
    /**
     * @param num_sets number of sets (power of two)
     * @param assoc ways per set (already resolved; not 0)
     * @param replacement victim-selection policy
     * @param seed PRNG seed for the Random policy
     */
    TagStore(std::uint32_t num_sets, std::uint32_t assoc,
             ReplacementKind replacement, std::uint64_t seed = 0x9e3779b9);

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
     * state (LRU clock, Random PRNG). A flushed store behaves
     * bit-identically to a freshly constructed one.
     */
    void flush();

  private:
    /** One way; valid once stamped (every insert stamps ++_tick,
     *  which is at least 1). */
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t payload = 0;
        std::uint64_t stamp = 0;

        bool valid() const { return stamp != 0; }
    };
    static_assert(sizeof(Way) == 24, "a way is three words");

    std::uint32_t _numSets;
    std::uint32_t _assoc;
    ReplacementKind _replacement;
    std::uint64_t _seed;
    std::uint64_t _tick;
    std::uint64_t _rngState;
    std::vector<Way> _ways;

    Way *setBase(std::uint32_t set);
    const Way *setBase(std::uint32_t set) const;
    std::uint32_t victimWay(std::uint32_t set);
    std::uint64_t nextRandom();
};

} // namespace rigor::sim

#endif // RIGOR_SIM_REPLACEMENT_HH
