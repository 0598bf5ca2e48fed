#include "sim/replacement.hh"

#include <stdexcept>

namespace rigor::sim
{

TagStore::TagStore(std::uint32_t num_sets, std::uint32_t assoc,
                   ReplacementKind replacement, std::uint64_t seed)
    : _numSets(num_sets), _assoc(assoc), _replacement(replacement),
      _seed(seed), _tick(0), _rngState(seed | 1),
      _ways(static_cast<std::size_t>(num_sets) * assoc)
{
    if (num_sets == 0 || assoc == 0)
        throw std::invalid_argument(
            "TagStore: sets and associativity must be non-zero");
}

TagStore::Way *
TagStore::setBase(std::uint32_t set)
{
    if (set >= _numSets)
        throw std::out_of_range("TagStore: set index out of range");
    return &_ways[static_cast<std::size_t>(set) * _assoc];
}

const TagStore::Way *
TagStore::setBase(std::uint32_t set) const
{
    if (set >= _numSets)
        throw std::out_of_range("TagStore: set index out of range");
    return &_ways[static_cast<std::size_t>(set) * _assoc];
}

std::uint64_t
TagStore::nextRandom()
{
    // xorshift64: adequate for victim selection.
    std::uint64_t x = _rngState;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    _rngState = x;
    return x;
}

bool
TagStore::lookup(std::uint32_t set, std::uint64_t tag,
                 std::uint64_t *payload_out)
{
    Way *base = setBase(set);
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        Way &way = base[w];
        if (way.valid() && way.tag == tag) {
            if (_replacement == ReplacementKind::LRU)
                way.stamp = ++_tick;
            if (payload_out)
                *payload_out = way.payload;
            return true;
        }
    }
    return false;
}

bool
TagStore::probe(std::uint32_t set, std::uint64_t tag) const
{
    const Way *base = setBase(set);
    for (std::uint32_t w = 0; w < _assoc; ++w)
        if (base[w].valid() && base[w].tag == tag)
            return true;
    return false;
}

std::uint32_t
TagStore::victimWay(std::uint32_t set)
{
    Way *base = setBase(set);
    // Invalid ways first.
    for (std::uint32_t w = 0; w < _assoc; ++w)
        if (!base[w].valid())
            return w;

    switch (_replacement) {
      case ReplacementKind::LRU:
      case ReplacementKind::FIFO: {
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < _assoc; ++w)
            if (base[w].stamp < base[victim].stamp)
                victim = w;
        return victim;
      }
      case ReplacementKind::Random:
        return static_cast<std::uint32_t>(nextRandom() % _assoc);
    }
    throw std::logic_error("TagStore::victimWay: unreachable");
}

bool
TagStore::insert(std::uint32_t set, std::uint64_t tag,
                 std::uint64_t payload)
{
    Way *base = setBase(set);

    // Refill of an already-present tag just refreshes the payload.
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (base[w].valid() && base[w].tag == tag) {
            base[w].payload = payload;
            base[w].stamp = ++_tick;
            return false;
        }
    }

    const std::uint32_t victim = victimWay(set);
    Way &way = base[victim];
    const bool evicted = way.valid();
    way.tag = tag;
    way.payload = payload;
    way.stamp = ++_tick;
    return evicted;
}

void
TagStore::flush()
{
    for (Way &way : _ways)
        way = Way{};
    _tick = 0;
    _rngState = _seed | 1;
}

} // namespace rigor::sim
