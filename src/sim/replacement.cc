#include "sim/replacement.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rigor::sim
{

struct TagStore::Retired
{
    std::vector<std::vector<Way>> arrays;
    /** No way in any retired array is stamped above this. */
    std::uint64_t highWater = 0;

    /** The smallest array of at least @p ways ways, else the largest
     *  grown to @p ways, else a new one. */
    std::vector<Way> take(std::size_t ways)
    {
        auto fit = arrays.end();
        auto largest = arrays.end();
        for (auto it = arrays.begin(); it != arrays.end(); ++it) {
            if (it->size() >= ways &&
                (fit == arrays.end() || it->size() < fit->size()))
                fit = it;
            if (largest == arrays.end() || it->size() > largest->size())
                largest = it;
        }
        const auto pick = fit != arrays.end() ? fit : largest;
        std::vector<Way> array;
        if (pick != arrays.end()) {
            array = std::move(*pick);
            arrays.erase(pick);
        }
        if (array.size() < ways)
            array.resize(ways);
        return array;
    }

    /** Keep @p array; past retiredArrays, free the smallest. */
    void give(std::vector<Way> array, std::uint64_t tick)
    {
        highWater = std::max(highWater, tick);
        arrays.push_back(std::move(array));
        if (arrays.size() > retiredArrays)
            arrays.erase(std::min_element(
                arrays.begin(), arrays.end(),
                [](const auto &a, const auto &b) {
                    return a.size() < b.size();
                }));
    }
};

TagStore::Retired &
TagStore::retired()
{
    thread_local Retired list;
    return list;
}

std::size_t
TagStore::retiredOnThisThread()
{
    return retired().arrays.size();
}

TagStore::TagStore(std::uint32_t num_sets, std::uint32_t assoc,
                   ReplacementKind replacement, std::uint64_t seed)
    : _numSets(num_sets), _assoc(assoc), _replacement(replacement),
      _seed(seed), _base(retired().highWater), _tick(_base),
      _rngState(seed | 1)
{
    if (num_sets == 0 || assoc == 0)
        throw std::invalid_argument(
            "TagStore: sets and associativity must be non-zero");
    _ways = retired().take(static_cast<std::size_t>(num_sets) * assoc);
}

TagStore::~TagStore()
{
    retired().give(std::move(_ways), _tick);
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
        if (valid(way) && way.tag == tag) {
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
        if (valid(base[w]) && base[w].tag == tag)
            return true;
    return false;
}

std::uint32_t
TagStore::victimWay(std::uint32_t set)
{
    Way *base = setBase(set);
    // Invalid ways first.
    for (std::uint32_t w = 0; w < _assoc; ++w)
        if (!valid(base[w]))
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
        if (valid(base[w]) && base[w].tag == tag) {
            base[w].payload = payload;
            base[w].stamp = ++_tick;
            return false;
        }
    }

    const std::uint32_t victim = victimWay(set);
    Way &way = base[victim];
    const bool evicted = valid(way);
    way.tag = tag;
    way.payload = payload;
    way.stamp = ++_tick;
    return evicted;
}

void
TagStore::flush()
{
    _base = _tick;
    _rngState = _seed | 1;
}

} // namespace rigor::sim
