#include "exec/fault_policy.hh"

#include <cstdio>

namespace rigor::exec
{

std::string
toString(FailureKind kind)
{
    switch (kind) {
      case FailureKind::Transient:
        return "transient";
      case FailureKind::Permanent:
        return "permanent";
      case FailureKind::Timeout:
        return "timeout";
      case FailureKind::Resource:
        return "resource";
    }
    return "?";
}

FailureKind
classifyCurrentFault()
{
    try {
        throw;
    } catch (const TransientFault &) {
        return FailureKind::Transient;
    } catch (const DeadlineExceeded &) {
        return FailureKind::Timeout;
    } catch (const ResourceExhausted &) {
        return FailureKind::Resource;
    } catch (...) {
        return FailureKind::Permanent;
    }
}

std::chrono::milliseconds
FaultPolicy::backoffFor(unsigned k) const
{
    if (backoffBase.count() <= 0 || k == 0)
        return std::chrono::milliseconds{0};
    // Cap the shift so a misconfigured attempt count cannot overflow;
    // 2^20 * base is already far beyond any sane campaign backoff.
    const unsigned shift = k - 1 > 20 ? 20 : k - 1;
    return backoffBase * (1u << shift);
}

namespace
{

/** splitmix64: full-avalanche 64-bit mix (public-domain constant
 *  set), so adjacent streams land far apart in the jitter window. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::chrono::milliseconds
FaultPolicy::backoffFor(unsigned k, std::uint64_t stream) const
{
    const std::chrono::milliseconds base = backoffFor(k);
    if (base.count() <= 0 || backoffJitter <= 0.0)
        return base;
    const double jitter = backoffJitter > 1.0 ? 1.0 : backoffJitter;
    // Uniform in [0, 1) from the top 53 bits of the mixed hash; the
    // delay is base scaled into [base * (1 - jitter), base].
    const std::uint64_t h =
        mix64(mix64(backoffSeed ^ stream) ^ static_cast<std::uint64_t>(k));
    const double u =
        static_cast<double>(h >> 11) / 9007199254740992.0; // 2^53
    const double scaled =
        static_cast<double>(base.count()) * (1.0 - jitter * u);
    return std::chrono::milliseconds(
        static_cast<std::chrono::milliseconds::rep>(scaled));
}

void
AttemptContext::checkDeadline() const
{
    if (expired())
        throw DeadlineExceeded(
            "attempt deadline of " +
            std::to_string(deadlineBudget.count()) + " ms exceeded");
}

std::string
JobFailure::toString() const
{
    char elapsed[32];
    std::snprintf(elapsed, sizeof(elapsed), "%.3f", elapsedSeconds);
    return "job '" + label + "' failed (" + exec::toString(kind) +
           ") after " + std::to_string(attempts) +
           (attempts == 1 ? " attempt" : " attempts") + " in " +
           elapsed + " s: " + message;
}

} // namespace rigor::exec
