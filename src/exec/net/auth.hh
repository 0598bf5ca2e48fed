/**
 * @file
 * Handshake authentication primitives for the worker fleet.
 *
 * The controller and its workers share one campaign token (a file
 * both sides read at startup). Joining the fleet is a challenge-
 * response: the controller sends a fresh random nonce in its
 * HelloAck, the worker answers with HMAC-SHA256(token, nonce ||
 * worker name), and the controller verifies the proof
 * before registering the worker or granting any lease. Because the
 * nonce is fresh per connection, a captured proof replayed on a new
 * connection fails verification — replay is counted and dropped with
 * every other bad proof.
 *
 * Threat model: the token authenticates *fleet membership* on a
 * network where the port is reachable by untrusted processes. It
 * does not encrypt traffic, does not protect against an attacker who
 * can read the token file or observe a worker's memory, and does not
 * authenticate the controller to the worker beyond possession of the
 * same token (the worker never verifies a controller proof). See
 * EXPERIMENTS.md for the full failure-model discussion.
 *
 * SHA-256 (FIPS 180-4) and HMAC (RFC 2104) are implemented here
 * directly — the repo links no crypto library — and validated
 * against the RFC 4231 test vectors in the unit tests.
 */

#ifndef RIGOR_EXEC_NET_AUTH_HH
#define RIGOR_EXEC_NET_AUTH_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace rigor::exec::net
{

/** A SHA-256 digest: 32 raw bytes. */
using Sha256Digest = std::array<std::uint8_t, 32>;

/** SHA-256 of @p size bytes at @p data. */
Sha256Digest sha256(const void *data, std::size_t size);

/** HMAC-SHA256 over @p size bytes at @p data, keyed by @p key. */
Sha256Digest hmacSha256(const std::string &key, const void *data,
                        std::size_t size);

/** Lower-case hex rendering of a digest (64 characters). */
std::string toHex(const Sha256Digest &digest);

/**
 * The handshake proof: hex HMAC-SHA256 of challenge || name under
 * the shared token. Both sides compute it; the controller compares in
 * constant time.
 */
std::string authProof(const std::string &token,
                      const std::string &challenge,
                      const std::string &name);

/**
 * Compare two strings without an early exit on the first differing
 * byte, so proof verification leaks no prefix-length timing.
 */
bool constantTimeEquals(const std::string &a, const std::string &b);

/**
 * Read a shared token from @p path, stripping trailing whitespace
 * (a trailing newline from `echo secret > token` must not change the
 * key). Throws std::runtime_error when the file is unreadable or the
 * stripped token is empty.
 */
std::string loadAuthToken(const std::string &path);

/**
 * A fresh random 32-hex-character nonce from std::random_device,
 * used as the per-connection handshake challenge.
 */
std::string randomNonce();

} // namespace rigor::exec::net

#endif // RIGOR_EXEC_NET_AUTH_HH
