/**
 * @file
 * Message layer of the controller <-> worker TCP protocol.
 *
 * Transport framing is exactly the sandbox socket protocol
 * (exec/proc/protocol.hh): length-prefixed frames written and read
 * with the same EINTR-safe, bounds-checked, size-capped code — a TCP
 * socket is just another fd. This header adds what sandboxes never
 * needed:
 *
 *  - a one-byte message tag on every frame (a sandbox is strictly
 *    request/response; a TCP connection multiplexes job traffic with
 *    heartbeats and shutdown);
 *  - a versioned handshake. The two sandbox ends are always the same
 *    forked binary; two TCP ends are not, so a worker opens with
 *    Hello{magic, version, slots, name} and the controller answers
 *    HelloAck{accepted, lease, heartbeat, auth challenge} or rejects
 *    the worker. When the controller demands authentication, the
 *    worker follows up with AuthProof (an HMAC over the challenge,
 *    see exec/net/auth.hh). Either way the handshake concludes with
 *    JoinAck, which tells the worker whether it was admitted.
 *
 * Payload bodies reuse proc::Writer / proc::Reader and the existing
 * JobRequest / JobResult serializers; job frames carry a lease id in
 * front of the proc payload so a reclaimed (stale) result is
 * recognizable when it arrives late.
 */

#ifndef RIGOR_EXEC_NET_WIRE_HH
#define RIGOR_EXEC_NET_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/proc/protocol.hh"

namespace rigor::exec::net
{

/** Protocol magic ("RGN1") leading every Hello. */
inline constexpr std::uint32_t kWireMagic = 0x52474e31;
/** Wire protocol version; bumped on any incompatible change. A
 *  worker speaking another version is refused at HelloAck. */
inline constexpr std::uint16_t kWireVersion = 3;

/** What one frame carries (first payload byte). */
enum class MsgType : std::uint8_t
{
    /** worker -> controller: join request (magic, version, slots,
     *  worker name). */
    Hello = 1,
    /** controller -> worker: join accepted/rejected + the lease
     *  and heartbeat intervals the worker must honor, plus the
     *  authentication challenge when the fleet requires a token. */
    HelloAck = 2,
    /** controller -> worker: one leased job (lease id +
     *  proc::JobRequest). */
    JobAssign = 3,
    /** worker -> controller: one finished job (lease id +
     *  proc::JobResult). */
    JobDone = 4,
    /** worker -> controller: liveness beacon. */
    Heartbeat = 5,
    /** controller -> worker: the campaign is over; disconnect. */
    Shutdown = 6,
    /** worker -> controller: HMAC answer to the HelloAck challenge
     *  (only when the controller demanded authentication). */
    AuthProof = 7,
    /** controller -> worker: handshake verdict — admitted or not. */
    JoinAck = 8,
};

/** Display name for diagnostics. */
std::string toString(MsgType type);

/** Join request (worker -> controller). */
struct Hello
{
    std::uint32_t magic = kWireMagic;
    std::uint16_t version = kWireVersion;
    /** Concurrent jobs the worker is willing to hold. */
    std::uint16_t slots = 1;
    /** Worker identity recorded as cell provenance ("host:pid" by
     *  convention); must be non-empty. */
    std::string name;

    void serialize(proc::Writer &out) const;
    static Hello deserialize(proc::Reader &in);
};

/** Join response (controller -> worker). */
struct HelloAck
{
    bool accepted = false;
    /** Rejection reason; empty when accepted. */
    std::string reason;
    /** Lease duration the controller reclaims after. */
    std::uint64_t leaseMs = 0;
    /** Heartbeat cadence the worker must keep under the lease. */
    std::uint64_t heartbeatMs = 0;
    /** The controller demands an AuthProof before admitting. */
    bool authRequired = false;
    /** Fresh per-connection nonce the proof must cover; empty when
     *  authentication is off. Freshness is the replay defense: a
     *  proof captured from an earlier connection covers a stale
     *  nonce and fails verification. */
    std::string challenge;

    void serialize(proc::Writer &out) const;
    static HelloAck deserialize(proc::Reader &in);
};

/** Authentication answer (worker -> controller). */
struct AuthProofMsg
{
    /** Hex HMAC-SHA256(token, challenge || name). */
    std::string proof;

    void serialize(proc::Writer &out) const;
    static AuthProofMsg deserialize(proc::Reader &in);
};

/** Handshake conclusion (controller -> worker). */
struct JoinAck
{
    bool accepted = false;
    /** Rejection reason; empty when accepted. */
    std::string reason;

    void serialize(proc::Writer &out) const;
    static JoinAck deserialize(proc::Reader &in);
};

/**
 * Send one tagged message: a frame whose payload is the tag byte
 * followed by @p body (may be empty for Heartbeat/Shutdown). Throws
 * proc::ProtocolError on I/O failure.
 */
void sendMessage(int fd, MsgType type,
                 const std::vector<std::byte> &body = {});

/**
 * Receive one frame into @p payload. Returns false on clean EOF.
 * Use readType on a Reader over the payload to consume the tag.
 * Throws proc::ProtocolError / proc::TruncatedFrame like readFrame.
 */
bool recvMessage(int fd, std::vector<std::byte> &payload);

/** Consume and validate the leading tag byte of a message payload. */
MsgType readType(proc::Reader &in);

} // namespace rigor::exec::net

#endif // RIGOR_EXEC_NET_WIRE_HH
