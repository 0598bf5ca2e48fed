#include "exec/net/wire.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>

namespace rigor::exec::net
{

namespace
{

/**
 * Write exactly @p size bytes to a socket, riding out EINTR and
 * short writes. Unlike proc::writeFrame (a plain write()), this
 * sends with MSG_NOSIGNAL: a peer that vanished mid-frame surfaces
 * as an EPIPE ProtocolError the caller can catch, not as a SIGPIPE
 * that kills the whole controller (or worker) process.
 */
void
sendAll(int fd, const void *data, std::size_t size)
{
    const char *at = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t n = ::send(fd, at, size, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw proc::ProtocolError(
                std::string("fleet socket write: ") +
                std::strerror(errno));
        }
        at += n;
        size -= static_cast<std::size_t>(n);
    }
}

} // namespace

std::string
toString(MsgType type)
{
    switch (type) {
      case MsgType::Hello:
        return "hello";
      case MsgType::HelloAck:
        return "hello-ack";
      case MsgType::JobAssign:
        return "job-assign";
      case MsgType::JobDone:
        return "job-done";
      case MsgType::Heartbeat:
        return "heartbeat";
      case MsgType::Shutdown:
        return "shutdown";
      case MsgType::AuthProof:
        return "auth-proof";
      case MsgType::JoinAck:
        return "join-ack";
    }
    return "unknown";
}

void
Hello::serialize(proc::Writer &out) const
{
    out.pod(magic);
    out.pod(version);
    out.pod(slots);
    out.str(name);
}

Hello
Hello::deserialize(proc::Reader &in)
{
    Hello hello;
    hello.magic = in.pod<std::uint32_t>();
    hello.version = in.pod<std::uint16_t>();
    hello.slots = in.pod<std::uint16_t>();
    hello.name = in.str();
    return hello;
}

void
HelloAck::serialize(proc::Writer &out) const
{
    out.pod(accepted);
    out.str(reason);
    out.pod(leaseMs);
    out.pod(heartbeatMs);
    out.pod(authRequired);
    out.str(challenge);
}

HelloAck
HelloAck::deserialize(proc::Reader &in)
{
    HelloAck ack;
    ack.accepted = in.pod<bool>();
    ack.reason = in.str();
    ack.leaseMs = in.pod<std::uint64_t>();
    ack.heartbeatMs = in.pod<std::uint64_t>();
    ack.authRequired = in.pod<bool>();
    ack.challenge = in.str();
    return ack;
}

void
AuthProofMsg::serialize(proc::Writer &out) const
{
    out.str(proof);
}

AuthProofMsg
AuthProofMsg::deserialize(proc::Reader &in)
{
    AuthProofMsg msg;
    msg.proof = in.str();
    return msg;
}

void
JoinAck::serialize(proc::Writer &out) const
{
    out.pod(accepted);
    out.str(reason);
}

JoinAck
JoinAck::deserialize(proc::Reader &in)
{
    JoinAck ack;
    ack.accepted = in.pod<bool>();
    ack.reason = in.str();
    return ack;
}

void
sendMessage(int fd, MsgType type, const std::vector<std::byte> &body)
{
    std::vector<std::byte> payload;
    payload.reserve(1 + body.size());
    payload.push_back(static_cast<std::byte>(type));
    payload.insert(payload.end(), body.begin(), body.end());
    if (payload.size() > proc::kMaxFramePayload)
        throw proc::ProtocolError("frame payload too large to send");
    const auto length = static_cast<std::uint32_t>(payload.size());
    sendAll(fd, &length, sizeof(length));
    sendAll(fd, payload.data(), payload.size());
}

bool
recvMessage(int fd, std::vector<std::byte> &payload)
{
    if (!proc::readFrame(fd, payload))
        return false;
    if (payload.empty())
        throw proc::ProtocolError("empty message frame (no tag byte)");
    return true;
}

MsgType
readType(proc::Reader &in)
{
    const auto raw = in.pod<std::uint8_t>();
    if (raw < static_cast<std::uint8_t>(MsgType::Hello) ||
        raw > static_cast<std::uint8_t>(MsgType::JoinAck))
        throw proc::ProtocolError("unknown message tag " +
                                  std::to_string(raw));
    return static_cast<MsgType>(raw);
}

} // namespace rigor::exec::net
