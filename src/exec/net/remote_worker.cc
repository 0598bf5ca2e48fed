#include "exec/net/remote_worker.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "exec/fault_injection.hh"
#include "exec/net/auth.hh"
#include "exec/net/socket.hh"
#include "exec/net/wire.hh"

namespace rigor::exec::net
{

namespace
{

std::string
defaultWorkerName()
{
    char host[256] = "worker";
    (void)::gethostname(host, sizeof(host) - 1);
    host[sizeof(host) - 1] = '\0';
    return std::string(host) + ":" + std::to_string(::getpid());
}

/** One leased job pulled off the connection. */
struct Assignment
{
    std::uint64_t leaseId = 0;
    proc::JobRequest request;
};

/** Client side of the handshake. */
struct ClientHandshake
{
    /** False = transport closed mid-handshake. */
    bool connected = false;
    bool accepted = false;
    std::string reason;
    HelloAck ack;
};

ClientHandshake
clientHandshake(int fd, const std::string &name, unsigned slots,
                const std::string &authToken)
{
    ClientHandshake out;
    Hello hello;
    hello.slots =
        static_cast<std::uint16_t>(std::min(slots, 65535u));
    hello.name = name;
    proc::Writer hello_body;
    hello.serialize(hello_body);
    sendMessage(fd, MsgType::Hello, hello_body.bytes());

    std::vector<std::byte> payload;
    if (!recvMessage(fd, payload))
        return out;
    proc::Reader in(payload);
    if (readType(in) != MsgType::HelloAck)
        throw proc::ProtocolError(
            "expected hello-ack from the controller");
    out.ack = HelloAck::deserialize(in);
    out.connected = true;
    if (!out.ack.accepted) {
        out.reason = out.ack.reason;
        return out;
    }

    if (out.ack.authRequired) {
        // Empty token still answers (with a proof that cannot
        // verify): the controller's rejection is the clear error.
        AuthProofMsg proof;
        proof.proof = authProof(authToken, out.ack.challenge, name);
        proc::Writer proof_body;
        proof.serialize(proof_body);
        sendMessage(fd, MsgType::AuthProof, proof_body.bytes());
    }

    std::vector<std::byte> verdict_payload;
    if (!recvMessage(fd, verdict_payload)) {
        out.connected = false;
        return out;
    }
    proc::Reader verdict_in(verdict_payload);
    if (readType(verdict_in) != MsgType::JoinAck)
        throw proc::ProtocolError(
            "expected join-ack from the controller");
    const JoinAck verdict = JoinAck::deserialize(verdict_in);
    out.accepted = verdict.accepted;
    out.reason = verdict.reason;
    return out;
}

/** Shared state of one worker connection. */
class Connection
{
  public:
    Connection(const RemoteWorkerOptions &options, OwnedFd fd,
               const HelloAck &ack)
        : _options(options), _fd(std::move(fd)),
          _lease(std::chrono::milliseconds(ack.leaseMs)),
          _heartbeat(std::chrono::milliseconds(ack.heartbeatMs))
    {
        _heartbeatThread =
            std::thread(&Connection::heartbeatLoop, this);
        const unsigned slots = std::max(1u, options.slots);
        _executors.reserve(slots);
        for (unsigned i = 0; i < slots; ++i)
            _executors.emplace_back(&Connection::executorLoop, this);
    }

    ~Connection()
    {
        stop();
        if (_heartbeatThread.joinable())
            _heartbeatThread.join();
        for (std::thread &executor : _executors)
            if (executor.joinable())
                executor.join();
    }

    /** Read frames until Shutdown / EOF; returns how it ended. */
    RemoteWorkerSession serve()
    {
        RemoteWorkerSession outcome;
        try {
            for (;;) {
                std::vector<std::byte> payload;
                if (!recvMessage(_fd.get(), payload)) {
                    outcome.end = SessionEnd::ConnectionLost;
                    outcome.error = _dropped.load()
                                        ? "drill dropped the connection"
                                        : "controller closed the "
                                          "connection";
                    break;
                }
                proc::Reader in(payload);
                const MsgType type = readType(in);
                if (type == MsgType::Shutdown) {
                    outcome.end = SessionEnd::Shutdown;
                    break;
                }
                if (type != MsgType::JobAssign)
                    throw proc::ProtocolError(
                        "unexpected " + net::toString(type) +
                        " from the controller");
                Assignment assignment;
                assignment.leaseId = in.pod<std::uint64_t>();
                assignment.request = proc::JobRequest::deserialize(in);
                {
                    const std::lock_guard<std::mutex> lock(_mutex);
                    _assignments.push_back(std::move(assignment));
                }
                // notify_all: the heartbeat thread shares this cv, so
                // a notify_one could wake it instead of an executor
                // and strand the assignment in the queue.
                _wake.notify_all();
            }
        } catch (const std::exception &e) {
            outcome.end = SessionEnd::ConnectionLost;
            outcome.error = e.what();
        }
        stop();
        outcome.jobsServed = _jobsServed.load();
        return outcome;
    }

  private:
    void stop()
    {
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            if (_stopping)
                return;
            _stopping = true;
        }
        _wake.notify_all();
    }

    void heartbeatLoop()
    {
        std::unique_lock<std::mutex> lock(_mutex);
        for (;;) {
            _wake.wait_for(lock, _heartbeat);
            if (_stopping)
                return;
            if (std::chrono::steady_clock::now() < _stallUntil)
                continue; // stall-heartbeat drill: stay silent
            lock.unlock();
            try {
                const std::lock_guard<std::mutex> write(_writeMutex);
                sendMessage(_fd.get(), MsgType::Heartbeat);
            } catch (const std::exception &) {
                // Connection gone; the reader loop notices too.
            }
            lock.lock();
        }
    }

    void executorLoop()
    {
        for (;;) {
            Assignment assignment;
            {
                std::unique_lock<std::mutex> lock(_mutex);
                _wake.wait(lock, [this] {
                    return _stopping || !_assignments.empty();
                });
                if (_stopping)
                    return;
                assignment = std::move(_assignments.front());
                _assignments.pop_front();
            }
            runAssignment(assignment);
        }
    }

    void runAssignment(const Assignment &assignment)
    {
        // A network drill raised by the executor is caught on its way
        // into the codec's classification and acted out on the live
        // connection instead.
        std::optional<NetDrillFault> drill;
        const SimulateFn simulate = [this, &drill](
                                        const SimJob &job,
                                        const AttemptContext &ctx) {
            try {
                return _options.simulate
                           ? _options.simulate(job, ctx)
                           : SimulationEngine::simulateJob(job, ctx);
            } catch (const NetDrillFault &fault) {
                drill.emplace(fault);
                throw;
            }
        };
        proc::JobResult result = proc::runRequest(
            assignment.request, simulate, _options.hookFactory);
        if (drill) {
            if (!performDrill(*drill))
                return; // drill consumed the response frame
            result.status = proc::ResultStatus::Transient;
            result.message = std::string(drill->what()) +
                             " — stalled worker answered late";
        }
        sendResult(assignment.leaseId, result);
    }

    /**
     * Act out a network drill. Returns true when the caller should
     * still send a (late) JobDone, false when the drill consumed the
     * response frame (or the connection) itself.
     */
    bool performDrill(const NetDrillFault &drill)
    {
        switch (drill.kind()) {
          case FaultKind::DropConnection:
            // Slam the connection mid-lease: the controller reclaims
            // every lease this worker held and requeues the cells.
            _dropped.store(true);
            shutdownSocket(_fd.get());
            stop();
            return false;
          case FaultKind::StallHeartbeat: {
            // Go silent past the lease so the controller reclaims and
            // reruns the cell elsewhere, then answer on the stale
            // lease — drilling late-result rejection end to end.
            const auto until = std::chrono::steady_clock::now() +
                               2 * _lease + _heartbeat;
            {
                const std::lock_guard<std::mutex> lock(_mutex);
                _stallUntil = until;
            }
            std::this_thread::sleep_until(until);
            return true;
          }
          case FaultKind::CorruptFrame: {
            // A length prefix promising more payload than follows:
            // the controller's bounds-checked reader classifies it as
            // a TruncatedFrame with the byte counts.
            const std::lock_guard<std::mutex> write(_writeMutex);
            const std::uint32_t claimed = 64;
            char torn[sizeof(claimed) + 8];
            std::memcpy(torn, &claimed, sizeof(claimed));
            std::memset(torn + sizeof(claimed), 0xab, 8);
            (void)!::send(_fd.get(), torn, sizeof(torn),
                          MSG_NOSIGNAL);
            shutdownSocket(_fd.get());
            stop();
            return false;
          }
          default:
            // Not a net kind (cannot happen: the injector only wraps
            // net kinds in NetDrillFault).
            return true;
        }
    }

    void sendResult(std::uint64_t leaseId,
                    const proc::JobResult &result)
    {
        proc::Writer body;
        body.pod(leaseId);
        result.serialize(body);
        try {
            const std::lock_guard<std::mutex> write(_writeMutex);
            sendMessage(_fd.get(), MsgType::JobDone, body.bytes());
            _jobsServed.fetch_add(1);
        } catch (const std::exception &) {
            // Connection died under us; the reader loop reports the
            // loss and the controller requeues the cell.
        }
    }

    const RemoteWorkerOptions &_options;
    OwnedFd _fd;
    const std::chrono::milliseconds _lease;
    const std::chrono::milliseconds _heartbeat;

    std::mutex _mutex;
    std::condition_variable _wake;
    bool _stopping = false;
    std::deque<Assignment> _assignments;
    std::chrono::steady_clock::time_point _stallUntil{};

    std::mutex _writeMutex;
    std::atomic<std::uint64_t> _jobsServed{0};
    std::atomic<bool> _dropped{false};

    std::thread _heartbeatThread;
    std::vector<std::thread> _executors;
};

} // namespace

std::string
toString(SessionEnd end)
{
    switch (end) {
      case SessionEnd::Shutdown:
        return "shutdown";
      case SessionEnd::ConnectionLost:
        return "connection-lost";
      case SessionEnd::Rejected:
        return "rejected";
    }
    return "unknown";
}

RemoteWorkerSession
runRemoteWorker(const RemoteWorkerOptions &options)
{
    const std::string name =
        options.name.empty() ? defaultWorkerName() : options.name;
    const unsigned slots = options.slots == 0 ? 1u : options.slots;

    // Only the connect throws: once connected, every failure is
    // reported in the returned record instead.
    OwnedFd fd = connectTcp(options.host, options.port);
    RemoteWorkerSession outcome;
    try {
        const ClientHandshake shake =
            clientHandshake(fd.get(), name, slots, options.authToken);
        if (!shake.connected) {
            outcome.error = "controller closed during handshake";
        } else if (!shake.accepted) {
            outcome.end = SessionEnd::Rejected;
            outcome.error = shake.reason;
        } else {
            Connection connection(options, std::move(fd), shake.ack);
            outcome = connection.serve();
        }
    } catch (const std::exception &e) {
        outcome.end = SessionEnd::ConnectionLost;
        outcome.error = e.what();
    }
    return outcome;
}

} // namespace rigor::exec::net
