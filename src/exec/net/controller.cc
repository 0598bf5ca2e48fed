#include "exec/net/controller.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "exec/net/auth.hh"
#include "exec/net/wire.hh"
#include "obs/metrics.hh"

namespace rigor::exec::net
{

std::string
toString(LeaseEvent::Kind kind)
{
    switch (kind) {
      case LeaseEvent::Kind::WorkerJoined:
        return "worker-joined";
      case LeaseEvent::Kind::WorkerLost:
        return "worker-lost";
      case LeaseEvent::Kind::WorkerLapsed:
        return "worker-lapsed";
      case LeaseEvent::Kind::LeaseReclaimed:
        return "lease-reclaimed";
      case LeaseEvent::Kind::LateResult:
        return "late-result";
      case LeaseEvent::Kind::AuthRejected:
        return "auth-rejected";
    }
    return "unknown";
}

/** One queued/leased cell and the execute() call waiting on it. */
struct CampaignController::Pending
{
    /** Serialized proc::JobRequest (lease id prepended at grant). */
    std::vector<std::byte> request;
    std::string label;
    bool done = false;
    proc::JobResult result;
    /** Set instead of result on migration exhaustion / shutdown. */
    std::exception_ptr error;
    /** Name of the worker whose result was accepted. */
    std::string servedBy;
    /** Lease losses so far. */
    unsigned requeues = 0;
    /** Workers that ever held (and lost) this cell's lease. */
    std::set<std::string> triedWorkers;
};

/** One accepted fleet member. */
struct CampaignController::Worker
{
    int fd = -1;
    std::string name;
    unsigned slots = 1;
    unsigned inFlight = 0;
    /** Silent past the lease: no new grants until a heartbeat. */
    bool lapsed = false;
    /** Connection finished; kept out of every decision. */
    bool gone = false;
    std::chrono::steady_clock::time_point lastSeen;
};

/** One outstanding grant. */
struct CampaignController::Lease
{
    std::shared_ptr<Pending> pending;
    std::shared_ptr<Worker> worker;
};

check::RemotePlan
remotePlanFor(const CampaignOptions &campaign,
              const ControllerOptions &controller)
{
    check::RemotePlan plan;
    if (campaign.isolation != IsolationMode::Remote)
        return plan;
    plan.enabled = true;
    plan.workers = campaign.remoteWorkers;
    plan.leaseMs = static_cast<std::uint64_t>(controller.lease.count());
    plan.heartbeatMs =
        static_cast<std::uint64_t>(controller.heartbeat.count());
    plan.attemptDeadlineMs = static_cast<std::uint64_t>(
        campaign.faultPolicy.attemptDeadline.count());
    plan.hardDeadlineMs =
        static_cast<std::uint64_t>(campaign.hardDeadline.count());
    return plan;
}

CampaignController::CampaignController(const ControllerOptions &options)
    : _options(options)
{
    if (_options.lease.count() <= 0)
        throw std::invalid_argument(
            "CampaignController: lease duration must be positive");
    if (_options.heartbeat.count() <= 0)
        throw std::invalid_argument(
            "CampaignController: heartbeat interval must be positive");
    _listener = listenTcp(_options.bindAddress, _options.port);
    _port = boundPort(_listener.get());
    _acceptThread = std::thread(&CampaignController::acceptLoop, this);
    _monitorThread =
        std::thread(&CampaignController::monitorLoop, this);
}

CampaignController::~CampaignController()
{
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        _shutdown = true;
        const auto fail = [](const std::shared_ptr<Pending> &pending) {
            if (pending->done)
                return;
            pending->error = std::make_exception_ptr(TransientFault(
                "campaign controller shut down with cell '" +
                pending->label + "' unfinished"));
            pending->done = true;
        };
        for (const auto &pending : _queue)
            fail(pending);
        for (const auto &entry : _leases)
            fail(entry.second.pending);
        _queue.clear();
        _leases.clear();
        for (const auto &worker : _workers) {
            try {
                sendMessage(worker->fd, MsgType::Shutdown);
            } catch (const std::exception &) {
                // Already-dead connection; the socket shutdown below
                // unblocks its reader thread either way.
            }
            shutdownSocket(worker->fd);
        }
        // A connection still mid-handshake is blocked in a read —
        // shut its socket so the thread can be joined below.
        for (const int handshake_fd : _handshakeFds)
            shutdownSocket(handshake_fd);
        _cv.notify_all();
    }
    // shutdown() (not close) wakes the blocked accept() without
    // racing fd reuse; the fd itself is closed after the join.
    shutdownSocket(_listener.get());
    if (_acceptThread.joinable())
        _acceptThread.join();
    if (_monitorThread.joinable())
        _monitorThread.join();
    std::vector<std::thread> connections;
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        connections.swap(_connectionThreads);
    }
    for (std::thread &thread : connections)
        if (thread.joinable())
            thread.join();
}

unsigned
CampaignController::connectedWorkers() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return static_cast<unsigned>(_workers.size());
}

bool
CampaignController::waitForWorkers(unsigned count,
                                   std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(_mutex);
    return _cv.wait_for(lock, timeout, [&] {
        return _shutdown || _workers.size() >= count;
    }) && !_shutdown;
}

void
CampaignController::setMetrics(obs::MetricsRegistry *metrics)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    if (metrics == nullptr) {
        _joinedCounter = _lostCounter = _grantedCounter =
            _reclaimedCounter = _lateCounter = _authAcceptedCounter =
                _authRejectedCounter = nullptr;
        _connectedGauge = nullptr;
        return;
    }
    _joinedCounter = &metrics->counter("net.workers.joined");
    _lostCounter = &metrics->counter("net.workers.lost");
    _grantedCounter = &metrics->counter("net.leases.granted");
    _reclaimedCounter = &metrics->counter("net.leases.reclaimed");
    _lateCounter = &metrics->counter("net.results.late");
    _authAcceptedCounter = &metrics->counter("net.auth.accepted");
    _authRejectedCounter = &metrics->counter("net.auth.rejected");
    _connectedGauge = &metrics->gauge("net.workers.connected");
}

void
CampaignController::setLeaseObserver(LeaseObserver observer)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _observer = std::move(observer);
}

SimulateFn
CampaignController::simulateFn()
{
    return [this](const SimJob &job, const AttemptContext &ctx) {
        return execute(job, ctx);
    };
}

std::uint64_t
CampaignController::leasesGranted() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _leasesGranted;
}

std::uint64_t
CampaignController::leasesReclaimed() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _leasesReclaimed;
}

std::uint64_t
CampaignController::lateResults() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _lateResults;
}

std::uint64_t
CampaignController::authAccepted() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _authAccepted;
}

std::uint64_t
CampaignController::authRejected() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _authRejected;
}

double
CampaignController::execute(const SimJob &job,
                            const AttemptContext &ctx)
{
    proc::Writer out;
    proc::makeRequest(job, ctx).serialize(out);

    auto pending = std::make_shared<Pending>();
    pending->request = out.bytes();
    pending->label = job.label;

    proc::JobResult result;
    std::string served_by;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        if (_shutdown)
            throw TransientFault(
                "campaign controller is shut down (job '" + job.label +
                "')");
        _queue.push_back(pending);
        pumpLocked();
        _cv.wait(lock, [&] { return pending->done; });
        if (pending->error)
            std::rethrow_exception(pending->error);
        result = std::move(pending->result);
        served_by = std::move(pending->servedBy);
    }

    const double cycles = proc::resultCycles(result, ctx);
    if (ctx.hostOut != nullptr)
        *ctx.hostOut = served_by;
    return cycles;
}

void
CampaignController::acceptLoop()
{
    for (;;) {
        OwnedFd client = acceptClient(_listener.get());
        if (!client.valid())
            return; // listener shut down: controller winding down
        const std::lock_guard<std::mutex> lock(_mutex);
        if (_shutdown)
            return;
        _connectionThreads.emplace_back(
            &CampaignController::serveConnection, this,
            client.release());
    }
}

namespace
{

/** Send a JoinAck rejecting the handshake (best-effort). */
void
sendJoinReject(int fd, const std::string &reason)
{
    JoinAck nack;
    nack.accepted = false;
    nack.reason = reason;
    proc::Writer body;
    nack.serialize(body);
    try {
        sendMessage(fd, MsgType::JoinAck, body.bytes());
    } catch (const std::exception &) {
        // The peer is gone; it was being rejected anyway.
    }
}

} // namespace

std::shared_ptr<CampaignController::Worker>
CampaignController::performHandshake(OwnedFd &fd)
{
    std::vector<std::byte> payload;
    if (!recvMessage(fd.get(), payload)) {
        const std::lock_guard<std::mutex> lock(_mutex);
        authRejectedLocked("", "connection closed before hello");
        return nullptr;
    }
    proc::Reader in(payload);
    if (readType(in) != MsgType::Hello) {
        const std::lock_guard<std::mutex> lock(_mutex);
        authRejectedLocked("", "first message was not hello");
        return nullptr;
    }
    const Hello hello = Hello::deserialize(in);

    HelloAck ack;
    ack.leaseMs = static_cast<std::uint64_t>(_options.lease.count());
    ack.heartbeatMs =
        static_cast<std::uint64_t>(_options.heartbeat.count());
    if (hello.magic != kWireMagic)
        ack.reason = "bad protocol magic";
    else if (hello.version != kWireVersion)
        ack.reason = "unsupported protocol version " +
                     std::to_string(hello.version) +
                     " (controller speaks " +
                     std::to_string(kWireVersion) + ")";
    else if (hello.name.empty())
        ack.reason = "empty worker name";
    else if (hello.slots == 0)
        ack.reason = "zero worker slots";
    else
        ack.accepted = true;
    ack.authRequired =
        ack.accepted && !_options.authToken.empty();
    if (ack.authRequired)
        ack.challenge = randomNonce();
    proc::Writer ack_body;
    ack.serialize(ack_body);
    sendMessage(fd.get(), MsgType::HelloAck, ack_body.bytes());
    if (!ack.accepted) {
        const std::lock_guard<std::mutex> lock(_mutex);
        authRejectedLocked(hello.name, ack.reason);
        return nullptr;
    }

    if (ack.authRequired) {
        std::vector<std::byte> proof_payload;
        if (!recvMessage(fd.get(), proof_payload)) {
            const std::lock_guard<std::mutex> lock(_mutex);
            authRejectedLocked(hello.name,
                               "connection closed before auth proof");
            return nullptr;
        }
        proc::Reader proof_in(proof_payload);
        if (readType(proof_in) != MsgType::AuthProof) {
            sendJoinReject(fd.get(), "auth proof required");
            const std::lock_guard<std::mutex> lock(_mutex);
            authRejectedLocked(hello.name,
                               "auth proof required but not sent");
            return nullptr;
        }
        const AuthProofMsg proof =
            AuthProofMsg::deserialize(proof_in);
        const std::string expected =
            authProof(_options.authToken, ack.challenge, hello.name);
        if (!constantTimeEquals(proof.proof, expected)) {
            sendJoinReject(fd.get(), "bad auth proof");
            const std::lock_guard<std::mutex> lock(_mutex);
            authRejectedLocked(hello.name, "bad auth proof");
            return nullptr;
        }
    }

    // Registration. The verdict (JoinAck) is sent under the lock so
    // no lease can be granted to a half-registered worker.
    const std::lock_guard<std::mutex> lock(_mutex);
    if (_shutdown)
        return nullptr;
    auto worker = std::make_shared<Worker>();
    worker->fd = fd.get();
    worker->name = hello.name;
    worker->slots = hello.slots;
    worker->lastSeen = std::chrono::steady_clock::now();
    _workers.push_back(worker);
    if (_joinedCounter != nullptr)
        _joinedCounter->add();
    LeaseEvent event;
    event.kind = LeaseEvent::Kind::WorkerJoined;
    event.worker = worker->name;
    event.detail = std::to_string(worker->slots) + " slot(s)";
    emitLocked(std::move(event));
    if (ack.authRequired) {
        _authAccepted += 1;
        if (_authAcceptedCounter != nullptr)
            _authAcceptedCounter->add();
    }

    JoinAck verdict;
    verdict.accepted = true;
    proc::Writer verdict_body;
    verdict.serialize(verdict_body);
    sendMessage(fd.get(), MsgType::JoinAck, verdict_body.bytes());

    updateConnectedGaugeLocked();
    _cv.notify_all();
    pumpLocked();
    return worker;
}

void
CampaignController::serveConnection(int rawFd)
{
    OwnedFd fd(rawFd);
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        if (_shutdown)
            return;
        _handshakeFds.insert(fd.get());
    }
    std::shared_ptr<Worker> worker;
    std::string end_reason = "connection lost";
    try {
        worker = performHandshake(fd);
    } catch (const std::exception &e) {
        const std::lock_guard<std::mutex> lock(_mutex);
        _handshakeFds.erase(fd.get());
        authRejectedLocked(
            "", std::string("malformed handshake: ") + e.what());
        return;
    }
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        _handshakeFds.erase(fd.get());
    }
    if (worker == nullptr)
        return;
    try {
        for (;;) {
            std::vector<std::byte> message;
            if (!recvMessage(fd.get(), message))
                break; // clean EOF
            proc::Reader reader(message);
            const MsgType type = readType(reader);
            const std::lock_guard<std::mutex> lock(_mutex);
            if (_shutdown)
                return;
            worker->lastSeen = std::chrono::steady_clock::now();
            if (worker->lapsed) {
                worker->lapsed = false;
                pumpLocked();
            }
            switch (type) {
              case MsgType::Heartbeat:
                break;
              case MsgType::JobDone:
                handleJobDoneLocked(worker, reader);
                break;
              default:
                throw proc::ProtocolError(
                    "unexpected " + net::toString(type) +
                    " from worker '" + worker->name + "'");
            }
        }
    } catch (const std::exception &e) {
        end_reason = e.what();
    }
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        workerGoneLocked(worker, end_reason);
    }
}

void
CampaignController::monitorLoop()
{
    const auto tick = std::max<std::chrono::milliseconds>(
        std::chrono::milliseconds(10),
        std::min(_options.heartbeat, _options.lease / 4));
    std::unique_lock<std::mutex> lock(_mutex);
    while (!_shutdown) {
        _cv.wait_for(lock, tick);
        if (_shutdown)
            return;
        const auto now = std::chrono::steady_clock::now();
        // Snapshot: reclaim mutates _workers bookkeeping.
        const std::vector<std::shared_ptr<Worker>> fleet = _workers;
        for (const std::shared_ptr<Worker> &worker : fleet) {
            if (worker->gone || worker->lapsed)
                continue;
            if (now - worker->lastSeen <= _options.lease)
                continue;
            worker->lapsed = true;
            LeaseEvent event;
            event.kind = LeaseEvent::Kind::WorkerLapsed;
            event.worker = worker->name;
            event.detail =
                "silent past the " +
                std::to_string(_options.lease.count()) + " ms lease";
            emitLocked(std::move(event));
            reclaimLeasesLocked(worker, "heartbeat lapse");
        }
        pumpLocked();
    }
}

void
CampaignController::pumpLocked()
{
    for (;;) {
        if (_queue.empty())
            return;
        const std::shared_ptr<Pending> pending = _queue.front();
        // Prefer a worker this cell never failed on; fall back to a
        // tried one (the migration cap bounds the damage).
        std::shared_ptr<Worker> chosen;
        std::shared_ptr<Worker> fallback;
        for (const std::shared_ptr<Worker> &worker : _workers) {
            if (worker->gone || worker->lapsed ||
                worker->inFlight >= worker->slots)
                continue;
            if (pending->triedWorkers.count(worker->name) != 0) {
                if (fallback == nullptr)
                    fallback = worker;
                continue;
            }
            chosen = worker;
            break;
        }
        if (chosen == nullptr)
            chosen = fallback;
        if (chosen == nullptr)
            return; // no free worker: cells wait for the next pump
        _queue.pop_front();
        const std::uint64_t lease_id = _nextLeaseId++;
        std::vector<std::byte> body(sizeof(lease_id) +
                                    pending->request.size());
        std::memcpy(body.data(), &lease_id, sizeof(lease_id));
        std::memcpy(body.data() + sizeof(lease_id),
                    pending->request.data(),
                    pending->request.size());
        try {
            sendMessage(chosen->fd, MsgType::JobAssign, body);
        } catch (const std::exception &) {
            // Dead connection discovered at send time: requeue the
            // cell and retire the worker (reclaims its other leases).
            _queue.push_front(pending);
            workerGoneLocked(chosen, "job dispatch failed");
            continue;
        }
        chosen->inFlight += 1;
        _leases[lease_id] = Lease{pending, chosen};
        _leasesGranted += 1;
        if (_grantedCounter != nullptr)
            _grantedCounter->add();
    }
}

void
CampaignController::reclaimLeasesLocked(
    const std::shared_ptr<Worker> &worker, const std::string &reason)
{
    for (auto it = _leases.begin(); it != _leases.end();) {
        if (it->second.worker != worker) {
            ++it;
            continue;
        }
        const std::uint64_t lease_id = it->first;
        const std::shared_ptr<Pending> pending = it->second.pending;
        it = _leases.erase(it);
        pending->requeues += 1;
        pending->triedWorkers.insert(worker->name);
        _leasesReclaimed += 1;
        if (_reclaimedCounter != nullptr)
            _reclaimedCounter->add();
        LeaseEvent event;
        event.kind = LeaseEvent::Kind::LeaseReclaimed;
        event.worker = worker->name;
        event.leaseId = lease_id;
        event.label = pending->label;
        event.detail = reason;
        event.requeues = pending->requeues;
        emitLocked(std::move(event));
        if (pending->triedWorkers.size() > _options.maxMigrations) {
            pending->error = std::make_exception_ptr(TransientFault(
                "cell '" + pending->label + "' lost its lease on " +
                std::to_string(pending->triedWorkers.size()) +
                " distinct workers (last: " + worker->name + ", " +
                reason + ")"));
            pending->done = true;
        } else {
            // Front of the queue: a migrated cell is the oldest work
            // in flight and should land on a healthy worker first.
            _queue.push_front(pending);
        }
    }
    worker->inFlight = 0;
    _cv.notify_all();
}

void
CampaignController::authRejectedLocked(const std::string &name,
                                       const std::string &reason)
{
    if (_shutdown)
        return; // quiet teardown: sockets are being torn down anyway
    _authRejected += 1;
    if (_authRejectedCounter != nullptr)
        _authRejectedCounter->add();
    LeaseEvent event;
    event.kind = LeaseEvent::Kind::AuthRejected;
    event.worker = name;
    event.detail = reason;
    emitLocked(std::move(event));
}

void
CampaignController::workerGoneLocked(
    const std::shared_ptr<Worker> &worker, const std::string &reason)
{
    if (worker->gone)
        return;
    worker->gone = true;
    if (_shutdown)
        return; // quiet teardown: every connection closes now
    _workers.erase(
        std::remove(_workers.begin(), _workers.end(), worker),
        _workers.end());
    reclaimLeasesLocked(worker, reason);
    if (_lostCounter != nullptr)
        _lostCounter->add();
    updateConnectedGaugeLocked();
    LeaseEvent event;
    event.kind = LeaseEvent::Kind::WorkerLost;
    event.worker = worker->name;
    event.detail = reason;
    emitLocked(std::move(event));
    _cv.notify_all();
    pumpLocked();
}

void
CampaignController::handleJobDoneLocked(
    const std::shared_ptr<Worker> &worker, proc::Reader &in)
{
    const auto lease_id = in.pod<std::uint64_t>();
    proc::JobResult result = proc::JobResult::deserialize(in);
    const auto it = _leases.find(lease_id);
    if (it == _leases.end()) {
        // The lease was reclaimed (and the cell likely rerun
        // elsewhere) before this result arrived: reject it so no
        // cell is ever recorded twice.
        _lateResults += 1;
        if (_lateCounter != nullptr)
            _lateCounter->add();
        LeaseEvent event;
        event.kind = LeaseEvent::Kind::LateResult;
        event.worker = worker->name;
        event.leaseId = lease_id;
        event.detail = "result on a reclaimed lease rejected";
        emitLocked(std::move(event));
        return;
    }
    const std::shared_ptr<Pending> pending = it->second.pending;
    const std::shared_ptr<Worker> holder = it->second.worker;
    _leases.erase(it);
    if (holder->inFlight > 0)
        holder->inFlight -= 1;
    pending->result = std::move(result);
    pending->servedBy = worker->name;
    pending->done = true;
    _cv.notify_all();
    pumpLocked();
}

void
CampaignController::emitLocked(LeaseEvent event)
{
    if (_observer)
        _observer(event);
}

void
CampaignController::updateConnectedGaugeLocked()
{
    if (_connectedGauge != nullptr)
        _connectedGauge->set(static_cast<double>(_workers.size()));
}

} // namespace rigor::exec::net
