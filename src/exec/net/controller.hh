/**
 * @file
 * The lease-granting campaign controller of the distributed backend.
 *
 * CampaignController is to IsolationMode::Remote what ProcWorkerPool
 * is to Process: an attempt executor behind the engine's SimulateFn
 * seam. execute() serializes one attempt as a proc::JobRequest,
 * queues it, and blocks until a worker's proc::JobResult classifies
 * it — so retries, backoff, quarantine, journaling, and bit-identical
 * resume all keep working unchanged on top.
 *
 * Fault model. Each handed-out cell is covered by a time-bounded
 * lease: a worker that goes silent for longer than the lease duration
 * (missed heartbeats) or whose connection breaks has all of its
 * leases reclaimed and the cells requeued onto healthy workers —
 * invisible to the engine, whose attempt is still in flight. Only
 * when the same cell loses its lease on more than maxMigrations
 * distinct workers does the controller give up and throw
 * TransientFault, handing escalation to the existing FaultPolicy
 * retry/backoff machinery (and, with collectFailures, quarantine). A
 * result arriving on a reclaimed lease — the stalled worker woke up
 * late — is counted and dropped, never double-recorded: the fsync'd
 * ResultJournal upstream stays the single source of truth and no cell
 * runs twice into it. A broken connection always means a lost worker:
 * its leases are reclaimed at once.
 *
 * Liveness bookkeeping is purely heartbeat-driven: a healthy worker
 * may hold one cell for longer than the lease duration as long as it
 * keeps heartbeating — the lease clock measures silence, not runtime
 * — so legitimately slow cells are never reclaimed spuriously.
 *
 * Authentication. With a non-empty authToken the handshake becomes a
 * challenge-response: HelloAck carries a fresh random nonce and the
 * worker must answer AuthProof = HMAC-SHA256(token, nonce || name)
 * before it is registered or granted anything. Bad, missing, or
 * replayed proofs (a stale proof covers a stale nonce) are counted in
 * net.auth.rejected and the connection is dropped.
 */

#ifndef RIGOR_EXEC_NET_CONTROLLER_HH
#define RIGOR_EXEC_NET_CONTROLLER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check/campaign_check.hh"
#include "exec/campaign_options.hh"
#include "exec/engine.hh"
#include "exec/net/socket.hh"
#include "exec/proc/protocol.hh"

namespace rigor::obs
{
class MetricsRegistry;
class Counter;
class Gauge;
} // namespace rigor::obs

namespace rigor::exec::net
{

/** Controller construction knobs. */
struct ControllerOptions
{
    /** Listen address; localhost by default (tests, CI smoke). */
    std::string bindAddress = "127.0.0.1";
    /** Listen port; 0 = kernel-assigned (read back via port()). */
    std::uint16_t port = 0;
    /** Silence budget per worker: a worker heard nothing from for
     *  this long has its leases reclaimed and cells requeued. */
    std::chrono::milliseconds lease{10000};
    /** Heartbeat cadence advertised to workers in the handshake. */
    std::chrono::milliseconds heartbeat{1000};
    /** Distinct-worker lease losses per cell before the controller
     *  stops migrating it and throws TransientFault. */
    unsigned maxMigrations = 3;
    /**
     * Shared fleet token. Empty disables authentication; non-empty
     * demands an HMAC challenge-response in every handshake before
     * a worker is registered or granted a lease.
     */
    std::string authToken;
};

/**
 * Reduce a remote campaign's topology to the plain-integer RemotePlan
 * the check layer pre-flights (campaign.no-workers,
 * campaign.lease-shorter-than-deadline,
 * campaign.heartbeat-too-coarse): the fleet size and deadlines from
 * @p campaign, the lease and heartbeat from the @p controller options
 * the campaign runs with. Disabled — and therefore skipped by every
 * analyzer — unless the campaign runs under IsolationMode::Remote.
 */
check::RemotePlan remotePlanFor(const CampaignOptions &campaign,
                                const ControllerOptions &controller);

/** Fleet/lease lifecycle event, delivered to the lease observer from
 *  controller threads (observers must be thread-safe). */
struct LeaseEvent
{
    enum class Kind
    {
        /** A worker completed the handshake. */
        WorkerJoined,
        /** A worker's connection broke (EOF / protocol error). */
        WorkerLost,
        /** A worker went silent past the lease duration; it gets no
         *  new cells until its next heartbeat. */
        WorkerLapsed,
        /** One cell's lease was reclaimed and the cell requeued. */
        LeaseReclaimed,
        /** A result arrived on an already-reclaimed lease and was
         *  rejected (duplicate/late-result protection). */
        LateResult,
        /** A handshake failed authentication (bad/missing/replayed
         *  proof, malformed hello) and was dropped leaseless. */
        AuthRejected,
    };

    Kind kind = Kind::WorkerJoined;
    /** Worker the event concerns. */
    std::string worker;
    /** Lease id (LeaseReclaimed / LateResult; 0 otherwise). */
    std::uint64_t leaseId = 0;
    /** Cell label (LeaseReclaimed; empty otherwise). */
    std::string label;
    /** Human-readable cause ("heartbeat lapse", "connection lost"). */
    std::string detail;
    /** The cell's lease losses so far (LeaseReclaimed). */
    unsigned requeues = 0;
};

/** Display name of an event kind ("worker-joined", ...). */
std::string toString(LeaseEvent::Kind kind);

/** Per-event callback; must be thread-safe. */
using LeaseObserver = std::function<void(const LeaseEvent &)>;

/** Shards campaign cells across a TCP worker fleet under leases. */
class CampaignController
{
  public:
    explicit CampaignController(const ControllerOptions &options = {});
    ~CampaignController();

    CampaignController(const CampaignController &) = delete;
    CampaignController &operator=(const CampaignController &) = delete;

    /** The options the controller runs with. */
    const ControllerOptions &options() const { return _options; }

    /** The port actually bound (resolves port 0). */
    std::uint16_t port() const { return _port; }

    /** Workers currently connected and accepted. */
    unsigned connectedWorkers() const;

    /** Block until @p count workers are connected; false on
     *  timeout. */
    bool waitForWorkers(unsigned count,
                        std::chrono::milliseconds timeout);

    /**
     * Attach (or detach, with nullptr) a metrics registry. Counters:
     * net.workers.joined, net.workers.lost, net.leases.granted,
     * net.leases.reclaimed, net.results.late, net.auth.accepted,
     * net.auth.rejected.
     * Gauge: net.workers.connected. Not owned.
     */
    void setMetrics(obs::MetricsRegistry *metrics);

    /** Attach (or detach, with {}) the fleet/lease event observer. */
    void setLeaseObserver(LeaseObserver observer);

    /**
     * Execute one attempt on the fleet (blocks until a worker's
     * result or migration exhaustion). Throws the same taxonomy as
     * the sandbox pool: TransientFault / DeadlineExceeded /
     * ResourceExhausted / PermanentFault.
     */
    double execute(const SimJob &job, const AttemptContext &ctx);

    /** Engine-facing adapter around execute() — the distributed
     *  counterpart of ProcWorkerPool::simulateFn(). */
    SimulateFn simulateFn();

    /** Lifetime totals (for tests and drills). */
    std::uint64_t leasesGranted() const;
    std::uint64_t leasesReclaimed() const;
    std::uint64_t lateResults() const;
    std::uint64_t authAccepted() const;
    std::uint64_t authRejected() const;

  private:
    struct Pending;
    struct Worker;
    struct Lease;

    void acceptLoop();
    void serveConnection(int rawFd);
    /** Run the handshake (validation, auth challenge,
     *  registration). Returns the registered worker, or
     *  nullptr when the connection was rejected (already counted and
     *  emitted). Throws on transport errors mid-handshake. */
    std::shared_ptr<Worker> performHandshake(OwnedFd &fd);
    void monitorLoop();
    /** Grant queued cells to free, live, un-lapsed workers. */
    void pumpLocked();
    /** Reclaim every lease of @p worker: requeue each cell, or
     *  fail it once it has lost its lease on too many workers. */
    void reclaimLeasesLocked(const std::shared_ptr<Worker> &worker,
                             const std::string &reason);
    void workerGoneLocked(const std::shared_ptr<Worker> &worker,
                          const std::string &reason);
    void handleJobDoneLocked(const std::shared_ptr<Worker> &worker,
                             proc::Reader &in);
    /** Count + emit a leaseless handshake rejection. */
    void authRejectedLocked(const std::string &name,
                            const std::string &reason);
    void emitLocked(LeaseEvent event);
    void updateConnectedGaugeLocked();

    ControllerOptions _options;
    OwnedFd _listener;
    std::uint16_t _port = 0;

    mutable std::mutex _mutex;
    std::condition_variable _cv;
    bool _shutdown = false;
    std::deque<std::shared_ptr<Pending>> _queue;
    std::map<std::uint64_t, Lease> _leases;
    std::vector<std::shared_ptr<Worker>> _workers;
    /** Fds still inside performHandshake, so the destructor can
     *  unblock their reads. */
    std::set<int> _handshakeFds;
    std::uint64_t _nextLeaseId = 1;
    std::uint64_t _leasesGranted = 0;
    std::uint64_t _leasesReclaimed = 0;
    std::uint64_t _lateResults = 0;
    std::uint64_t _authAccepted = 0;
    std::uint64_t _authRejected = 0;
    LeaseObserver _observer;
    obs::Counter *_joinedCounter = nullptr;
    obs::Counter *_lostCounter = nullptr;
    obs::Counter *_grantedCounter = nullptr;
    obs::Counter *_reclaimedCounter = nullptr;
    obs::Counter *_lateCounter = nullptr;
    obs::Counter *_authAcceptedCounter = nullptr;
    obs::Counter *_authRejectedCounter = nullptr;
    obs::Gauge *_connectedGauge = nullptr;

    std::thread _acceptThread;
    std::thread _monitorThread;
    std::vector<std::thread> _connectionThreads;
};

} // namespace rigor::exec::net

#endif // RIGOR_EXEC_NET_CONTROLLER_HH
