#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/fault_injection.hh"
#include "exec/fault_policy.hh"
#include "exec/net/auth.hh"
#include "exec/net/controller.hh"
#include "exec/net/remote_worker.hh"
#include "exec/net/socket.hh"
#include "exec/net/wire.hh"
#include "exec/proc/protocol.hh"
#include "trace/workloads.hh"

namespace net = rigor::exec::net;
namespace proc = rigor::exec::proc;
using rigor::exec::AttemptContext;
using rigor::exec::SimJob;
using rigor::exec::TransientFault;

namespace
{

/** Deterministic stand-in for the simulator. */
double
stubResponse(const SimJob &, const AttemptContext &ctx)
{
    return 1000.0 + static_cast<double>(ctx.jobIndex);
}

bool
waitUntil(const std::function<bool()> &pred,
          std::chrono::milliseconds timeout =
              std::chrono::milliseconds(10000))
{
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

/** Thread-safe lease event log. */
class EventLog
{
  public:
    net::LeaseObserver observer()
    {
        return [this](const net::LeaseEvent &event) {
            const std::lock_guard<std::mutex> lock(_mutex);
            _events.push_back(event);
        };
    }

    std::vector<net::LeaseEvent> snapshot() const
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        return _events;
    }

    bool sawKind(net::LeaseEvent::Kind kind) const
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        for (const net::LeaseEvent &event : _events)
            if (event.kind == kind)
                return true;
        return false;
    }

  private:
    mutable std::mutex _mutex;
    std::vector<net::LeaseEvent> _events;
};

/**
 * A scripted worker speaking the raw wire protocol, for driving the
 * controller into exact fault scenarios (silence, abrupt close, late
 * results) that a well-behaved runRemoteWorker never produces.
 */
class FakeWorker
{
  public:
    explicit FakeWorker(std::uint16_t port)
        : _fd(net::connectTcp("127.0.0.1", port))
    {
    }

    /** Answers the controller's HMAC challenge when non-empty. */
    std::string token;

    /** Send a Hello body as encoded and read the HelloAck. */
    net::HelloAck hello(const proc::Writer &body)
    {
        net::sendMessage(_fd.get(), net::MsgType::Hello,
                         body.bytes());
        std::vector<std::byte> payload;
        EXPECT_TRUE(net::recvMessage(_fd.get(), payload));
        proc::Reader in(payload);
        EXPECT_EQ(net::readType(in), net::MsgType::HelloAck);
        return net::HelloAck::deserialize(in);
    }

    /**
     * Full handshake: Hello -> HelloAck -> [AuthProof] -> JoinAck.
     * The returned HelloAck's accepted/reason reflect the final
     * verdict so callers can assert on one object.
     */
    net::HelloAck handshake(const std::string &name,
                            std::uint16_t slots = 1,
                            std::uint32_t magic = net::kWireMagic,
                            std::uint16_t version = net::kWireVersion)
    {
        net::Hello request;
        request.magic = magic;
        request.version = version;
        request.slots = slots;
        request.name = name;
        proc::Writer body;
        request.serialize(body);
        net::HelloAck ack = hello(body);
        if (!ack.accepted)
            return ack;
        if (ack.authRequired) {
            net::AuthProofMsg proof;
            proof.proof = net::authProof(token, ack.challenge, name);
            proc::Writer proof_body;
            proof.serialize(proof_body);
            net::sendMessage(_fd.get(), net::MsgType::AuthProof,
                             proof_body.bytes());
        }
        std::vector<std::byte> verdict_payload;
        if (!net::recvMessage(_fd.get(), verdict_payload)) {
            ack.accepted = false;
            ack.reason = "connection closed before join ack";
            return ack;
        }
        proc::Reader verdict_in(verdict_payload);
        EXPECT_EQ(net::readType(verdict_in), net::MsgType::JoinAck);
        const net::JoinAck verdict =
            net::JoinAck::deserialize(verdict_in);
        ack.accepted = verdict.accepted;
        if (!verdict.accepted)
            ack.reason = verdict.reason;
        return ack;
    }

    /** Block until the controller assigns a job. */
    bool readAssign(std::uint64_t &leaseId, proc::JobRequest &request)
    {
        std::vector<std::byte> payload;
        if (!net::recvMessage(_fd.get(), payload))
            return false;
        proc::Reader in(payload);
        if (net::readType(in) != net::MsgType::JobAssign)
            return false;
        leaseId = in.pod<std::uint64_t>();
        request = proc::JobRequest::deserialize(in);
        return true;
    }

    void sendDone(std::uint64_t leaseId, double cycles)
    {
        proc::JobResult result;
        result.status = proc::ResultStatus::Ok;
        result.cycles = cycles;
        proc::Writer body;
        body.pod(leaseId);
        result.serialize(body);
        net::sendMessage(_fd.get(), net::MsgType::JobDone,
                         body.bytes());
    }

    /**
     * Send one valid JobDone frame @p chunk bytes at a time with a
     * pause between writes, the way a congested or hostile peer
     * would deliver it.
     */
    void trickleDone(std::uint64_t leaseId, const proc::JobResult &result,
                     std::size_t chunk, std::chrono::milliseconds pause)
    {
        proc::Writer body;
        body.pod(leaseId);
        result.serialize(body);
        const auto size =
            static_cast<std::uint32_t>(1 + body.bytes().size());
        std::vector<char> frame(sizeof(size) + size);
        std::memcpy(frame.data(), &size, sizeof(size));
        frame[sizeof(size)] = static_cast<char>(net::MsgType::JobDone);
        std::memcpy(frame.data() + sizeof(size) + 1,
                    body.bytes().data(), body.bytes().size());
        for (std::size_t at = 0; at < frame.size(); at += chunk) {
            const std::size_t n = std::min(chunk, frame.size() - at);
            ASSERT_EQ(::send(_fd.get(), frame.data() + at, n,
                             MSG_NOSIGNAL),
                      static_cast<ssize_t>(n));
            std::this_thread::sleep_for(pause);
        }
    }

    void heartbeat()
    {
        net::sendMessage(_fd.get(), net::MsgType::Heartbeat);
    }

    void disconnect() { _fd.reset(); }

  private:
    net::OwnedFd _fd;
};

SimJob
makeJob(const rigor::trace::WorkloadProfile &profile,
        const std::string &label)
{
    SimJob job;
    job.workload = &profile;
    job.instructions = 1000;
    job.label = label;
    return job;
}

/** Launch execute() off-thread (it blocks until a worker answers). */
std::future<double>
executeAsync(net::CampaignController &controller, const SimJob &job,
             std::size_t jobIndex)
{
    return std::async(std::launch::async, [&controller, &job,
                                           jobIndex] {
        AttemptContext ctx;
        ctx.jobIndex = jobIndex;
        return controller.execute(job, ctx);
    });
}

} // namespace

TEST(NetController, HandshakeRejectsBadMagicAndEmptyName)
{
    net::CampaignController controller;
    ASSERT_NE(controller.port(), 0u);

    FakeWorker wrong_magic(controller.port());
    const net::HelloAck magic_ack =
        wrong_magic.handshake("w", 1, 0xdeadbeef);
    EXPECT_FALSE(magic_ack.accepted);
    EXPECT_NE(magic_ack.reason.find("magic"), std::string::npos);

    FakeWorker nameless(controller.port());
    const net::HelloAck name_ack = nameless.handshake("");
    EXPECT_FALSE(name_ack.accepted);
    EXPECT_NE(name_ack.reason.find("name"), std::string::npos);

    FakeWorker future_version(controller.port());
    const net::HelloAck version_ack = future_version.handshake(
        "w", 1, net::kWireMagic, net::kWireVersion + 1);
    EXPECT_FALSE(version_ack.accepted);
    EXPECT_NE(version_ack.reason.find("version"), std::string::npos);

    // A version-2 worker's Hello, as it encoded one: magic, version,
    // slots, name, session id, and an empty held-lease list.
    FakeWorker old_version(controller.port());
    proc::Writer v2_hello;
    v2_hello.pod(net::kWireMagic);
    v2_hello.pod(std::uint16_t{2});
    v2_hello.pod(std::uint16_t{1});
    v2_hello.str("old");
    v2_hello.str("old/session");
    v2_hello.pod(std::uint32_t{0});
    const net::HelloAck v2_ack = old_version.hello(v2_hello);
    EXPECT_FALSE(v2_ack.accepted);
    EXPECT_EQ(v2_ack.reason,
              "unsupported protocol version 2 (controller speaks 3)");

    EXPECT_EQ(controller.connectedWorkers(), 0u);
}

TEST(NetController, WaitForWorkersTimesOutWithoutAFleet)
{
    net::CampaignController controller;
    EXPECT_FALSE(controller.waitForWorkers(
        1, std::chrono::milliseconds(50)));
}

TEST(NetController, ExecutesJobsAcrossARealWorkerFleet)
{
    auto controller = std::make_unique<net::CampaignController>();
    const std::uint16_t port = controller->port();

    auto serve = [port](const std::string &name) {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = name;
        opts.simulate = stubResponse;
        const net::RemoteWorkerSession session =
            net::runRemoteWorker(opts);
        EXPECT_EQ(session.end, net::SessionEnd::Shutdown);
    };
    std::thread w1(serve, "w1");
    std::thread w2(serve, "w2");
    ASSERT_TRUE(controller->waitForWorkers(
        2, std::chrono::milliseconds(10000)));

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "fleet cell");
    std::vector<std::future<double>> results;
    for (std::size_t i = 0; i < 8; ++i)
        results.push_back(executeAsync(*controller, job, i));
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].get(), 1000.0 + static_cast<double>(i));

    // Provenance side channel: the serving worker's name comes back.
    AttemptContext ctx;
    ctx.jobIndex = 99;
    std::string host;
    ctx.hostOut = &host;
    EXPECT_EQ(controller->execute(job, ctx), 1099.0);
    EXPECT_TRUE(host == "w1" || host == "w2") << host;

    EXPECT_EQ(controller->leasesGranted(), 9u);
    EXPECT_EQ(controller->leasesReclaimed(), 0u);

    controller.reset(); // sends Shutdown to the fleet
    w1.join();
    w2.join();
}

TEST(NetController, HookedJobOnAWorkerWithoutHookFactoryFailsPermanent)
{
    auto controller = std::make_unique<net::CampaignController>();
    const std::uint16_t port = controller->port();
    std::thread worker([port] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "hookless";
        opts.simulate = stubResponse;
        EXPECT_EQ(net::runRemoteWorker(opts).end,
                  net::SessionEnd::Shutdown);
    });
    ASSERT_TRUE(controller->waitForWorkers(
        1, std::chrono::milliseconds(10000)));

    const rigor::trace::WorkloadProfile profile;
    SimJob job = makeJob(profile, "hooked cell");
    job.makeHook = [] {
        return std::unique_ptr<rigor::sim::ExecutionHook>();
    };
    AttemptContext ctx;
    EXPECT_THROW(controller->execute(job, ctx),
                 rigor::exec::PermanentFault);

    controller.reset();
    worker.join();
}

TEST(NetController, SilentWorkerLapsesAndCellMigratesThenLateResultIsDropped)
{
    net::ControllerOptions options;
    options.lease = std::chrono::milliseconds(300);
    options.heartbeat = std::chrono::milliseconds(50);
    EventLog events;
    auto controller =
        std::make_unique<net::CampaignController>(options);
    controller->setLeaseObserver(events.observer());

    // The silent worker handshakes and takes the cell, then never
    // heartbeats: its lease must lapse and the cell must requeue.
    FakeWorker silent(controller->port());
    ASSERT_TRUE(silent.handshake("silent").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "migrating cell");
    std::future<double> result = executeAsync(*controller, job, 3);

    std::uint64_t stale_lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(silent.readAssign(stale_lease, assigned));
    EXPECT_EQ(assigned.label, "migrating cell");

    // A healthy worker joins; once the lease lapses, the cell lands
    // on it — the engine's attempt never notices the migration.
    std::thread healthy([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "healthy";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    EXPECT_EQ(result.get(), 1003.0);
    EXPECT_GE(controller->leasesReclaimed(), 1u);
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::WorkerLapsed));
    EXPECT_TRUE(
        events.sawKind(net::LeaseEvent::Kind::LeaseReclaimed));
    bool reclaim_names_cell = false;
    for (const net::LeaseEvent &event : events.snapshot())
        if (event.kind == net::LeaseEvent::Kind::LeaseReclaimed &&
            event.label == "migrating cell" && event.requeues == 1)
            reclaim_names_cell = true;
    EXPECT_TRUE(reclaim_names_cell);

    // The stalled worker wakes up and answers on its reclaimed
    // lease: the result must be rejected, not double-recorded.
    silent.sendDone(stale_lease, 7777.0);
    EXPECT_TRUE(waitUntil(
        [&] { return controller->lateResults() == 1; }));
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::LateResult));

    controller.reset();
    healthy.join();
}

TEST(NetController, BrokenConnectionReclaimsLeaseAndMigrates)
{
    EventLog events;
    auto controller = std::make_unique<net::CampaignController>();
    controller->setLeaseObserver(events.observer());

    FakeWorker flaky(controller->port());
    ASSERT_TRUE(flaky.handshake("flaky").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "orphaned cell");
    std::future<double> result = executeAsync(*controller, job, 5);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(flaky.readAssign(lease, assigned));
    flaky.disconnect(); // mid-lease: controller must requeue

    std::thread rescuer([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "rescuer";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    EXPECT_EQ(result.get(), 1005.0);
    EXPECT_EQ(controller->leasesReclaimed(), 1u);
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::WorkerLost));
    EXPECT_TRUE(
        events.sawKind(net::LeaseEvent::Kind::LeaseReclaimed));

    controller.reset();
    rescuer.join();
}

TEST(NetController, MigrationCapEscalatesThroughTheFaultTaxonomy)
{
    net::ControllerOptions options;
    options.maxMigrations = 0; // first lost lease escalates
    net::CampaignController controller(options);

    FakeWorker doomed(controller.port());
    ASSERT_TRUE(doomed.handshake("doomed").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "hot-potato cell");
    std::future<double> result = executeAsync(controller, job, 0);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(doomed.readAssign(lease, assigned));
    doomed.disconnect();

    // The reclaim exhausts the migration budget, so the attempt
    // fails with the retryable taxonomy fault — FaultPolicy retry,
    // backoff, and quarantine upstream see a normal transient.
    try {
        result.get();
        FAIL() << "exhausted migrations must throw TransientFault";
    } catch (const TransientFault &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("hot-potato cell"), std::string::npos)
            << what;
        EXPECT_NE(what.find("lost its lease"), std::string::npos)
            << what;
    }
    EXPECT_EQ(controller.leasesReclaimed(), 1u);
}

TEST(NetController, HeartbeatsKeepASlowWorkerLeased)
{
    // The lease clock measures silence, not runtime: a worker that
    // holds one cell longer than the lease duration but keeps
    // heartbeating is never reclaimed.
    net::ControllerOptions options;
    options.lease = std::chrono::milliseconds(200);
    options.heartbeat = std::chrono::milliseconds(40);
    net::CampaignController controller(options);

    FakeWorker slow(controller.port());
    ASSERT_TRUE(slow.handshake("slow").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "slow cell");
    std::future<double> result = executeAsync(controller, job, 2);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(slow.readAssign(lease, assigned));
    const auto hold_until = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(600);
    while (std::chrono::steady_clock::now() < hold_until) {
        slow.heartbeat();
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    slow.sendDone(lease, 4242.0);

    EXPECT_EQ(result.get(), 4242.0);
    EXPECT_EQ(controller.leasesReclaimed(), 0u);
    EXPECT_EQ(controller.lateResults(), 0u);
}

TEST(NetController, TrickledResultFrameCompletesTheCellWithoutReclaim)
{
    // A result frame that arrives 7 bytes at a time is still one
    // frame: the controller's blocking reader rides it out, the cell
    // completes with that result, and no lease is reclaimed.
    EventLog events;
    net::CampaignController controller;
    controller.setLeaseObserver(events.observer());

    FakeWorker trickler(controller.port());
    ASSERT_TRUE(trickler.handshake("trickler").accepted);

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "trickled cell");
    std::future<double> result = executeAsync(controller, job, 7);

    std::uint64_t lease = 0;
    proc::JobRequest assigned;
    ASSERT_TRUE(trickler.readAssign(lease, assigned));
    proc::JobResult done;
    done.status = proc::ResultStatus::Ok;
    done.cycles = 3131.0;
    done.message = std::string(96, 'x'); // a frame of many chunks
    trickler.trickleDone(lease, done, 7, std::chrono::milliseconds(5));

    EXPECT_EQ(result.get(), 3131.0);
    EXPECT_EQ(controller.leasesReclaimed(), 0u);
    EXPECT_EQ(controller.lateResults(), 0u);
    EXPECT_FALSE(
        events.sawKind(net::LeaseEvent::Kind::LeaseReclaimed));
}

// ----- Injected network drills through a real worker -----

namespace
{

/** A worker whose executor raises the given net drill on attempt 1
 *  of every job whose label contains @p substring. */
struct DrilledWorker
{
    rigor::exec::FaultInjector injector;
    std::thread thread;
    net::RemoteWorkerSession session;

    void start(std::uint16_t port, const std::string &name,
               const std::string &substring,
               rigor::exec::FaultKind kind)
    {
        injector.addLabelFault(substring, 1, kind);
        thread = std::thread([this, port, name] {
            net::RemoteWorkerOptions opts;
            opts.port = port;
            opts.name = name;
            opts.simulate = injector.wrap(stubResponse);
            session = net::runRemoteWorker(opts);
        });
    }
};

} // namespace

TEST(NetControllerDrill, DropConnectionDrillMigratesTheCell)
{
    EventLog events;
    auto controller = std::make_unique<net::CampaignController>();
    controller->setLeaseObserver(events.observer());

    DrilledWorker dropper;
    dropper.start(controller->port(), "dropper", "drilled",
                  rigor::exec::FaultKind::DropConnection);
    ASSERT_TRUE(controller->waitForWorkers(
        1, std::chrono::milliseconds(10000)));

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "drilled cell");
    std::future<double> result = executeAsync(*controller, job, 4);
    ASSERT_TRUE(
        waitUntil([&] { return controller->leasesGranted() >= 1; }));

    std::thread survivor([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "survivor";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    EXPECT_EQ(result.get(), 1004.0);
    EXPECT_EQ(dropper.injector.netDrillsRaised(), 1u);
    EXPECT_GE(controller->leasesReclaimed(), 1u);
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::WorkerLost));
    EXPECT_TRUE(
        events.sawKind(net::LeaseEvent::Kind::LeaseReclaimed));
    dropper.thread.join();
    EXPECT_EQ(dropper.session.end, net::SessionEnd::ConnectionLost);

    controller.reset();
    survivor.join();
}

TEST(NetControllerDrill, StallHeartbeatDrillDrawsALateResultRejection)
{
    net::ControllerOptions options;
    options.lease = std::chrono::milliseconds(300);
    options.heartbeat = std::chrono::milliseconds(50);
    EventLog events;
    auto controller =
        std::make_unique<net::CampaignController>(options);
    controller->setLeaseObserver(events.observer());

    DrilledWorker staller;
    staller.start(controller->port(), "staller", "stalled",
                  rigor::exec::FaultKind::StallHeartbeat);
    ASSERT_TRUE(controller->waitForWorkers(
        1, std::chrono::milliseconds(10000)));

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "stalled cell");
    std::future<double> result = executeAsync(*controller, job, 6);
    ASSERT_TRUE(
        waitUntil([&] { return controller->leasesGranted() >= 1; }));

    std::thread healthy([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "healthy";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    // The healthy worker serves the reclaimed cell; the staller's
    // answer on the stale lease is rejected when it finally arrives.
    EXPECT_EQ(result.get(), 1006.0);
    EXPECT_TRUE(waitUntil(
        [&] { return controller->lateResults() == 1; }));
    EXPECT_EQ(staller.injector.netDrillsRaised(), 1u);
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::WorkerLapsed));
    EXPECT_TRUE(events.sawKind(net::LeaseEvent::Kind::LateResult));

    controller.reset();
    healthy.join();
    staller.thread.join();
    EXPECT_EQ(staller.session.end, net::SessionEnd::Shutdown);
}

TEST(NetControllerDrill, CorruptFrameDrillIsClassifiedAsTruncated)
{
    EventLog events;
    auto controller = std::make_unique<net::CampaignController>();
    controller->setLeaseObserver(events.observer());

    DrilledWorker corrupter;
    corrupter.start(controller->port(), "corrupter", "torn",
                    rigor::exec::FaultKind::CorruptFrame);
    ASSERT_TRUE(controller->waitForWorkers(
        1, std::chrono::milliseconds(10000)));

    const rigor::trace::WorkloadProfile profile;
    const SimJob job = makeJob(profile, "torn cell");
    std::future<double> result = executeAsync(*controller, job, 8);
    ASSERT_TRUE(
        waitUntil([&] { return controller->leasesGranted() >= 1; }));

    std::thread survivor([port = controller->port()] {
        net::RemoteWorkerOptions opts;
        opts.port = port;
        opts.name = "survivor";
        opts.simulate = stubResponse;
        (void)net::runRemoteWorker(opts);
    });

    EXPECT_EQ(result.get(), 1008.0);
    // The bounds-checked reader names the torn frame's byte counts
    // in the worker-lost cause.
    bool truncated_named = false;
    for (const net::LeaseEvent &event : events.snapshot())
        if (event.kind == net::LeaseEvent::Kind::WorkerLost &&
            event.worker == "corrupter" &&
            event.detail.find("truncated") != std::string::npos)
            truncated_named = true;
    EXPECT_TRUE(truncated_named);
    corrupter.thread.join();

    controller.reset();
    survivor.join();
}
