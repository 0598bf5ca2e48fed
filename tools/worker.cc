/**
 * @file
 * worker — TCP worker daemon of the distributed campaign backend.
 *
 * Connects to a `campaign --listen` controller, handshakes, and
 * serves leased simulation jobs until the controller shuts the
 * campaign down:
 *
 *     worker --connect 127.0.0.1:7000
 *     worker --connect host:7000 --slots 4 --name rack2-a
 *     worker --connect host:7000 --isolation process \
 *            --mem-limit-mb 512 --hard-deadline-ms 2000
 *     worker --connect host:7000 --inject-label \
 *            "mcf:":1:drop-connection          # reclaim drill
 *
 * Under --isolation process the attempts run in this daemon's own
 * forked sandbox pool, so a SIGSEGV or OOM costs one attempt, not
 * the daemon; under thread (the default) they run in-process.
 * --inject-label drills raise deterministic faults — including the
 * network kinds (drop-connection, stall-heartbeat, corrupt-frame,
 * partition, reconnect-storm, slow-loris, duplicate-session,
 * token-mismatch) that exercise the controller's lease reclaim,
 * session resume, auth, and late-result paths.
 *
 * Hardening: --auth-token-file answers the controller's HMAC
 * challenge; --reconnect N rides out broken connections by resuming
 * the same session (held leases hand back, no requeue) when the
 * controller's grace window allows; SIGTERM drains gracefully — the
 * worker announces Drain, finishes held cells, and exits 0.
 *
 * Exit codes: 0 controller shutdown or drain (clean end), 1 session
 * failure (connection lost past --reconnect, handshake rejected),
 * 2 usage error.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli_options.hh"
#include "exec/fault_injection.hh"
#include "exec/net/auth.hh"
#include "exec/net/remote_worker.hh"
#include "exec/proc/worker_pool.hh"

namespace
{

namespace tools = rigor::tools;

/** Set by the SIGTERM handler; watched by the worker's heartbeat
 *  thread, which announces the drain to the controller. */
std::atomic<bool> g_drainRequested{false};

void
requestDrain(int)
{
    g_drainRequested.store(true);
}

/** Everything worker's flag table binds into. */
struct CliOptions
{
    rigor::exec::net::RemoteWorkerOptions remote;
    rigor::exec::IsolationMode isolation =
        rigor::exec::IsolationMode::Thread;
    /** Process isolation: the local sandbox pool's caps. */
    rigor::exec::proc::ProcWorkerPool::Options pool;
    std::string authTokenFile;
    rigor::exec::FaultInjector injector;
};

tools::FlagTable
workerTable(CliOptions &cli)
{
    rigor::exec::net::RemoteWorkerOptions &remote = cli.remote;
    return {
        {"--connect", "HOST:PORT", "controller endpoint (required)",
         [&remote](const std::string &value) {
             return tools::parseEndpoint(value, remote.host, remote.port)
                        ? std::string()
                        : "want HOST:PORT";
         }},
        {"--slots", "N", "concurrent jobs to hold (default 1)",
         tools::unsignedInto(remote.slots, tools::Bound::Positive)},
        {"--name", "S",
         "worker identity recorded as cell\n"
         "provenance (default hostname:pid)",
         tools::textInto(remote.name)},
        tools::isolationFlag(cli.isolation, false),
        tools::memLimitFlag(cli.pool.memLimitMb),
        tools::hardDeadlineFlag(cli.pool.hardDeadline),
        {"--reconnect", "N",
         "after a lost connection, reconnect\n"
         "and resume the session up to N\n"
         "times (held leases hand back when\n"
         "the controller's grace allows)",
         tools::unsignedInto(remote.reconnectAttempts)},
        tools::authTokenFileFlag(cli.authTokenFile),
        tools::injectLabelFlag(cli.injector),
    };
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    const tools::FlagTable table = workerTable(cli);
    bool parsed = tools::parseFlags(
        table, std::vector<std::string>(argv + 1, argv + argc), "worker");
    if (parsed && cli.remote.port == 0) {
        std::fprintf(stderr,
                     "worker: --connect HOST:PORT is required\n");
        parsed = false;
    }
    if (!parsed)
        return tools::usage(
            argv[0], "--connect HOST:PORT [options]",
            "Serve leased simulation jobs for a distributed campaign\n"
            "controller (campaign --listen) until it shuts down.\n",
            table);

    try {
        // The attempt executor served to the controller: the
        // in-process simulator, optionally behind a local sandbox
        // pool (process isolation), optionally behind the drill
        // injector — drills raised here run on the worker, so the
        // network kinds misbehave on the live connection.
        rigor::exec::SimulateFn simulate;
        std::unique_ptr<rigor::exec::proc::ProcWorkerPool> pool;
        if (cli.isolation ==
            rigor::exec::IsolationMode::Process) {
            cli.pool.workers = cli.remote.slots;
            pool = std::make_unique<
                rigor::exec::proc::ProcWorkerPool>(
                std::move(cli.pool));
            simulate = pool->simulateFn();
        }

        if (cli.injector.plannedFaults() != 0)
            simulate = cli.injector.wrap(std::move(simulate));

        rigor::exec::net::RemoteWorkerOptions &opts = cli.remote;
        opts.simulate = std::move(simulate);
        opts.drainFlag = &g_drainRequested;
        if (!cli.authTokenFile.empty())
            opts.authToken =
                rigor::exec::net::loadAuthToken(cli.authTokenFile);
        std::signal(SIGTERM, requestDrain);

        // Mid-session reconnects (with lease handback) happen inside
        // runRemoteWorker; this loop only retries the initial connect,
        // drawing on the same --reconnect budget.
        unsigned connect_tries = opts.reconnectAttempts + 1;
        rigor::exec::net::RemoteWorkerSession session;
        while (true) {
            try {
                session = rigor::exec::net::runRemoteWorker(opts);
                break;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "worker: %s\n", e.what());
                if (--connect_tries == 0)
                    return 1;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
            }
        }
        std::fprintf(
            stderr,
            "worker: session ended (%s), %llu job(s) served, "
            "%u resume(s)%s%s\n",
            rigor::exec::net::toString(session.end).c_str(),
            static_cast<unsigned long long>(session.jobsServed),
            session.resumes,
            session.error.empty() ? "" : ": ",
            session.error.c_str());
        switch (session.end) {
          case rigor::exec::net::SessionEnd::Shutdown:
          case rigor::exec::net::SessionEnd::Drained:
            return 0;
          case rigor::exec::net::SessionEnd::ConnectionLost:
          case rigor::exec::net::SessionEnd::Rejected:
            return 1;
        }
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "worker: %s\n", e.what());
        return 1;
    }
}
