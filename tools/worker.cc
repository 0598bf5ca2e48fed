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
 * network kinds (drop-connection, stall-heartbeat, corrupt-frame)
 * that exercise the controller's lease reclaim and late-result paths.
 * --auth-token-file answers the controller's HMAC challenge.
 *
 * One run serves one connection: a worker whose connection breaks is
 * lost to the campaign (its cells are requeued elsewhere) and exits 1.
 *
 * Exit codes: 0 controller shutdown (clean end), 1 connect failure,
 * lost connection, or rejected handshake, 2 usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "cli_options.hh"
#include "exec/fault_injection.hh"
#include "exec/net/auth.hh"
#include "exec/net/remote_worker.hh"
#include "exec/proc/worker_pool.hh"

namespace
{

namespace tools = rigor::tools;

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
        if (!cli.authTokenFile.empty())
            opts.authToken =
                rigor::exec::net::loadAuthToken(cli.authTokenFile);

        const rigor::exec::net::RemoteWorkerSession outcome =
            rigor::exec::net::runRemoteWorker(opts);
        std::fprintf(stderr,
                     "worker: connection ended (%s), %llu job(s) "
                     "served%s%s\n",
                     rigor::exec::net::toString(outcome.end).c_str(),
                     static_cast<unsigned long long>(outcome.jobsServed),
                     outcome.error.empty() ? "" : ": ",
                     outcome.error.c_str());
        return outcome.end == rigor::exec::net::SessionEnd::Shutdown
                   ? 0
                   : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "worker: %s\n", e.what());
        return 1;
    }
}
