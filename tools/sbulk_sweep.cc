/**
 * @file
 * sbulk-sweep: run a cross-product of (applications x protocols x
 * processor counts) and emit one CSV row per run — the bulk data source
 * for plotting or regression-tracking the whole evaluation.
 *
 *   sbulk-sweep                          # 18 apps x 4 protocols x {32,64}
 *   sbulk-sweep --apps Radix,LU --procs 16,32,64 --protocols scalablebulk
 *   sbulk-sweep --chunks 640 --jobs 8 > sweep.csv
 *
 * Trace-driven sweeps (see WORKLOADS.md) swap the application axis for
 * serving scenarios or a recorded trace, and add per-tenant columns (one
 * "all" row plus one row per tenant, long format):
 *
 *   sbulk-sweep --scenario kv-zipf,staging-pipeline --procs 8 --tenants 4
 *   sbulk-sweep --trace run.sbt --protocols scalablebulk,tcc
 *
 * --jobs N runs up to N simulations concurrently; each worker owns a
 * private System and EventQueue, and rows are emitted in matrix order, so
 * the output is byte-identical to a serial run.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "sim/parallel.hh"
#include "system/experiment.hh"
#include "trace/io.hh"
#include "trace/scenarios.hh"

namespace
{

using namespace sbulk;

std::vector<std::string>
split(const std::string& list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string item =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

ProtocolKind
parseProtocol(const std::string& name)
{
    if (name == "scalablebulk") return ProtocolKind::ScalableBulk;
    if (name == "tcc") return ProtocolKind::TCC;
    if (name == "seq") return ProtocolKind::SEQ;
    if (name == "bulksc") return ProtocolKind::BulkSC;
    std::fprintf(stderr, "unknown protocol '%s'\n", name.c_str());
    std::exit(2);
}

/** Print the synopsis (to stdout for --help) and exit with @p code. */
[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: sbulk-sweep [--apps A,B] [--protocols P,Q] "
        "[--procs N,M] [--chunks N] [--seed N] [--jobs N] "
        "[--shards N] [--shard-map M] [--faults PLAN]\n"
        "                   [--scenario S,T | --trace FILE] "
        "[--tenants N] [--requests N]\n"
        "                   [--list-apps] [--list-scenarios] [--help]\n");
    std::exit(code);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace sbulk;

    std::vector<const AppSpec*> apps;
    std::vector<const atrace::ScenarioSpec*> scenarios;
    std::string tracePath;
    atrace::ScenarioParams scen;
    std::vector<ProtocolKind> protocols = {
        ProtocolKind::ScalableBulk, ProtocolKind::TCC, ProtocolKind::SEQ,
        ProtocolKind::BulkSC};
    std::vector<std::uint32_t> procs = {32, 64};
    bool procsSet = false;
    std::uint64_t chunks = 1280;
    bool chunksSet = false;
    std::uint64_t seed = 0;
    unsigned jobs = 1;
    std::uint32_t shards = 1;
    std::string shardMap;
    fault::FaultPlan faults;

    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        auto need = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            usage(0);
        } else if (!std::strcmp(a, "--apps")) {
            for (const std::string& name : split(need())) {
                const AppSpec* app = findApp(name);
                if (!app) {
                    std::fprintf(stderr, "unknown app '%s'\n",
                                 name.c_str());
                    return 2;
                }
                apps.push_back(app);
            }
        } else if (!std::strcmp(a, "--protocols")) {
            protocols.clear();
            for (const std::string& name : split(need()))
                protocols.push_back(parseProtocol(name));
        } else if (!std::strcmp(a, "--scenario") ||
                   !std::strcmp(a, "--scenarios")) {
            for (const std::string& name : split(need())) {
                const atrace::ScenarioSpec* spec =
                    atrace::findScenario(name);
                if (!spec) {
                    std::fprintf(stderr, "unknown scenario '%s' "
                                         "(--list-scenarios)\n",
                                 name.c_str());
                    return 2;
                }
                scenarios.push_back(spec);
            }
        } else if (!std::strcmp(a, "--trace")) {
            tracePath = need();
        } else if (!std::strcmp(a, "--tenants")) {
            scen.tenants = std::uint32_t(std::atoi(need()));
        } else if (!std::strcmp(a, "--requests")) {
            scen.requests = std::strtoull(need(), nullptr, 10);
        } else if (!std::strcmp(a, "--list-apps")) {
            for (const AppSpec& app : allApps())
                std::printf("%-14s %s\n", app.name.c_str(),
                            app.suite.c_str());
            return 0;
        } else if (!std::strcmp(a, "--list-scenarios")) {
            for (const atrace::ScenarioSpec& s : atrace::allScenarios())
                std::printf("%-18s %-9s %s\n", s.name, s.family,
                            s.summary);
            return 0;
        } else if (!std::strcmp(a, "--procs")) {
            procs.clear();
            for (const std::string& item : split(need()))
                procs.push_back(std::uint32_t(std::atoi(item.c_str())));
            procsSet = true;
        } else if (!std::strcmp(a, "--chunks")) {
            chunks = std::strtoull(need(), nullptr, 10);
            chunksSet = true;
        } else if (!std::strcmp(a, "--seed")) {
            seed = std::strtoull(need(), nullptr, 10);
        } else if (!std::strcmp(a, "--jobs")) {
            jobs = unsigned(std::atoi(need()));
            if (jobs == 0)
                jobs = defaultJobs();
        } else if (!std::strcmp(a, "--shards")) {
            shards = std::uint32_t(std::atoi(need()));
        } else if (!std::strcmp(a, "--shard-map")) {
            shardMap = need();
        } else if (!std::strcmp(a, "--faults")) {
            std::string err;
            if (!fault::FaultPlan::parse(need(), faults, &err)) {
                std::fprintf(stderr, "bad fault plan: %s\n", err.c_str());
                return 2;
            }
        } else {
            usage(2);
        }
    }
    if (!scenarios.empty() && !tracePath.empty()) {
        std::fprintf(stderr,
                     "--scenario and --trace are mutually exclusive\n");
        return 2;
    }
    // Keep runner workers x shard threads within the machine's cores:
    // each of the --jobs sweep workers spawns `shards` event threads.
    setShardThreadFactor(shards);

    const bool traced = !scenarios.empty() || !tracePath.empty();
    if (!apps.empty() && traced) {
        std::fprintf(stderr, "--apps cannot combine with --scenario or "
                             "--trace\n");
        return 2;
    }
    if (apps.empty() && !traced)
        for (const AppSpec& app : allApps())
            apps.push_back(&app);
    if (traced) {
        if (seed != 0)
            scen.seed = seed;
        if (!chunksSet)
            chunks = 0; // defer to the trace's own work budget
    }
    if (!tracePath.empty()) {
        // The trace dictates the machine size: read its header up front.
        std::ifstream in(tracePath, std::ios::binary);
        atrace::TraceReader reader;
        std::string err;
        if (!in) {
            std::fprintf(stderr, "cannot open trace '%s'\n",
                         tracePath.c_str());
            return 1;
        }
        if (!reader.open(in, &err)) {
            std::fprintf(stderr, "%s: %s\n", tracePath.c_str(),
                         err.c_str());
            return 1;
        }
        if (!procsSet)
            procs = {reader.header().numCores};
    }

    struct Cell
    {
        const AppSpec* app;
        const atrace::ScenarioSpec* scenario;
        ProtocolKind proto;
        std::uint32_t procs;
    };
    std::vector<Cell> matrix;
    if (!scenarios.empty()) {
        for (const atrace::ScenarioSpec* s : scenarios)
            for (ProtocolKind proto : protocols)
                for (std::uint32_t p : procs)
                    matrix.push_back(Cell{nullptr, s, proto, p});
    } else if (!tracePath.empty()) {
        for (ProtocolKind proto : protocols)
            for (std::uint32_t p : procs)
                matrix.push_back(Cell{nullptr, nullptr, proto, p});
    } else {
        for (const AppSpec* app : apps)
            for (ProtocolKind proto : protocols)
                for (std::uint32_t p : procs)
                    matrix.push_back(Cell{app, nullptr, proto, p});
    }

    // Each worker simulates into a private System/EventQueue and renders
    // its row into the slot for its matrix index; rows are printed in
    // matrix order afterwards, so output is identical at any --jobs.
    std::vector<std::string> rows(matrix.size());
    parallelFor(matrix.size(), jobs, [&](std::size_t i) {
        const Cell& cell = matrix[i];
        RunConfig cfg;
        cfg.procs = cell.procs;
        cfg.protocol = cell.proto;
        cfg.totalChunks = chunks;
        cfg.seedOverride = seed;
        cfg.shards = shards;
        cfg.shardMap = shardMap;
        cfg.faults = faults;
        const char* suite = "trace";
        if (cell.scenario) {
            cfg.scenario = cell.scenario->name;
            cfg.scenarioParams = scen;
            suite = cell.scenario->family;
        } else if (!tracePath.empty()) {
            cfg.tracePath = tracePath;
        } else {
            cfg.app = cell.app;
            suite = cell.app->suite.c_str();
        }
        const RunResult r = runExperiment(cfg);
        const double total = r.breakdown.total();
        char buf[640];
        int len = std::snprintf(
            buf, sizeof(buf),
            "%s,%s,%s,%u,%llu,%llu,%llu,%.4f,%.4f,%.4f,%.4f,%.1f,"
            "%llu,%.2f,%.2f,%.2f,%.2f,%llu,%llu,%llu,%llu,%llu,"
            "%.4f",
            r.app.c_str(), suite,
            protocolName(cell.proto), cell.procs,
            (unsigned long long)r.seed,
            (unsigned long long)r.makespan,
            (unsigned long long)r.commits,
            r.breakdown.useful / total,
            r.breakdown.cacheMiss / total,
            r.breakdown.commit / total,
            r.breakdown.squash / total, r.commitLatencyMean,
            (unsigned long long)r.commitLatency.percentile(0.9),
            r.dirsPerCommitMean, r.writeDirsPerCommitMean,
            r.bottleneckRatio, r.chunkQueueLength,
            (unsigned long long)r.commitFailures,
            (unsigned long long)r.squashesTrueConflict,
            (unsigned long long)r.squashesAliasing,
            (unsigned long long)r.commitRecalls,
            (unsigned long long)r.traffic.totalMessages(),
            r.loads ? double(r.l1Hits) / double(r.loads) : 0.0);
        // Degradation columns exist only under --faults, so the default
        // CSV stays byte-identical to the pre-fault sweep.
        if (faults.enabled()) {
            len += std::snprintf(
                buf + len, sizeof(buf) - std::size_t(len),
                ",%llu,%llu,%llu,%llu,%llu,%.1f",
                (unsigned long long)r.faultsInjected,
                (unsigned long long)r.retransmissions,
                (unsigned long long)r.dupsDropped,
                (unsigned long long)r.watchdogFires,
                (unsigned long long)r.retryEscalations,
                r.recoveryLatencyMean);
        }
        if (!traced) {
            std::snprintf(buf + len, sizeof(buf) - std::size_t(len),
                          "\n");
            rows[i] = buf;
            return;
        }
        // Per-tenant long format: every tenant (plus an "all" aggregate)
        // repeats the run columns, so each line is self-describing.
        const std::string base(buf, std::size_t(len));
        const auto tenantLine = [&](const std::string& tenant,
                                    std::uint64_t commits,
                                    std::uint64_t squashes,
                                    std::uint64_t p50, std::uint64_t p99) {
            char tb[192];
            const std::uint64_t attempts = commits + squashes;
            std::snprintf(tb, sizeof(tb),
                          ",%s,%llu,%llu,%llu,%llu,%.4f,%.4f\n",
                          tenant.c_str(), (unsigned long long)commits,
                          (unsigned long long)squashes,
                          (unsigned long long)p50,
                          (unsigned long long)p99,
                          attempts ? double(squashes) / double(attempts)
                                   : 0.0,
                          r.makespan ? 1e6 * double(commits) /
                                           double(r.makespan)
                                     : 0.0);
            return base + tb;
        };
        std::string out =
            tenantLine("all", r.commits, r.chunksSquashed,
                       r.commitLatency.percentile(0.50),
                       r.commitLatency.percentile(0.99));
        for (const RunResult::TenantStats& t : r.tenants) {
            out += tenantLine(std::to_string(t.tenant), t.commits,
                              t.squashes, t.commitLatency.percentile(0.50),
                              t.commitLatency.percentile(0.99));
        }
        rows[i] = out;
    });

    std::printf("app,suite,protocol,procs,seed,makespan,commits,usefulFrac,"
                "cacheMissFrac,commitFrac,squashFrac,latMean,latP90,dirs,"
                "writeDirs,bottleneck,queue,failures,squashTrue,"
                "squashAlias,recalls,messages,l1HitRate%s%s\n",
                faults.enabled() ? ",faultsInjected,retransmissions,"
                                   "dupsDropped,watchdogFires,"
                                   "retryEscalations,recoveryLatMean"
                                 : "",
                traced ? ",tenant,tenantCommits,tenantSquashes,tenantP50,"
                         "tenantP99,tenantSquashRate,tenantTput"
                       : "");
    for (const std::string& row : rows)
        std::fputs(row.c_str(), stdout);
    return 0;
}
