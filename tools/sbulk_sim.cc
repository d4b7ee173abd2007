/**
 * @file
 * sbulk-sim: command-line front end to the simulator.
 *
 * Runs one experiment — an application model (or fully custom synthetic
 * parameters) on a chosen protocol and machine size — and reports every
 * metric of the paper's evaluation, as a human-readable report or CSV.
 *
 *   sbulk-sim --app Radix --protocol tcc --procs 64
 *   sbulk-sim --app Canneal --procs 32 --protocol scalablebulk --csv
 *   sbulk-sim --list
 *   sbulk-sim --custom --shared-fraction 0.5 --hot-fraction 0.05
 *
 * Every knob of SyntheticParams, ProtoConfig, and the machine geometry is
 * reachable; run with --help for the full set.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <iostream>

#include "sim/parallel.hh"
#include "sim/trace.hh"
#include "trace/io.hh"
#include "system/experiment.hh"
#include "trace/scenarios.hh"
#include "workload/apps.hh"
#include "workload/synthetic.hh"

namespace
{

using namespace sbulk;

struct CliOptions
{
    std::string app = "Radix";
    bool custom = false;
    SyntheticParams customParams{};
    std::string tracePath;
    std::string scenario;
    atrace::ScenarioParams scen{};
    std::string recordPath;
    std::uint32_t procs = 64;
    bool procsSet = false;
    std::uint32_t shards = 1;
    std::string shardMap;
    bool chunksSet = false;
    ProtocolKind protocol = ProtocolKind::ScalableBulk;
    std::uint64_t totalChunks = 1280;
    std::uint32_t chunkInstrs = 2000;
    ProtoConfig proto{};
    SigConfig sig{};
    std::uint64_t seed = 0;
    bool csv = false;
    bool histogram = false;
    bool fullStats = false;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: sbulk-sim [options]\n"
        "  --list, --list-apps        list the 18 application models\n"
        "  --list-scenarios           list the serving-scenario library\n"
        "  --app NAME                 application model (default Radix)\n"
        "  --custom                   use a custom synthetic workload\n"
        "  --trace FILE               replay an access trace "
        "(WORKLOADS.md)\n"
        "  --scenario NAME            generate + replay a serving "
        "scenario\n"
        "  --tenants N --requests N   scenario knobs (with --scenario)\n"
        "  --record FILE              capture this run's op streams to a "
        "trace\n"
        "  --procs N                  processors, 1..4096 (default 64)\n"
        "  --shards N                 parallel-in-run event-kernel shards\n"
        "                             (default 1 = serial; stats identical\n"
        "                             for any shard count >= 2)\n"
        "  --shard-map M              tile->shard map under --shards >= 2:\n"
        "                             contiguous (default), balanced\n"
        "                             (profile-guided warmup), or\n"
        "                             file:<path> (stats identical for\n"
        "                             every map; the report echoes the\n"
        "                             map in file: format)\n"
        "  --protocol P               scalablebulk | tcc | seq | bulksc\n"
        "  --chunks N                 total chunks of work (default 1280)\n"
        "  --chunk-instrs N           chunk size (default 2000)\n"
        "  --sig-bits N               signature size in bits (default 2048)\n"
        "  --seed N                   workload RNG seed override (nonzero)\n"
        "  --no-oci                   disable optimistic commit initiation\n"
        "  --starvation-max N         reservation threshold (default 24)\n"
        "  --rotation N               leader-rotation interval, cycles\n"
        "  --retry-delay N            commit retry backoff base (cycles)\n"
        "  --csv                      one CSV row instead of the report\n"
        "  --debug CATS               debug trace categories to stderr\n"
        "                             (commit,group,inv,squash,read or all)\n"
        "  --histogram                also print the commit-latency histogram\n"
        "  --stats                    dump every component's statistics\n"
        "custom workload knobs (with --custom):\n"
        "  --mem-fraction F --write-fraction F --shared-fraction F\n"
        "  --shared-write-fraction F --hot-fraction F --hot-lines N\n"
        "  --private-pages N --shared-pages N --temporal-reuse F\n");
    std::exit(code);
}

ProtocolKind
parseProtocol(const char* name)
{
    if (!std::strcmp(name, "scalablebulk")) return ProtocolKind::ScalableBulk;
    if (!std::strcmp(name, "tcc")) return ProtocolKind::TCC;
    if (!std::strcmp(name, "seq")) return ProtocolKind::SEQ;
    if (!std::strcmp(name, "bulksc")) return ProtocolKind::BulkSC;
    std::fprintf(stderr, "unknown protocol '%s'\n", name);
    usage(2);
}

CliOptions
parseArgs(int argc, char** argv)
{
    CliOptions opt;
    auto need = [&](int& i) -> const char* {
        if (i + 1 >= argc)
            usage(2);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            usage(0);
        } else if (!std::strcmp(a, "--list") ||
                   !std::strcmp(a, "--list-apps")) {
            for (const auto& app : allApps())
                std::printf("%-14s %s\n", app.name.c_str(),
                            app.suite.c_str());
            std::exit(0);
        } else if (!std::strcmp(a, "--list-scenarios")) {
            for (const atrace::ScenarioSpec& s : atrace::allScenarios())
                std::printf("%-18s %-9s %s\n", s.name, s.family,
                            s.summary);
            std::exit(0);
        } else if (!std::strcmp(a, "--app")) {
            opt.app = need(i);
        } else if (!std::strcmp(a, "--custom")) {
            opt.custom = true;
        } else if (!std::strcmp(a, "--trace")) {
            opt.tracePath = need(i);
        } else if (!std::strcmp(a, "--scenario")) {
            opt.scenario = need(i);
        } else if (!std::strcmp(a, "--tenants")) {
            opt.scen.tenants = std::uint32_t(std::atoi(need(i)));
        } else if (!std::strcmp(a, "--requests")) {
            opt.scen.requests = std::strtoull(need(i), nullptr, 10);
        } else if (!std::strcmp(a, "--record")) {
            opt.recordPath = need(i);
        } else if (!std::strcmp(a, "--procs")) {
            opt.procs = std::uint32_t(std::atoi(need(i)));
            opt.procsSet = true;
        } else if (!std::strcmp(a, "--shards")) {
            opt.shards = std::uint32_t(std::atoi(need(i)));
        } else if (!std::strcmp(a, "--shard-map")) {
            opt.shardMap = need(i);
        } else if (!std::strcmp(a, "--protocol")) {
            opt.protocol = parseProtocol(need(i));
        } else if (!std::strcmp(a, "--chunks")) {
            opt.totalChunks = std::strtoull(need(i), nullptr, 10);
            opt.chunksSet = true;
        } else if (!std::strcmp(a, "--chunk-instrs")) {
            opt.chunkInstrs = std::uint32_t(std::atoi(need(i)));
        } else if (!std::strcmp(a, "--sig-bits")) {
            opt.sig.totalBits = std::uint32_t(std::atoi(need(i)));
        } else if (!std::strcmp(a, "--seed")) {
            opt.seed = std::strtoull(need(i), nullptr, 10);
        } else if (!std::strcmp(a, "--no-oci")) {
            opt.proto.oci = false;
        } else if (!std::strcmp(a, "--starvation-max")) {
            opt.proto.starvationMax = std::uint32_t(std::atoi(need(i)));
        } else if (!std::strcmp(a, "--rotation")) {
            opt.proto.leaderRotationInterval =
                std::strtoull(need(i), nullptr, 10);
        } else if (!std::strcmp(a, "--retry-delay")) {
            opt.proto.commitRetryDelay =
                std::strtoull(need(i), nullptr, 10);
        } else if (!std::strcmp(a, "--debug")) {
            if (!trace::enableList(need(i))) {
                std::fprintf(stderr, "unknown trace category\n");
                usage(2);
            }
        } else if (!std::strcmp(a, "--csv")) {
            opt.csv = true;
        } else if (!std::strcmp(a, "--histogram")) {
            opt.histogram = true;
        } else if (!std::strcmp(a, "--stats")) {
            opt.fullStats = true;
        } else if (!std::strcmp(a, "--mem-fraction")) {
            opt.customParams.memFraction = std::atof(need(i));
        } else if (!std::strcmp(a, "--write-fraction")) {
            opt.customParams.writeFraction = std::atof(need(i));
        } else if (!std::strcmp(a, "--shared-fraction")) {
            opt.customParams.sharedFraction = std::atof(need(i));
        } else if (!std::strcmp(a, "--shared-write-fraction")) {
            opt.customParams.sharedWriteFraction = std::atof(need(i));
        } else if (!std::strcmp(a, "--hot-fraction")) {
            opt.customParams.hotFraction = std::atof(need(i));
        } else if (!std::strcmp(a, "--hot-lines")) {
            opt.customParams.hotLines = std::uint32_t(std::atoi(need(i)));
        } else if (!std::strcmp(a, "--private-pages")) {
            opt.customParams.privatePages =
                std::uint32_t(std::atoi(need(i)));
        } else if (!std::strcmp(a, "--shared-pages")) {
            opt.customParams.sharedPages =
                std::uint32_t(std::atoi(need(i)));
        } else if (!std::strcmp(a, "--temporal-reuse")) {
            opt.customParams.temporalReuse = std::atof(need(i));
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a);
            usage(2);
        }
    }
    return opt;
}

void
printReport(const CliOptions& opt, const RunResult& r)
{
    const double total = r.breakdown.total();
    std::printf("application      %s\n", r.app.c_str());
    std::printf("protocol         %s\n", protocolName(r.protocol));
    std::printf("processors       %u\n", r.procs);
    std::printf("seed             %llu\n", (unsigned long long)r.seed);
    std::printf("simulated time   %llu cycles\n",
                (unsigned long long)r.makespan);
    std::printf("chunks committed %llu\n", (unsigned long long)r.commits);
    std::printf("\n-- execution breakdown --\n");
    std::printf("useful           %6.2f%%\n",
                100 * r.breakdown.useful / total);
    std::printf("cache miss       %6.2f%%\n",
                100 * r.breakdown.cacheMiss / total);
    std::printf("commit           %6.2f%%\n",
                100 * r.breakdown.commit / total);
    std::printf("squash           %6.2f%%\n",
                100 * r.breakdown.squash / total);
    std::printf("\n-- commit behaviour --\n");
    std::printf("mean latency     %.1f cycles (p90 %llu, max %llu)\n",
                r.commitLatencyMean,
                (unsigned long long)r.commitLatency.percentile(0.9),
                (unsigned long long)r.commitLatency.max());
    std::printf("dirs per commit  %.2f (write group %.2f)\n",
                r.dirsPerCommitMean, r.writeDirsPerCommitMean);
    std::printf("bottleneck ratio %.2f\n", r.bottleneckRatio);
    std::printf("queue length     %.2f\n", r.chunkQueueLength);
    std::printf("failures/retries %llu\n",
                (unsigned long long)r.commitFailures);
    std::printf("squashes         %llu true, %llu aliasing, %llu recalls\n",
                (unsigned long long)r.squashesTrueConflict,
                (unsigned long long)r.squashesAliasing,
                (unsigned long long)r.commitRecalls);
    std::printf("\n-- memory & network --\n");
    std::printf("L1 hit rate      %.2f%%\n",
                r.loads ? 100.0 * double(r.l1Hits) / double(r.loads) : 0.0);
    std::printf("L2 misses        %llu\n", (unsigned long long)r.l2Misses);
    std::printf("messages         %llu  (large commit %llu, small commit "
                "%llu)\n",
                (unsigned long long)r.traffic.totalMessages(),
                (unsigned long long)r.traffic.messages(
                    MsgClass::LargeCMessage),
                (unsigned long long)r.traffic.messages(
                    MsgClass::SmallCMessage));

    if (!r.shardStats.empty()) {
        std::printf("\n-- parallel kernel (%zu shards, %.3fs wall) --\n",
                    r.shardStats.size(), r.shardWallSec);
        std::printf("%-8s %12s %10s %8s %9s %6s %6s\n", "shard",
                    "events", "windows", "empty", "busySec", "util",
                    "stall");
        for (std::size_t s = 0; s < r.shardStats.size(); ++s) {
            const auto& st = r.shardStats[s];
            std::printf("%-8zu %12llu %10llu %8llu %9.3f %5.1f%% "
                        "%5.1f%%\n",
                        s, (unsigned long long)st.events,
                        (unsigned long long)st.windows,
                        (unsigned long long)st.emptyWindows, st.busySec,
                        r.shardWallSec > 0
                            ? 100.0 * st.busySec / r.shardWallSec
                            : 0.0,
                        r.shardWallSec > 0
                            ? 100.0 * st.stallSec / r.shardWallSec
                            : 0.0);
        }
        // The echoed map is `--shard-map file:` input: paste it into a
        // file to replay this exact partition.
        std::printf("map (%s): %s\n", r.shardMapMode.c_str(),
                    formatShardMap(r.shardMap).c_str());
    }

    if (r.traced && !r.tenants.empty()) {
        std::printf("\n-- per-tenant serving metrics --\n");
        std::printf("%-8s %10s %9s %8s %8s %8s %10s\n", "tenant",
                    "commits", "squashes", "p50", "p99", "sqRate",
                    "req/Mcyc");
        for (const RunResult::TenantStats& t : r.tenants) {
            const std::uint64_t attempts = t.commits + t.squashes;
            std::printf("%-8u %10llu %9llu %8llu %8llu %8.4f %10.2f\n",
                        t.tenant, (unsigned long long)t.commits,
                        (unsigned long long)t.squashes,
                        (unsigned long long)t.commitLatency.percentile(
                            0.50),
                        (unsigned long long)t.commitLatency.percentile(
                            0.99),
                        attempts ? double(t.squashes) / double(attempts)
                                 : 0.0,
                        r.makespan ? 1e6 * double(t.commits) /
                                         double(r.makespan)
                                   : 0.0);
        }
    }

    if (opt.histogram) {
        std::printf("\n-- commit latency histogram --\n");
        const auto& hist = r.commitLatency;
        const double n = double(hist.count());
        for (std::size_t b = 0; b < hist.buckets().size(); ++b) {
            const double pct = n ? 100.0 * double(hist.buckets()[b]) / n
                                 : 0.0;
            if (pct < 0.05)
                continue;
            std::printf("  [%6zu..%6zu) %6.2f%% ",
                        b * hist.bucketWidth(),
                        (b + 1) * hist.bucketWidth(), pct);
            for (int k = 0; k < int(pct); ++k)
                std::printf("#");
            std::printf("\n");
        }
    }
}

void
printCsv(const RunResult& r)
{
    std::printf("app,protocol,procs,seed,makespan,commits,useful,cacheMiss,"
                "commit,squash,latMean,dirs,writeDirs,bottleneck,queue,"
                "failures,squashTrue,squashAlias,recalls,messages%s\n",
                r.traced ? ",tenant,tenantCommits,tenantSquashes,"
                           "tenantP50,tenantP99,tenantSquashRate,"
                           "tenantTput"
                         : "");
    const double total = r.breakdown.total();
    char base[512];
    std::snprintf(base, sizeof(base),
                  "%s,%s,%u,%llu,%llu,%llu,%.4f,%.4f,%.4f,%.4f,%.1f,%.2f,"
                  "%.2f,%.2f,%.2f,%llu,%llu,%llu,%llu,%llu",
                  r.app.c_str(), protocolName(r.protocol), r.procs,
                  (unsigned long long)r.seed,
                  (unsigned long long)r.makespan,
                  (unsigned long long)r.commits, r.breakdown.useful / total,
                  r.breakdown.cacheMiss / total, r.breakdown.commit / total,
                  r.breakdown.squash / total, r.commitLatencyMean,
                  r.dirsPerCommitMean, r.writeDirsPerCommitMean,
                  r.bottleneckRatio, r.chunkQueueLength,
                  (unsigned long long)r.commitFailures,
                  (unsigned long long)r.squashesTrueConflict,
                  (unsigned long long)r.squashesAliasing,
                  (unsigned long long)r.commitRecalls,
                  (unsigned long long)r.traffic.totalMessages());
    if (!r.traced) {
        std::printf("%s\n", base);
        return;
    }
    const auto tenantRow = [&](const char* tenant, std::uint64_t commits,
                               std::uint64_t squashes, std::uint64_t p50,
                               std::uint64_t p99) {
        const std::uint64_t attempts = commits + squashes;
        std::printf("%s,%s,%llu,%llu,%llu,%llu,%.4f,%.4f\n", base, tenant,
                    (unsigned long long)commits,
                    (unsigned long long)squashes, (unsigned long long)p50,
                    (unsigned long long)p99,
                    attempts ? double(squashes) / double(attempts) : 0.0,
                    r.makespan ? 1e6 * double(commits) / double(r.makespan)
                               : 0.0);
    };
    tenantRow("all", r.commits, r.chunksSquashed,
              r.commitLatency.percentile(0.50),
              r.commitLatency.percentile(0.99));
    for (const RunResult::TenantStats& t : r.tenants) {
        tenantRow(std::to_string(t.tenant).c_str(), t.commits, t.squashes,
                  t.commitLatency.percentile(0.50),
                  t.commitLatency.percentile(0.99));
    }
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace sbulk;
    CliOptions opt = parseArgs(argc, argv);

    const bool traced = !opt.tracePath.empty() || !opt.scenario.empty();
    if (!opt.tracePath.empty() && !opt.scenario.empty()) {
        std::fprintf(stderr,
                     "--trace and --scenario are mutually exclusive\n");
        return 2;
    }
    if (traced && (opt.custom || !opt.recordPath.empty())) {
        std::fprintf(stderr, "--trace/--scenario cannot combine with "
                             "--custom or --record\n");
        return 2;
    }

    AppSpec custom{"custom", "user", opt.customParams};
    const AppSpec* app = nullptr;
    if (!traced) {
        app = opt.custom ? &custom : findApp(opt.app);
        if (!app) {
            std::fprintf(stderr, "unknown application '%s' (--list)\n",
                         opt.app.c_str());
            return 1;
        }
    } else if (!opt.scenario.empty() &&
               !atrace::findScenario(opt.scenario)) {
        std::fprintf(stderr, "unknown scenario '%s' (--list-scenarios)\n",
                     opt.scenario.c_str());
        return 1;
    } else if (!opt.tracePath.empty()) {
        // The trace dictates the machine size unless --procs was given.
        std::ifstream in(opt.tracePath, std::ios::binary);
        atrace::TraceReader reader;
        std::string err;
        if (!in) {
            std::fprintf(stderr, "cannot open trace '%s'\n",
                         opt.tracePath.c_str());
            return 1;
        }
        if (!reader.open(in, &err)) {
            std::fprintf(stderr, "%s: %s\n", opt.tracePath.c_str(),
                         err.c_str());
            return 1;
        }
        if (!opt.procsSet)
            opt.procs = reader.header().numCores;
    }

    RunConfig cfg;
    cfg.app = app;
    cfg.procs = opt.procs;
    cfg.protocol = opt.protocol;
    cfg.totalChunks = traced && !opt.chunksSet ? 0 : opt.totalChunks;
    cfg.chunkInstrs = opt.chunkInstrs;
    cfg.proto = opt.proto;
    cfg.sig = opt.sig;
    cfg.seedOverride = opt.seed;
    cfg.shards = opt.shards;
    cfg.shardMap = opt.shardMap;
    // Keep runner workers x shard threads within the machine's cores.
    setShardThreadFactor(opt.shards);
    cfg.tracePath = opt.tracePath;
    cfg.scenario = opt.scenario;
    cfg.scenarioParams = opt.scen;
    if (opt.seed != 0)
        cfg.scenarioParams.seed = opt.seed;
    cfg.recordPath = opt.recordPath;

    if (opt.fullStats && traced) {
        std::fprintf(stderr, "--stats is synthetic-only\n");
        return 2;
    }
    if (opt.fullStats) {
        // Build the system directly so the full component statistics can
        // be dumped after the run.
        SystemConfig sys_cfg;
        sys_cfg.numProcs = cfg.procs;
        sys_cfg.protocol = cfg.protocol;
        sys_cfg.proto = cfg.proto;
        sys_cfg.shards = cfg.shards;
        sys_cfg.core.chunkInstrs = cfg.chunkInstrs;
        sys_cfg.core.sigCfg = cfg.sig;
        sys_cfg.core.chunksToRun =
            std::max<std::uint64_t>(1, cfg.totalChunks / cfg.procs);
        SyntheticParams params = streamParams(*app, cfg.procs);
        if (opt.seed != 0)
            params.seed = opt.seed;
        std::vector<std::unique_ptr<ThreadStream>> streams;
        for (NodeId n = 0; n < cfg.procs; ++n)
            streams.push_back(std::make_unique<SyntheticStream>(
                params, n, cfg.procs, sys_cfg.mem.l2.lineBytes,
                sys_cfg.mem.pageBytes));
        System sys(sys_cfg, std::move(streams));
        sys.run(cfg.tickLimit);
        StatSet set;
        sys.recordStats(set);
        set.dump(std::cout);
        return 0;
    }

    const RunResult r = runExperiment(cfg);
    if (opt.csv)
        printCsv(r);
    else
        printReport(opt, r);
    return 0;
}
