/**
 * @file
 * sbulk-trace: the access-trace toolbox (see WORKLOADS.md).
 *
 *   sbulk-trace gen kv-zipf --procs 8 --tenants 4 -o kv.sbt
 *   sbulk-trace record --app Radix --procs 8 --chunks 640 -o radix.sbt
 *   sbulk-trace replay kv.sbt --protocol scalablebulk [--csv]
 *   sbulk-trace cat kv.sbt [--limit N]        # text form to stdout
 *   sbulk-trace convert kv.sbt -o kv.txt --text
 *   sbulk-trace validate kv.sbt               # strict scan + summary
 *   sbulk-trace list                          # the scenario library
 *
 * `replay` runs the trace through the simulator exactly as `sbulk-sim
 * --trace` does (same engine), reporting overall and per-tenant serving
 * metrics; `record` captures a synthetic run so the pair round-trips:
 * record -> replay reproduces the run's statistics.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "fault/fault_plan.hh"
#include "system/experiment.hh"
#include "trace/io.hh"
#include "trace/scenarios.hh"

namespace
{

using namespace sbulk;

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: sbulk-trace COMMAND [options]\n"
        "  gen SCENARIO -o FILE   generate a serving scenario as a trace\n"
        "      [--procs N] [--tenants N] [--requests N] [--seed N] "
        "[--text]\n"
        "  record -o FILE         capture a synthetic run as a trace\n"
        "      [--app NAME] [--procs N] [--chunks N] [--seed N] "
        "[--protocol P]\n"
        "  replay FILE            run a trace through the simulator\n"
        "      [--protocol P] [--procs N] [--chunks N] [--csv] "
        "[--faults PLAN]\n"
        "  cat FILE [--limit N]   print records as text\n"
        "  convert FILE -o OUT [--text|--binary]   re-encode a trace\n"
        "  validate FILE          strict end-to-end scan + summary\n"
        "  list                   list the scenario library\n");
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

/** Options shared across subcommands; each uses the subset it documents. */
struct Options
{
    std::string input;
    std::string output;
    std::string app = "Radix";
    atrace::ScenarioParams scen{};
    bool procsSet = false;
    bool chunksSet = false;
    std::uint64_t chunks = 1280;
    std::uint64_t seed = 0;
    ProtocolKind protocol = ProtocolKind::ScalableBulk;
    bool text = false;
    bool csv = false;
    std::uint64_t limit = 0;
    fault::FaultPlan faults;
};

Options
parseCommon(int argc, char** argv, int first, int positionals)
{
    Options opt;
    int seen = 0;
    for (int i = first; i < argc; ++i) {
        const char* a = argv[i];
        auto need = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a);
                usage(2);
            }
            return argv[++i];
        };
        if (a[0] != '-') {
            if (seen >= positionals) {
                std::fprintf(stderr, "unexpected argument '%s'\n", a);
                usage(2);
            }
            opt.input = a;
            ++seen;
        } else if (!std::strcmp(a, "-o") || !std::strcmp(a, "--output")) {
            opt.output = need();
        } else if (!std::strcmp(a, "--app")) {
            opt.app = need();
        } else if (!std::strcmp(a, "--procs")) {
            opt.scen.cores = std::uint32_t(std::atoi(need()));
            opt.procsSet = true;
        } else if (!std::strcmp(a, "--tenants")) {
            opt.scen.tenants = std::uint32_t(std::atoi(need()));
        } else if (!std::strcmp(a, "--requests")) {
            opt.scen.requests = std::strtoull(need(), nullptr, 10);
        } else if (!std::strcmp(a, "--chunks")) {
            opt.chunks = std::strtoull(need(), nullptr, 10);
            opt.chunksSet = true;
        } else if (!std::strcmp(a, "--seed")) {
            opt.seed = std::strtoull(need(), nullptr, 10);
        } else if (!std::strcmp(a, "--protocol")) {
            opt.protocol = parseProtocol(need());
        } else if (!std::strcmp(a, "--text")) {
            opt.text = true;
        } else if (!std::strcmp(a, "--binary")) {
            opt.text = false;
        } else if (!std::strcmp(a, "--csv")) {
            opt.csv = true;
        } else if (!std::strcmp(a, "--limit")) {
            opt.limit = std::strtoull(need(), nullptr, 10);
        } else if (!std::strcmp(a, "--faults")) {
            std::string err;
            if (!fault::FaultPlan::parse(need(), opt.faults, &err)) {
                std::fprintf(stderr, "bad fault plan: %s\n", err.c_str());
                std::exit(2);
            }
        } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            usage(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a);
            usage(2);
        }
    }
    if (seen < positionals) {
        std::fprintf(stderr, "missing argument\n");
        usage(2);
    }
    return opt;
}

int
cmdList()
{
    for (const atrace::ScenarioSpec& s : atrace::allScenarios())
        std::printf("%-18s %-9s %s\n", s.name, s.family, s.summary);
    return 0;
}

int
cmdGen(int argc, char** argv)
{
    if (argc < 3 || argv[2][0] == '-')
        usage(2);
    const atrace::ScenarioSpec* spec = atrace::findScenario(argv[2]);
    if (!spec) {
        std::fprintf(stderr, "unknown scenario '%s' (sbulk-trace list)\n",
                     argv[2]);
        return 1;
    }
    Options opt = parseCommon(argc, argv, 3, 0);
    if (opt.output.empty()) {
        std::fprintf(stderr, "gen needs -o FILE\n");
        usage(2);
    }
    if (opt.seed != 0)
        opt.scen.seed = opt.seed;
    std::ofstream out(opt.output, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot open '%s'\n", opt.output.c_str());
        return 1;
    }
    std::string err;
    if (!atrace::generateScenario(*spec, opt.scen, out, opt.text, &err)) {
        std::fprintf(stderr, "%s: %s\n", spec->name, err.c_str());
        return 1;
    }
    return 0;
}

int
cmdRecord(int argc, char** argv)
{
    Options opt = parseCommon(argc, argv, 2, 0);
    if (opt.output.empty()) {
        std::fprintf(stderr, "record needs -o FILE\n");
        usage(2);
    }
    const AppSpec* app = findApp(opt.app);
    if (!app) {
        std::fprintf(stderr, "unknown app '%s'\n", opt.app.c_str());
        return 1;
    }
    RunConfig cfg;
    cfg.app = app;
    cfg.procs = opt.procsSet ? opt.scen.cores : 8;
    cfg.totalChunks = opt.chunks;
    cfg.protocol = opt.protocol;
    cfg.seedOverride = opt.seed;
    cfg.recordPath = opt.output;
    const RunResult r = runExperiment(cfg);
    std::fprintf(stderr, "recorded %s x %u procs -> %s (%llu commits)\n",
                 r.app.c_str(), r.procs, opt.output.c_str(),
                 (unsigned long long)r.commits);
    return 0;
}

void
printTenants(const RunResult& r)
{
    std::printf("%-8s %10s %9s %8s %8s %8s %10s\n", "tenant", "commits",
                "squashes", "p50", "p99", "sqRate", "req/Mcyc");
    const auto row = [&](const char* name, std::uint64_t commits,
                         std::uint64_t squashes, std::uint64_t p50,
                         std::uint64_t p99) {
        const std::uint64_t attempts = commits + squashes;
        std::printf("%-8s %10llu %9llu %8llu %8llu %8.4f %10.2f\n", name,
                    (unsigned long long)commits,
                    (unsigned long long)squashes, (unsigned long long)p50,
                    (unsigned long long)p99,
                    attempts ? double(squashes) / double(attempts) : 0.0,
                    r.makespan ? 1e6 * double(commits) / double(r.makespan)
                               : 0.0);
    };
    row("all", r.commits, r.chunksSquashed,
        r.commitLatency.percentile(0.50), r.commitLatency.percentile(0.99));
    for (const RunResult::TenantStats& t : r.tenants)
        row(std::to_string(t.tenant).c_str(), t.commits, t.squashes,
            t.commitLatency.percentile(0.50),
            t.commitLatency.percentile(0.99));
}

int
cmdReplay(int argc, char** argv)
{
    Options opt = parseCommon(argc, argv, 2, 1);
    // The trace dictates the machine size unless --procs was given.
    std::ifstream probe(opt.input, std::ios::binary);
    atrace::TraceReader reader;
    std::string err;
    if (!probe) {
        std::fprintf(stderr, "cannot open '%s'\n", opt.input.c_str());
        return 1;
    }
    if (!reader.open(probe, &err)) {
        std::fprintf(stderr, "%s: %s\n", opt.input.c_str(), err.c_str());
        return 1;
    }
    probe.close();

    RunConfig cfg;
    cfg.tracePath = opt.input;
    cfg.procs = opt.procsSet ? opt.scen.cores : reader.header().numCores;
    cfg.protocol = opt.protocol;
    cfg.totalChunks = opt.chunksSet ? opt.chunks : 0;
    cfg.faults = opt.faults;
    const RunResult r = runExperiment(cfg);

    if (opt.csv) {
        std::printf("app,protocol,procs,seed,makespan,commits,squashes,"
                    "tenant,tenantCommits,tenantSquashes,tenantP50,"
                    "tenantP99,tenantSquashRate,tenantTput\n");
        const auto row = [&](const char* name, std::uint64_t commits,
                             std::uint64_t squashes, std::uint64_t p50,
                             std::uint64_t p99) {
            const std::uint64_t attempts = commits + squashes;
            std::printf(
                "%s,%s,%u,%llu,%llu,%llu,%llu,%s,%llu,%llu,%llu,%llu,"
                "%.4f,%.4f\n",
                r.app.c_str(), protocolName(r.protocol), r.procs,
                (unsigned long long)r.seed, (unsigned long long)r.makespan,
                (unsigned long long)r.commits,
                (unsigned long long)r.chunksSquashed, name,
                (unsigned long long)commits, (unsigned long long)squashes,
                (unsigned long long)p50, (unsigned long long)p99,
                attempts ? double(squashes) / double(attempts) : 0.0,
                r.makespan ? 1e6 * double(commits) / double(r.makespan)
                           : 0.0);
        };
        row("all", r.commits, r.chunksSquashed,
            r.commitLatency.percentile(0.50),
            r.commitLatency.percentile(0.99));
        for (const RunResult::TenantStats& t : r.tenants)
            row(std::to_string(t.tenant).c_str(), t.commits, t.squashes,
                t.commitLatency.percentile(0.50),
                t.commitLatency.percentile(0.99));
        return 0;
    }

    std::printf("trace            %s\n", opt.input.c_str());
    std::printf("protocol         %s\n", protocolName(r.protocol));
    std::printf("processors       %u\n", r.procs);
    std::printf("simulated time   %llu cycles\n",
                (unsigned long long)r.makespan);
    std::printf("chunks committed %llu (%llu squashed)\n",
                (unsigned long long)r.commits,
                (unsigned long long)r.chunksSquashed);
    std::printf("commit latency   mean %.1f p90 %llu\n",
                r.commitLatencyMean,
                (unsigned long long)r.commitLatency.percentile(0.90));
    if (r.faultsInjected != 0) {
        std::printf("faults injected  %llu (%llu retransmissions, %llu "
                    "watchdog fires)\n",
                    (unsigned long long)r.faultsInjected,
                    (unsigned long long)r.retransmissions,
                    (unsigned long long)r.watchdogFires);
    }
    std::printf("\n");
    printTenants(r);
    return 0;
}

int
cmdCat(int argc, char** argv)
{
    Options opt = parseCommon(argc, argv, 2, 1);
    std::ifstream in(opt.input, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", opt.input.c_str());
        return 1;
    }
    atrace::TraceReader reader;
    std::string err;
    if (!reader.open(in, &err)) {
        std::fprintf(stderr, "%s: %s\n", opt.input.c_str(), err.c_str());
        return 1;
    }
    std::fputs(atrace::headerToText(reader.header()).c_str(), stdout);
    atrace::TraceRecord rec;
    std::uint64_t n = 0;
    while (reader.next(rec, &err)) {
        std::printf("%s\n", atrace::recordToText(rec).c_str());
        if (opt.limit != 0 && ++n >= opt.limit)
            return 0;
    }
    if (!err.empty()) {
        std::fprintf(stderr, "%s: %s\n", opt.input.c_str(), err.c_str());
        return 1;
    }
    return 0;
}

int
cmdConvert(int argc, char** argv)
{
    Options opt = parseCommon(argc, argv, 2, 1);
    if (opt.output.empty()) {
        std::fprintf(stderr, "convert needs -o FILE\n");
        usage(2);
    }
    std::ifstream in(opt.input, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", opt.input.c_str());
        return 1;
    }
    std::ofstream out(opt.output, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot open '%s'\n", opt.output.c_str());
        return 1;
    }
    std::string err;
    if (!atrace::convertTrace(in, out, opt.text, &err)) {
        std::fprintf(stderr, "%s: %s\n", opt.input.c_str(), err.c_str());
        return 1;
    }
    return 0;
}

int
cmdValidate(int argc, char** argv)
{
    Options opt = parseCommon(argc, argv, 2, 1);
    std::ifstream in(opt.input, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", opt.input.c_str());
        return 1;
    }
    atrace::TraceSummary sum;
    std::string err;
    if (!atrace::scanTrace(in, sum, &err)) {
        std::fprintf(stderr, "%s: %s\n", opt.input.c_str(), err.c_str());
        return 1;
    }
    std::printf("form        %s\n", sum.text ? "text" : "binary");
    std::printf("cores       %u\n", sum.header.numCores);
    std::printf("tenants     %u\n", sum.header.numTenants);
    std::printf("records     %llu (%llu writes)\n",
                (unsigned long long)sum.records,
                (unsigned long long)sum.writes);
    std::printf("instrs      %llu\n", (unsigned long long)sum.instrs);
    std::uint64_t chunks = 0;
    for (std::uint64_t c : sum.chunksPerCore)
        chunks += c;
    std::printf("chunk marks %llu\n", (unsigned long long)chunks);
    std::printf("seed        %llu\n",
                (unsigned long long)sum.header.seed);
    std::printf("chunk-instrs %u\n", sum.header.chunkInstrs);
    std::printf("ok\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        usage(2);
    const char* cmd = argv[1];
    if (!std::strcmp(cmd, "list"))
        return cmdList();
    if (!std::strcmp(cmd, "gen"))
        return cmdGen(argc, argv);
    if (!std::strcmp(cmd, "record"))
        return cmdRecord(argc, argv);
    if (!std::strcmp(cmd, "replay"))
        return cmdReplay(argc, argv);
    if (!std::strcmp(cmd, "cat"))
        return cmdCat(argc, argv);
    if (!std::strcmp(cmd, "convert"))
        return cmdConvert(argc, argv);
    if (!std::strcmp(cmd, "validate"))
        return cmdValidate(argc, argv);
    if (!std::strcmp(cmd, "--help") || !std::strcmp(cmd, "-h"))
        usage(0);
    std::fprintf(stderr, "unknown command '%s'\n", cmd);
    usage(2);
}
