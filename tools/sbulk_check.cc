/**
 * @file
 * sbulk-check: schedule-exploration model checker for the four commit
 * protocols (see CHECKING.md).
 *
 * Sweeps seeds; each seed drives one small, conflict-heavy run under a
 * seeded random schedule (same-tick tie-breaks + per-message delivery
 * jitter) with every invariant oracle attached. A failing seed is
 * automatically shrunk to the shortest schedule-decision prefix that
 * still reproduces the violation, and a replay command is printed.
 *
 *   sbulk-check                                   # 500 seeds x 4 protocols
 *   sbulk-check --protocols scalablebulk --seeds 2000
 *   sbulk-check --replay-seed 17 --protocols tcc  # deterministic re-run
 *   sbulk-check --break fail-both --expect-violations
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "check/replay.hh"
#include "fault/fault_plan.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"

namespace
{

using namespace sbulk;
using namespace sbulk::check;

struct Options
{
    std::vector<ProtocolKind> protocols = {
        ProtocolKind::ScalableBulk, ProtocolKind::TCC, ProtocolKind::SEQ,
        ProtocolKind::BulkSC};
    std::uint64_t seeds = 500;
    std::uint64_t seedBase = 1;
    CheckConfig base{};
    /** Replay one seed instead of sweeping (0 = sweep). */
    std::uint64_t replaySeed = 0;
    /** Replay decision-prefix length (SIZE_MAX = the full trace). */
    std::size_t replayPrefix = std::size_t(-1);
    bool expectViolations = false;
    bool keepGoing = false;
    /** Concurrent schedule explorations (each owns a private System). */
    unsigned jobs = 1;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: sbulk-check [options]\n"
        "  --protocols P,Q        scalablebulk | tcc | seq | bulksc\n"
        "                         (default: all four)\n"
        "  --seeds N              seeds to sweep per protocol (default "
        "500)\n"
        "  --seed-base N          first seed (default 1)\n"
        "  --procs N              cores = directories (default 2)\n"
        "  --jitter N             max per-message delivery jitter "
        "(default 8)\n"
        "  --chunks N             chunks per core (default 6)\n"
        "  --chunk-instrs N       chunk size (default 80)\n"
        "  --tick-limit N         livelock bound per schedule\n"
        "  --break MODE           sabotage the protocol to exercise the\n"
        "                         oracles: admit-conflicting | fail-both\n"
        "  --faults PLAN          inject transport faults per PLAN (see\n"
        "                         ROBUSTNESS.md), e.g.\n"
        "                         \"seed=7, drop=0.01, dup=0.01\"; arms the\n"
        "                         recovery layer and the liveness oracle\n"
        "  --expect-violations    exit 0 iff violations WERE found\n"
        "  --keep-going           don't stop a protocol at its first "
        "failure\n"
        "  --jobs N               explore N seeds concurrently (0 = all\n"
        "                         cores); output is byte-identical to "
        "--jobs 1\n"
        "  --debug LIST           enable debug trace categories "
        "(commit,group,...)\n"
        "  --replay-seed N        deterministically re-run one seed\n"
        "  --replay-prefix N      ... honoring only the first N schedule\n"
        "                         decisions (default: all)\n");
    std::exit(code);
}

ProtocolKind
parseProtocol(const std::string& name)
{
    if (name == "scalablebulk") return ProtocolKind::ScalableBulk;
    if (name == "tcc") return ProtocolKind::TCC;
    if (name == "seq") return ProtocolKind::SEQ;
    if (name == "bulksc") return ProtocolKind::BulkSC;
    std::fprintf(stderr, "unknown protocol '%s'\n", name.c_str());
    usage(2);
}

const char*
protocolFlag(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::ScalableBulk: return "scalablebulk";
      case ProtocolKind::TCC: return "tcc";
      case ProtocolKind::SEQ: return "seq";
      case ProtocolKind::BulkSC: return "bulksc";
    }
    return "?";
}

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

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    auto need = [&](int& i) -> const char* {
        if (i + 1 >= argc)
            usage(2);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            usage(0);
        } else if (!std::strcmp(a, "--protocols")) {
            opt.protocols.clear();
            for (const std::string& name : split(need(i)))
                opt.protocols.push_back(parseProtocol(name));
        } else if (!std::strcmp(a, "--seeds")) {
            opt.seeds = std::strtoull(need(i), nullptr, 10);
        } else if (!std::strcmp(a, "--seed-base")) {
            opt.seedBase = std::strtoull(need(i), nullptr, 10);
        } else if (!std::strcmp(a, "--procs")) {
            opt.base.procs = std::uint32_t(std::atoi(need(i)));
        } else if (!std::strcmp(a, "--jitter")) {
            opt.base.maxJitter = std::strtoull(need(i), nullptr, 10);
        } else if (!std::strcmp(a, "--chunks")) {
            opt.base.chunksPerCore = std::strtoull(need(i), nullptr, 10);
        } else if (!std::strcmp(a, "--chunk-instrs")) {
            opt.base.chunkInstrs = std::uint32_t(std::atoi(need(i)));
        } else if (!std::strcmp(a, "--tick-limit")) {
            opt.base.tickLimit = std::strtoull(need(i), nullptr, 10);
        } else if (!std::strcmp(a, "--break")) {
            const std::string mode = need(i);
            if (mode == "admit-conflicting")
                opt.base.sbBreak = SbBreakMode::AdmitConflicting;
            else if (mode == "fail-both")
                opt.base.sbBreak = SbBreakMode::FailBothOnCollision;
            else {
                std::fprintf(stderr, "unknown break mode '%s'\n",
                             mode.c_str());
                usage(2);
            }
        } else if (!std::strcmp(a, "--faults")) {
            std::string err;
            if (!fault::FaultPlan::parse(need(i), opt.base.faults, &err)) {
                std::fprintf(stderr, "bad fault plan: %s\n", err.c_str());
                usage(2);
            }
        } else if (!std::strcmp(a, "--jobs")) {
            opt.jobs = unsigned(std::atoi(need(i)));
            if (opt.jobs == 0)
                opt.jobs = defaultJobs();
        } else if (!std::strcmp(a, "--expect-violations")) {
            opt.expectViolations = true;
        } else if (!std::strcmp(a, "--keep-going")) {
            opt.keepGoing = true;
        } else if (!std::strcmp(a, "--replay-seed")) {
            opt.replaySeed = std::strtoull(need(i), nullptr, 10);
        } else if (!std::strcmp(a, "--debug")) {
            if (!trace::enableList(need(i))) {
                std::fprintf(stderr, "unknown trace category\n");
                usage(2);
            }
        } else if (!std::strcmp(a, "--replay-prefix")) {
            opt.replayPrefix = std::size_t(std::strtoull(need(i), nullptr,
                                                         10));
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a);
            usage(2);
        }
    }
    return opt;
}

void
printViolations(const CheckResult& r)
{
    for (const Violation& v : r.violations) {
        std::printf("    [%s] tick %llu: %s\n", v.oracle.c_str(),
                    (unsigned long long)v.when, v.detail.c_str());
    }
}

/** The command line reproducing this failure, for copy-paste. */
void
printReplayCommand(const Options& opt, ProtocolKind proto,
                   std::uint64_t seed, std::size_t prefix)
{
    std::printf("  replay: sbulk-check --protocols %s --replay-seed %llu "
                "--replay-prefix %zu --procs %u --jitter %llu --chunks %llu "
                "--chunk-instrs %u",
                protocolFlag(proto), (unsigned long long)seed, prefix,
                opt.base.procs, (unsigned long long)opt.base.maxJitter,
                (unsigned long long)opt.base.chunksPerCore,
                opt.base.chunkInstrs);
    if (opt.base.sbBreak == SbBreakMode::AdmitConflicting)
        std::printf(" --break admit-conflicting");
    else if (opt.base.sbBreak == SbBreakMode::FailBothOnCollision)
        std::printf(" --break fail-both");
    if (opt.base.faults.enabled())
        std::printf(" --faults \"%s\"",
                    opt.base.faults.serialize().c_str());
    std::printf("\n");
}

/** One-line degradation summary of a faulted run (omitted otherwise). */
void
printFaultSummary(const CheckResult& r)
{
    std::printf("    faults: %llu injected, %llu retransmission(s), "
                "%llu duplicate(s) dropped, %llu watchdog fire(s), "
                "recovery latency mean %.0f\n",
                (unsigned long long)r.faultsInjected,
                (unsigned long long)r.retransmissions,
                (unsigned long long)r.dupsDropped,
                (unsigned long long)r.watchdogFires,
                r.recoveryLatencyMean);
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);
    std::uint64_t totalViolatingSeeds = 0;

    if (opt.replaySeed != 0) {
        // Deterministic re-run of one seed: regenerate the schedule from
        // the seed, then replay the requested decision prefix of it.
        for (ProtocolKind proto : opt.protocols) {
            CheckConfig cfg = opt.base;
            cfg.protocol = proto;
            cfg.seed = opt.replaySeed;
            const CheckResult original = runSchedule(cfg);
            const std::size_t prefix =
                std::min(opt.replayPrefix, original.trace.decisions.size());
            const CheckResult r =
                replaySchedule(cfg, original.trace, prefix);
            std::printf("%s seed %llu prefix %zu/%zu: end tick %llu, "
                        "schedule %016llx, %zu violation(s)%s\n",
                        protocolFlag(proto),
                        (unsigned long long)opt.replaySeed, prefix,
                        original.trace.decisions.size(),
                        (unsigned long long)r.endTick,
                        (unsigned long long)r.traceHash,
                        r.violations.size(),
                        prefix == original.trace.decisions.size() &&
                                r.traceHash == original.traceHash
                            ? " (byte-for-byte match)"
                            : "");
            printViolations(r);
            if (opt.base.faults.enabled())
                printFaultSummary(r);
            if (!r.ok())
                ++totalViolatingSeeds;
        }
        return totalViolatingSeeds > 0 ? (opt.expectViolations ? 0 : 1)
                                       : (opt.expectViolations ? 1 : 0);
    }

    for (ProtocolKind proto : opt.protocols) {
        std::unordered_set<std::uint64_t> schedules;
        std::uint64_t explored = 0;
        std::uint64_t violating = 0;
        std::uint64_t commits = 0;
        std::uint64_t faults = 0;
        std::uint64_t retx = 0;
        std::uint64_t dupDrops = 0;
        std::uint64_t watchdogs = 0;

        // Explore seeds concurrently (each run owns a private System and
        // EventQueue), then walk the results in seed order below. The
        // serial walk still stops at the first failure unless
        // --keep-going, so counters, printing, and exit status are
        // byte-identical to a serial sweep — parallelism only ever
        // computes results past the break that are then ignored.
        std::vector<CheckResult> results(opt.seeds);
        parallelFor(opt.seeds, opt.jobs, [&](std::size_t s) {
            CheckConfig cfg = opt.base;
            cfg.protocol = proto;
            cfg.seed = opt.seedBase + s;
            results[s] = runSchedule(cfg);
        });

        for (std::uint64_t s = 0; s < opt.seeds; ++s) {
            CheckConfig cfg = opt.base;
            cfg.protocol = proto;
            cfg.seed = opt.seedBase + s;
            const CheckResult& r = results[s];
            ++explored;
            schedules.insert(r.traceHash);
            commits += r.commitsChecked;
            faults += r.faultsInjected;
            retx += r.retransmissions;
            dupDrops += r.dupsDropped;
            watchdogs += r.watchdogFires;

            if (!r.ok()) {
                ++violating;
                std::printf("%s seed %llu FAILED (%zu violation(s), "
                            "schedule %016llx, %zu decisions):\n",
                            protocolFlag(proto),
                            (unsigned long long)cfg.seed,
                            r.violations.size(),
                            (unsigned long long)r.traceHash,
                            r.trace.decisions.size());
                printViolations(r);
                if (opt.base.faults.enabled())
                    printFaultSummary(r);

                const ShrinkResult shrunk = shrinkFailure(cfg, r.trace);
                std::printf("  shrunk to decision prefix %zu/%zu (%zu "
                            "violation(s) persist)\n",
                            shrunk.prefix, r.trace.decisions.size(),
                            shrunk.result.violations.size());
                printReplayCommand(opt, proto, cfg.seed, shrunk.prefix);
                if (!opt.keepGoing)
                    break;
            }
        }

        totalViolatingSeeds += violating;
        std::printf("%-13s %llu schedule(s) explored, %zu distinct, "
                    "%llu commits checked, %llu violating seed(s)\n",
                    protocolFlag(proto), (unsigned long long)explored,
                    schedules.size(), (unsigned long long)commits,
                    (unsigned long long)violating);
        if (opt.base.faults.enabled()) {
            std::printf("%-13s faults: %llu injected, %llu "
                        "retransmission(s), %llu duplicate(s) dropped, "
                        "%llu watchdog fire(s)\n",
                        protocolFlag(proto), (unsigned long long)faults,
                        (unsigned long long)retx,
                        (unsigned long long)dupDrops,
                        (unsigned long long)watchdogs);
        }
        std::fflush(stdout);
    }

    if (opt.expectViolations)
        return totalViolatingSeeds > 0 ? 0 : 1;
    return totalViolatingSeeds > 0 ? 1 : 0;
}
