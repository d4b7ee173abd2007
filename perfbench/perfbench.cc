/**
 * @file
 * Benchmark program: runs one pass of one workload through the
 * simulator's public entry points (runExperiment, System,
 * check::runSchedule) and prints one JSON object of raw measurements as
 * its last line of output. run.py builds this program, runs it once per
 * pass for the measured seconds and turns the measurements into the
 * metrics BENCHMARK.json names; README.md in this directory defines them.
 *
 *   perfbench --workload W --seed N --pass I --trace 0|1
 *
 * A pass is the workload's whole op set, made from --seed and the pass
 * index (the checker's schedule set is fixed; they only order it). With
 * --trace 1
 * the untraced pass is followed by a traced pass over the same inputs,
 * any traced op whose simulated result differs from its untraced twin is
 * reported as an error, and the spans are written to
 * spans-<workload>.csv in the program's build directory.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/replay.hh"
#include "fault/liveness.hh"
#include "fault/transport.hh"
#include "system/experiment.hh"
#include "tracing.hh"
#include "workload/synthetic.hh"

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#error "perfbench times only optimized, uninstrumented builds"
#endif

using namespace sbulk;
using perfbench::Layer;
using perfbench::Span;
using perfbench::Tracer;

namespace
{

/// @name Workload sizes (see README.md for why each was chosen)
/// @{
constexpr std::uint32_t kMatrixProcs = 64;
constexpr std::uint64_t kMatrixChunks = 1280;
constexpr std::uint32_t kRadixProcs = 256;
constexpr std::uint64_t kRadixChunks = 1280;
constexpr std::uint32_t kRadixShards = 4;
constexpr std::size_t kRadixOpsPerPass = 4;
constexpr std::uint64_t kCheckSeeds = 500;
constexpr std::size_t kCheckSetupEvery = 10;
const char* const kCheckFaults = "seed=7,drop=0.01,dup=0.01";
/// @}

constexpr ProtocolKind kProtocols[] = {
    ProtocolKind::ScalableBulk, ProtocolKind::TCC, ProtocolKind::SEQ,
    ProtocolKind::BulkSC};

/** The lower-case protocol names sbulk-check's --protocols accepts. */
const char*
protoKey(ProtocolKind k)
{
    switch (k) {
      case ProtocolKind::ScalableBulk: return "scalablebulk";
      case ProtocolKind::TCC: return "tcc";
      case ProtocolKind::SEQ: return "seq";
      case ProtocolKind::BulkSC: return "bulksc";
    }
    return "?";
}

const char* const kOracles[] = {
    "serializability", "one-winner", "uniqueness", "squash-conflict",
    "quiescence",      "deadlock",   "livelock",   "liveness",
    "transport"};

double
secondsSince(perfbench::Clock::time_point t0)
{
    return std::chrono::duration<double>(perfbench::Clock::now() - t0)
        .count();
}

std::uint64_t
splitmix64(std::uint64_t& state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** A nonzero workload seed for op @p i of a run seeded with @p seed. */
std::uint64_t
opSeed(std::uint64_t seed, std::uint64_t i)
{
    std::uint64_t s = seed * 0x100000001b3ull + i;
    return splitmix64(s) | 1;
}

template <typename T>
void
seededShuffle(std::vector<T>& v, std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[splitmix64(s) % i]);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Simulated results a traced op must reproduce exactly. */
struct SimSig
{
    Tick makespan = 0;
    std::uint64_t commits = 0;
    std::array<std::uint64_t, kNumMsgClasses> msgs{};
    double useful = 0, miss = 0, commit = 0, squash = 0;

    bool operator==(const SimSig&) const = default;
};

SimSig
sigOf(Tick makespan, std::uint64_t commits, const TrafficStats& t,
      const System::Breakdown& b)
{
    SimSig s;
    s.makespan = makespan;
    s.commits = commits;
    for (std::size_t c = 0; c < kNumMsgClasses; ++c)
        s.msgs[c] = t.messages(MsgClass(c));
    s.useful = b.useful;
    s.miss = b.cacheMiss;
    s.commit = b.commit;
    s.squash = b.squash;
    return s;
}

/** Every statistic the shard-count determinism contract promises. */
bool
sameStats(const RunResult& a, const RunResult& b)
{
    return sigOf(a.makespan, a.commits, a.traffic, a.breakdown) ==
               sigOf(b.makespan, b.commits, b.traffic, b.breakdown) &&
           a.commitLatencyMean == b.commitLatencyMean &&
           a.dirsPerCommitMean == b.dirsPerCommitMean &&
           a.commitFailures == b.commitFailures &&
           a.squashesTrueConflict == b.squashesTrueConflict &&
           a.squashesAliasing == b.squashesAliasing &&
           a.chunksSquashed == b.chunksSquashed &&
           a.commitRecalls == b.commitRecalls && a.loads == b.loads &&
           a.l1Hits == b.l1Hits && a.l2Misses == b.l2Misses;
}

/**
 * Deterministic counts of one pass, harvested from traced Systems (equal
 * to the untraced runs' by the SimSig check). Means are kept as sums.
 */
struct Counts
{
    std::uint64_t events = 0, streamOps = 0;
    std::uint64_t commits = 0, failures = 0, recalls = 0;
    std::uint64_t squashTrue = 0, squashAlias = 0, chunksSquashed = 0;
    double latencySum = 0, dirsSum = 0;
    std::uint64_t latencyN = 0, dirsN = 0;
    double useful = 0, miss = 0, commit = 0, squash = 0;
    std::array<std::uint64_t, kNumMsgClasses> msgs{}, bytes{};
    std::uint64_t loads = 0, l1Hits = 0, l2Misses = 0;
    std::uint64_t dirReads = 0, dirNacks = 0, dirResident = 0;
    std::uint64_t groupsFormed = 0, groupsFailed = 0;

    void
    harvest(const System& sys)
    {
        const CommitMetrics& m = sys.metrics();
        commits += m.commits.value();
        failures += m.commitFailures.value();
        recalls += m.commitRecalls.value();
        squashTrue += m.squashesTrueConflict.value();
        squashAlias += m.squashesAliasing.value();
        latencySum += m.commitLatency.mean() * m.commitLatency.count();
        latencyN += m.commitLatency.count();
        dirsSum += m.dirsPerCommit.mean() * m.dirsPerCommit.count();
        dirsN += m.dirsPerCommit.count();
        const System::Breakdown b = sys.breakdown();
        useful += b.useful;
        miss += b.cacheMiss;
        commit += b.commit;
        squash += b.squash;
        for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
            msgs[c] += sys.traffic().messages(MsgClass(c));
            bytes[c] += sys.traffic().bytes(MsgClass(c));
        }
        for (NodeId n = 0; n < sys.numProcs(); ++n) {
            chunksSquashed += sys.core(n).stats().chunksSquashed.value();
            const auto& h = sys.hierarchy(n).stats();
            loads += h.loads.value();
            l1Hits += h.l1Hits.value();
            l2Misses += h.misses.value();
            const Directory& d = sys.directory(n);
            dirReads += d.stats().reads.value();
            dirNacks += d.stats().readNacks.value();
            dirResident += d.residentLines();
        }
    }
};

/** Checker and fault-transport totals of one pass. */
struct CheckCounts
{
    std::uint64_t schedules = 0, commitsChecked = 0;
    std::map<std::string, std::uint64_t> violations;
    std::uint64_t injected = 0, retransmissions = 0, dupsDropped = 0;
    std::uint64_t watchdogFires = 0, stuck = 0;
    double recoverySum = 0;
    std::uint64_t recoveryN = 0;

    void
    add(const check::CheckResult& r)
    {
        ++schedules;
        commitsChecked += r.commitsChecked;
        for (const check::Violation& v : r.violations)
            ++violations[v.oracle];
        injected += r.faultsInjected;
        retransmissions += r.retransmissions;
        dupsDropped += r.dupsDropped;
        watchdogFires += r.watchdogFires;
        stuck += r.stuckCommits;
        if (r.retransmissions > 0) {
            recoverySum += r.recoveryLatencyMean;
            ++recoveryN;
        }
    }
};

/** Host seconds of the traced pass, by layer. */
struct HostTimes
{
    /** Traced wall seconds, and those of the untraced twin runs (the
     *  preceding pass unless the workload times its own twins). */
    double wall = 0;
    double untracedWall = 0;
    /** Self seconds by layer, and the step loop's inclusive seconds. */
    double layer[perfbench::kNumLayers] = {};
    double stepInclusive = 0;
    std::map<std::string, double> protocol;
    std::vector<double> buildS;
};

struct PassRec
{
    double wallS = 0;
    double simS = 0;
    std::uint64_t commits = 0;
};

/** Everything one invocation measured. */
struct Raw
{
    std::vector<double> opMs;
    std::vector<double> opSetupS;
    std::uint64_t failed = 0;
    PassRec pass;
    /** Peak RSS after the untraced pass (before any tracing memory). */
    double peakRssMb = 0;
    std::vector<std::string> replays;
    std::vector<std::string> errors;
    /// @name Traced runs only
    /// @{
    HostTimes host;
    Counts counts;
    CheckCounts checks;
    std::map<std::string, std::vector<double>> checkMsPerProto;
    std::vector<ShardEngine::ShardStats> shardStats;
    double shardWallS = 0;
    std::vector<perfbench::CommitSpan> commitSpans;
    Tracer tracer;
    /// @}
};

// ---------------------------------------------------------------------
// Traced runs: the same machines runExperiment / runSchedule build,
// assembled from public pieces with the tracing wrappers attached.
// ---------------------------------------------------------------------

/** Per-core streams, each wrapped in a TracedStream. */
std::vector<std::unique_ptr<ThreadStream>>
tracedStreams(const SyntheticParams& p, std::uint32_t procs,
              const SystemConfig& sys_cfg, Tracer& t,
              std::vector<perfbench::TracedStream*>& out)
{
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (NodeId n = 0; n < procs; ++n) {
        auto inner = std::make_unique<SyntheticStream>(
            p, n, procs, sys_cfg.mem.l2.lineBytes, sys_cfg.mem.pageBytes);
        auto traced =
            std::make_unique<perfbench::TracedStream>(std::move(inner), t);
        out.push_back(traced.get());
        streams.push_back(std::move(traced));
    }
    return streams;
}

/** Step the queue until every core is done, one Step span per event. */
std::uint64_t
stepLoop(System& sys, Tracer& t, Tick limit)
{
    EventQueue& eq = sys.eventQueue();
    std::uint64_t events = 0;
    while (!sys.allCoresDone()) {
        if (eq.now() >= limit)
            break;
        const Span s(t, perfbench::Step);
        if (!eq.step())
            SBULK_PANIC("traced run deadlocked at tick %llu",
                        (unsigned long long)eq.now());
        ++events;
    }
    return events;
}

/**
 * One serial runExperiment-equivalent run of a synthetic-app @p cfg with
 * tracing attached. Returns its SimSig; adds counts and spans to @p raw.
 */
SimSig
tracedExperiment(const RunConfig& cfg, Raw& raw, HostTimes& host,
                 std::uint32_t op_index)
{
    SBULK_ASSERT(cfg.shards == 1 && cfg.app, "traced runs are serial");
    const auto t0 = perfbench::Clock::now();
    SystemConfig sys_cfg;
    sys_cfg.numProcs = cfg.procs;
    sys_cfg.protocol = cfg.protocol;
    sys_cfg.proto = cfg.proto;
    sys_cfg.interleavedPages = cfg.interleavedPages;
    sys_cfg.core.chunkInstrs = cfg.chunkInstrs;
    sys_cfg.core.sigCfg = cfg.sig;
    sys_cfg.core.chunksToRun =
        std::max<std::uint64_t>(1, cfg.totalChunks / cfg.procs);

    perfbench::SpanObserver obs(raw.commitSpans, op_index);
    sys_cfg.observer = &obs;

    SyntheticParams params = streamParams(*cfg.app, cfg.procs);
    if (cfg.seedOverride != 0)
        params.seed = cfg.seedOverride;
    std::vector<perfbench::TracedStream*> wrapped;
    auto streams =
        tracedStreams(params, cfg.procs, sys_cfg, raw.tracer, wrapped);

    System sys(sys_cfg, std::move(streams));
    perfbench::TracingTransport transport(sys.network(), raw.tracer);
    sys.network().setTransport(&transport);
    obs.setClock(&sys.eventQueue());
    sys.run(0); // starts the cores without stepping
    host.buildS.push_back(secondsSince(t0));

    raw.counts.events += stepLoop(sys, raw.tracer, cfg.tickLimit);
    sys.network().setTransport(nullptr);

    for (const perfbench::TracedStream* s : wrapped)
        raw.counts.streamOps += s->ops();
    raw.counts.harvest(sys);
    raw.counts.groupsFormed += obs.groupsFormed();
    raw.counts.groupsFailed += obs.groupsFailed();
    host.protocol[protoKey(cfg.protocol)] += secondsSince(t0);
    return sigOf(sys.eventQueue().now(), sys.metrics().commits.value(),
                 sys.traffic(), sys.breakdown());
}

/** The checker's conflict-heavy workload (src/check/replay.cc). */
SyntheticParams
checkWorkload(std::uint64_t seed)
{
    SyntheticParams p;
    p.memFraction = 0.5;
    p.writeFraction = 0.5;
    p.privatePages = 2;
    p.sharedPages = 4;
    p.sharedBlocks = 8;
    p.sharedFraction = 0.5;
    p.sharedWriteFraction = 0.5;
    p.zipfAlpha = 0.9;
    p.spatialRunMean = 2.0;
    p.accessesPerLine = 1.0;
    p.phaseInstrs = 0;
    p.hotLines = 4;
    p.hotFraction = 0.05;
    p.seed = seed;
    return p;
}

/**
 * A checker machine assembled as check::runSchedule assembles it for a
 * faulted config: the oracles, the liveness monitor, the random scheduler
 * and the fault transport, started with run(0). With a tracer, the
 * streams are traced, @p extra observes too and a TracingTransport
 * fronts the fault transport.
 */
class CheckRig
{
  public:
    explicit CheckRig(const check::CheckConfig& cfg, Tracer* tracer = nullptr,
                      ProtocolObserver* extra = nullptr)
        : observers{&suite, &monitor, extra}
    {
        SBULK_ASSERT(cfg.faults.enabled(), "the checker workload is faulted");
        SystemConfig sys_cfg;
        sys_cfg.numProcs = cfg.procs;
        sys_cfg.protocol = cfg.protocol;
        sys_cfg.directNetwork = true;
        sys_cfg.core.chunkInstrs = cfg.chunkInstrs;
        sys_cfg.core.chunksToRun = cfg.chunksPerCore;
        sys_cfg.proto.sbBreak = cfg.sbBreak;
        sys_cfg.proto.expBackoff = true;
        sys_cfg.proto.backoffSeed = cfg.faults.seed;
        if (cfg.faults.watchdog)
            sys_cfg.proto.watchdogTimeout = Tick(cfg.faults.rxCap) * 2;
        sys_cfg.observer = &observers;

        const SyntheticParams params = checkWorkload(cfg.seed);
        std::vector<std::unique_ptr<ThreadStream>> streams;
        for (NodeId n = 0; n < cfg.procs; ++n) {
            std::unique_ptr<ThreadStream> st =
                std::make_unique<SyntheticStream>(params, n, cfg.procs,
                                                  sys_cfg.mem.l2.lineBytes,
                                                  sys_cfg.mem.pageBytes);
            if (tracer) {
                auto traced = std::make_unique<perfbench::TracedStream>(
                    std::move(st), *tracer);
                wrapped.push_back(traced.get());
                st = std::move(traced);
            }
            streams.push_back(std::move(st));
        }
        sys = std::make_unique<System>(sys_cfg, std::move(streams));
        EventQueue& eq = sys->eventQueue();
        suite.setClock(&eq);
        monitor.setClock(&eq);
        sched = std::make_unique<check::RandomScheduler>(cfg.seed,
                                                         cfg.maxJitter, eq);
        eq.setSchedulePolicy(sched.get());
        sys->network().setDeliveryJitter(sched->jitterFn());
        faults = std::make_unique<fault::FaultTransport>(
            sys->network(), cfg.faults, /*stream_salt=*/cfg.seed);
        if (tracer)
            front = std::make_unique<perfbench::TracingTransport>(
                sys->network(), *tracer, faults.get());
        if (front)
            sys->network().setTransport(front.get());
        else
            sys->network().setTransport(faults.get());
        sys->network().allowChannelReorder(cfg.faults.arq);
        sys->run(0); // starts the cores without stepping
    }

    ~CheckRig()
    {
        sys->eventQueue().setSchedulePolicy(nullptr);
        sys->network().setDeliveryJitter(nullptr);
        sys->network().setTransport(nullptr);
    }

    CheckRig(const CheckRig&) = delete;
    CheckRig& operator=(const CheckRig&) = delete;

    check::OracleSuite suite;
    fault::LivenessMonitor monitor;
    ObserverChain observers;
    std::vector<perfbench::TracedStream*> wrapped;
    std::unique_ptr<System> sys;
    std::unique_ptr<check::RandomScheduler> sched;
    std::unique_ptr<fault::FaultTransport> faults;
    std::unique_ptr<perfbench::TracingTransport> front;
};

/**
 * check::runSchedule for @p cfg on a traced CheckRig: the same driving
 * loop and end-of-run checks, with Step spans around every event.
 */
check::CheckResult
tracedSchedule(const check::CheckConfig& cfg, Raw& raw, HostTimes& host,
               std::uint32_t op_index)
{
    const auto t0 = perfbench::Clock::now();
    perfbench::SpanObserver obs(raw.commitSpans, op_index);
    CheckRig rig(cfg, &raw.tracer, &obs);
    System& sys = *rig.sys;
    EventQueue& eq = sys.eventQueue();
    obs.setClock(&eq);
    host.buildS.push_back(secondsSince(t0));

    check::CheckResult r;
    while (!sys.allCoresDone()) {
        if (eq.now() > cfg.tickLimit) {
            r.timedOut = true;
            break;
        }
        const Span s(raw.tracer, perfbench::Step);
        if (!eq.step()) {
            r.deadlocked = true;
            break;
        }
        ++raw.counts.events;
    }
    r.completed = sys.allCoresDone();
    if (r.completed) {
        // Drain in-flight cleanup traffic, as runSchedule does.
        while (eq.now() <= cfg.tickLimit) {
            const Span s(raw.tracer, perfbench::Step);
            if (!eq.step())
                break;
            ++raw.counts.events;
        }
    }
    r.endTick = eq.now();
    rig.suite.finalize(r.completed, sys.protocolQuiescent());
    r.violations = rig.suite.violations();
    r.commitsChecked = rig.suite.commitsChecked();
    if (r.deadlocked)
        r.violations.push_back(check::Violation{"deadlock", "", eq.now()});
    if (r.timedOut)
        r.violations.push_back(check::Violation{"livelock", "", eq.now()});
    const fault::FaultTransport& faults = *rig.faults;
    rig.monitor.finalize(&faults);
    for (const fault::StuckCommit& s : rig.monitor.stuck())
        r.violations.push_back(check::Violation{"liveness", "", s.since});
    if (r.completed && !faults.quiescent())
        r.violations.push_back(check::Violation{"transport", "", eq.now()});
    r.faultsInjected = faults.injected().size();
    r.retransmissions = faults.stats().retransmissions.value();
    r.dupsDropped = faults.stats().dupsDropped.value();
    r.watchdogFires = sys.metrics().watchdogFires.value();
    r.stuckCommits = rig.monitor.stuck().size();
    r.recoveryLatencyMean = faults.stats().recoveryLatency.mean();
    r.traceHash = rig.sched->trace().hash();

    for (const perfbench::TracedStream* s : rig.wrapped)
        raw.counts.streamOps += s->ops();
    raw.counts.harvest(sys);
    raw.counts.groupsFormed += obs.groupsFormed();
    raw.counts.groupsFailed += obs.groupsFailed();
    host.protocol[protoKey(cfg.protocol)] += secondsSince(t0);
    return r;
}

bool
sameCheck(const check::CheckResult& a, const check::CheckResult& b)
{
    return a.completed == b.completed && a.endTick == b.endTick &&
           a.commitsChecked == b.commitsChecked &&
           a.traceHash == b.traceHash &&
           a.violations.size() == b.violations.size() &&
           a.faultsInjected == b.faultsInjected &&
           a.retransmissions == b.retransmissions &&
           a.dupsDropped == b.dupsDropped &&
           a.watchdogFires == b.watchdogFires &&
           a.stuckCommits == b.stuckCommits;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t pass = 0;
    bool trace = false;
};

/** One timed runExperiment op; returns the result. */
RunResult
timedExperiment(const RunConfig& cfg, Raw& raw, PassRec& pass)
{
    const auto t0 = perfbench::Clock::now();
    RunResult r = runExperiment(cfg);
    const double total = secondsSince(t0);
    raw.opMs.push_back(total * 1e3);
    raw.opSetupS.push_back(total - r.wallSec);
    pass.simS += r.wallSec;
    pass.commits += r.commits;
    const std::uint64_t budget =
        std::max<std::uint64_t>(1, cfg.totalChunks / cfg.procs) * cfg.procs;
    if (r.commits != budget) {
        ++raw.failed;
        raw.errors.push_back(std::string(r.app) + "/" +
                             protocolName(cfg.protocol) + " committed " +
                             std::to_string(r.commits) + " of " +
                             std::to_string(budget) + " chunks");
    }
    return r;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/** Time the untraced @p pass, then (--trace 1) the @p traced pass. */
template <typename PassFn, typename TracedFn>
void
runPass(const Options& opt, Raw& raw, PassFn pass, TracedFn traced)
{
    const auto p0 = perfbench::Clock::now();
    pass(raw.pass);
    raw.pass.wallS = secondsSince(p0);
    raw.peakRssMb = peakRssMb();
    if (!opt.trace)
        return;
    HostTimes& host = raw.host;
    const auto q0 = perfbench::Clock::now();
    traced(host);
    if (host.wall == 0)
        host.wall = secondsSince(q0);
    if (host.untracedWall == 0)
        host.untracedWall = raw.pass.wallS;
    for (std::size_t l = 0; l < perfbench::kNumLayers; ++l)
        host.layer[l] = raw.tracer.selfSeconds(Layer(l));
    host.stepInclusive = raw.tracer.inclusiveSeconds(perfbench::Step);
}

/** Mean commit fraction per protocol over the apps of one pass. */
struct ShapeCheck
{
    std::map<ProtocolKind, std::vector<double>> frac;

    void
    add(ProtocolKind p, const System::Breakdown& b)
    {
        frac[p].push_back(b.total() > 0 ? b.commit / b.total() : 0);
    }

    /** ScalableBulk lowest and BulkSC highest (figure_shape_holds). */
    bool
    holds() const
    {
        auto mean = [this](ProtocolKind p) {
            const auto& v = frac.at(p);
            double s = 0;
            for (double x : v)
                s += x;
            return s / double(v.size());
        };
        const double sb = mean(ProtocolKind::ScalableBulk);
        const double tcc = mean(ProtocolKind::TCC);
        const double seq = mean(ProtocolKind::SEQ);
        const double bulksc = mean(ProtocolKind::BulkSC);
        return sb < tcc && sb < seq && tcc < bulksc && seq < bulksc;
    }
};

void
runMatrix(const Options& opt, Raw& raw)
{
    struct Cell
    {
        const AppSpec* app;
        ProtocolKind proto;
        std::uint64_t seed;
    };
    std::vector<Cell> cells;
    for (const AppSpec& app : allApps())
        for (ProtocolKind p : kProtocols)
            cells.push_back(Cell{
                &app, p,
                opSeed(opt.seed, opt.pass * 1000 + cells.size())});
    seededShuffle(cells, opSeed(opt.seed, opt.pass));

    auto config = [](const Cell& c) {
        RunConfig cfg;
        cfg.app = c.app;
        cfg.procs = kMatrixProcs;
        cfg.protocol = c.proto;
        cfg.totalChunks = kMatrixChunks;
        cfg.seedOverride = c.seed;
        return cfg;
    };
    std::vector<SimSig> sigs(cells.size());
    runPass(
        opt, raw,
        [&](PassRec& pass) {
            ShapeCheck shape;
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const RunResult r = timedExperiment(config(cells[i]), raw,
                                                    pass);
                shape.add(cells[i].proto, r.breakdown);
                sigs[i] = sigOf(r.makespan, r.commits, r.traffic,
                                r.breakdown);
            }
            if (!shape.holds())
                raw.errors.push_back("figure shape violated: ScalableBulk "
                                     "must have the lowest and BulkSC the "
                                     "highest mean commit fraction");
        },
        [&](HostTimes& host) {
            for (std::size_t i = 0; i < cells.size(); ++i) {
                if (!(tracedExperiment(config(cells[i]), raw, host,
                                       std::uint32_t(i)) == sigs[i]))
                    raw.errors.push_back(
                        "traced run differs from untraced: " +
                        cells[i].app->name + "/" +
                        protocolName(cells[i].proto));
            }
        });
}

RunConfig
radixConfig(std::uint64_t seed, std::uint32_t shards)
{
    RunConfig cfg;
    cfg.app = findApp("Radix");
    cfg.procs = kRadixProcs;
    cfg.protocol = ProtocolKind::ScalableBulk;
    cfg.totalChunks = kRadixChunks;
    cfg.seedOverride = seed;
    cfg.shards = shards;
    if (shards > 1)
        cfg.shardMap = "balanced";
    else
        cfg.interleavedPages = true;
    return cfg;
}

void
runRadix(const Options& opt, Raw& raw)
{
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < kRadixOpsPerPass; ++i)
        seeds.push_back(opSeed(opt.seed, opt.pass * 1000 + i));

    // Determinism contract, checked once per run (pass 0) outside the
    // timed pass: the statistics of a 4-shard run equal those of a
    // 2-shard run.
    const bool determinism = opt.pass == 0;
    RunResult two;
    if (determinism)
        two = runExperiment(radixConfig(seeds[0], 2));

    std::vector<SimSig> serial(seeds.size());
    runPass(
        opt, raw,
        [&](PassRec& pass) {
            for (std::size_t i = 0; i < seeds.size(); ++i) {
                const RunResult r = timedExperiment(
                    radixConfig(seeds[i], kRadixShards), raw, pass);
                if (i == 0 && determinism) {
                    if (!sameStats(r, two))
                        raw.errors.push_back(
                            "shards=4 statistics differ from shards=2");
                }
                raw.shardStats = r.shardStats;
                raw.shardWallS = r.shardWallSec;
            }
        },
        [&](HostTimes& host) {
            // Traced at shards 1 on the same interleaved-homing machine;
            // its untraced twin runs first so the overhead compares like
            // with like.
            const auto u0 = perfbench::Clock::now();
            for (std::size_t i = 0; i < seeds.size(); ++i) {
                const RunResult r = runExperiment(radixConfig(seeds[i], 1));
                serial[i] =
                    sigOf(r.makespan, r.commits, r.traffic, r.breakdown);
            }
            host.untracedWall = secondsSince(u0);
            const auto t0 = perfbench::Clock::now();
            for (std::size_t i = 0; i < seeds.size(); ++i) {
                if (!(tracedExperiment(radixConfig(seeds[i], 1), raw, host,
                                       std::uint32_t(i)) == serial[i]))
                    raw.errors.push_back(
                        "traced run differs from untraced: Radix seed " +
                        std::to_string(seeds[i]));
            }
            host.wall = secondsSince(t0);
        });
}

check::CheckConfig
checkConfig(ProtocolKind p, std::uint64_t seed)
{
    check::CheckConfig cfg;
    cfg.protocol = p;
    cfg.procs = 4;
    cfg.seed = seed;
    cfg.maxJitter = 8;
    cfg.chunksPerCore = 12;
    cfg.chunkInstrs = 80;
    std::string err;
    if (!fault::FaultPlan::parse(kCheckFaults, cfg.faults, &err))
        SBULK_PANIC("fault plan: %s", err.c_str());
    return cfg;
}

std::string
replayCommand(const check::CheckConfig& cfg)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "sbulk-check --protocols %s --replay-seed %llu --procs %u "
                  "--jitter %llu --chunks %llu --chunk-instrs %u "
                  "--faults \"%s\"",
                  protoKey(cfg.protocol), (unsigned long long)cfg.seed,
                  cfg.procs, (unsigned long long)cfg.maxJitter,
                  (unsigned long long)cfg.chunksPerCore, cfg.chunkInstrs,
                  cfg.faults.serialize().c_str());
    return buf;
}

/**
 * Host seconds from config to first event of one checker System, built
 * as check::runSchedule builds it (which cannot be timed from outside).
 */
double
checkSetupSeconds(const check::CheckConfig& cfg)
{
    const auto t0 = perfbench::Clock::now();
    const CheckRig rig(cfg);
    return secondsSince(t0);
}

void
runCheck(const Options& opt, Raw& raw)
{
    std::vector<check::CheckConfig> ops;
    for (ProtocolKind p : kProtocols)
        for (std::uint64_t s = 1; s <= kCheckSeeds; ++s)
            ops.push_back(checkConfig(p, s));
    // The schedule set is fixed (seeds 1..N per protocol); --seed orders it.
    seededShuffle(ops, opSeed(opt.seed, opt.pass));

    std::vector<check::CheckResult> results(ops.size());
    runPass(
        opt, raw,
        [&](PassRec& pass) {
            // Setup is sampled between ops, on the heap state the ops see,
            // and its median is taken out of each op's simulation time.
            double op_sum = 0;
            for (std::size_t i = 0; i < ops.size(); ++i) {
                if (i % kCheckSetupEvery == 0)
                    raw.opSetupS.push_back(checkSetupSeconds(ops[i]));
                const auto t0 = perfbench::Clock::now();
                check::CheckResult r = check::runSchedule(ops[i]);
                const double s = secondsSince(t0);
                raw.opMs.push_back(s * 1e3);
                raw.checkMsPerProto[protoKey(ops[i].protocol)].push_back(
                    s * 1e3);
                op_sum += s;
                pass.commits += r.commitsChecked;
                if (!r.ok()) {
                    ++raw.failed;
                    raw.replays.push_back(
                        replayCommand(ops[i]) + "  # " +
                        r.violations.front().oracle);
                } else if (r.commitsChecked !=
                           ops[i].procs * ops[i].chunksPerCore) {
                    raw.errors.push_back("clean schedule checked " +
                                         std::to_string(r.commitsChecked) +
                                         " commits: " +
                                         replayCommand(ops[i]));
                }
                r.trace = check::ScheduleTrace{}; // only its hash is compared
                results[i] = std::move(r);
            }
            pass.simS = op_sum - median(raw.opSetupS) * double(ops.size());
        },
        [&](HostTimes& host) {
            for (std::size_t i = 0; i < ops.size(); ++i) {
                const check::CheckResult r =
                    tracedSchedule(ops[i], raw, host, std::uint32_t(i));
                raw.checks.add(results[i]);
                if (!sameCheck(r, results[i]))
                    raw.errors.push_back("traced schedule differs: " +
                                         replayCommand(ops[i]));
            }
        });
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** Minimal JSON writer: containers, keys, numbers and strings. */
class JsonOut
{
  public:
    void
    key(const std::string& k)
    {
        str(k);
        _s += ':';
        _afterKey = true;
    }

    void
    num(double v)
    {
        separate();
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        _s += buf;
    }

    void
    str(const std::string& v)
    {
        separate();
        _s += '"';
        for (char c : v) {
            if (c == '"' || c == '\\')
                _s += '\\';
            _s += c;
        }
        _s += '"';
    }

    void
    open(char c)
    {
        separate();
        _s += c;
        _first = true;
    }

    void
    close(char c)
    {
        _s += c;
        _first = false;
    }

    void
    numbers(const std::vector<double>& v)
    {
        open('[');
        for (double x : v)
            num(x);
        close(']');
    }

    const std::string& text() const { return _s; }

  private:
    /** Comma before every element but the first; none after a key. */
    void
    separate()
    {
        if (_afterKey)
            _afterKey = false;
        else if (!_first)
            _s += ',';
        _first = false;
    }

    std::string _s;
    bool _first = true;
    bool _afterKey = false;
};

/** Every per-layer metric (see README.md), medians over traced passes. */
std::map<std::string, double>
layerMetrics(const Raw& raw)
{
    std::map<std::string, double> m;
    const Counts& c = raw.counts;
    const HostTimes& host = raw.host;
    auto layerS = [&host](Layer l) { return host.layer[l]; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    const double events = double(c.events);
    const double commits = double(c.commits);
    std::uint64_t msgs = 0, bytes = 0;
    for (std::size_t k = 0; k < kNumMsgClasses; ++k) {
        msgs += c.msgs[k];
        bytes += c.bytes[k];
    }

    // sim: the event kernel, counted by the step loop.
    m["sim.events"] = events;
    m["sim.events_per_commit"] = ratio(events, commits);
    m["sim.ns_per_event"] = ratio(host.stepInclusive, events) * 1e9;
    // cpu: the Step spans' self time (op loop, caches, event pop, torus
    // hops) and the simulated cycle breakdown.
    const double cycles = c.useful + c.miss + c.commit + c.squash;
    m["cpu.loop_self_s"] = layerS(perfbench::Step);
    m["cpu.useful_frac"] = ratio(c.useful, cycles);
    m["cpu.miss_frac"] = ratio(c.miss, cycles);
    m["cpu.commit_frac"] = ratio(c.commit, cycles);
    m["cpu.squash_frac"] = ratio(c.squash, cycles);
    m["cpu.squashed_per_commit"] = ratio(double(c.chunksSquashed), commits);
    // workload
    m["workload.ops"] = double(c.streamOps);
    m["workload.self_s"] = layerS(perfbench::Workload);
    m["workload.ns_per_op"] =
        ratio(layerS(perfbench::Workload), double(c.streamOps)) * 1e9;
    // mem
    m["mem.loads"] = double(c.loads);
    m["mem.l1_hit_rate"] = ratio(double(c.l1Hits), double(c.loads));
    m["mem.l2_misses"] = double(c.l2Misses);
    m["mem.dir_reads"] = double(c.dirReads);
    m["mem.dir_read_nacks"] = double(c.dirNacks);
    m["mem.dir_resident_lines"] = double(c.dirResident);
    m["mem.cache_s"] = layerS(perfbench::MemCache);
    m["mem.dir_s"] = layerS(perfbench::MemDir);
    // net
    m["net.msgs"] = double(msgs);
    for (std::size_t k = 0; k < kNumMsgClasses; ++k)
        m[std::string("net.msgs.") + msgClassName(MsgClass(k))] =
            double(c.msgs[k]);
    m["net.bytes"] = double(bytes);
    m["net.msgs_per_commit"] = ratio(double(msgs), commits);
    m["net.wire_s"] = layerS(perfbench::Wire);
    m["net.ns_per_msg"] = ratio(layerS(perfbench::Wire), double(msgs)) * 1e9;
    // proto
    m["proto.dir_s"] = layerS(perfbench::ProtoDir);
    m["proto.proc_s"] = layerS(perfbench::ProtoProc);
    m["proto.agent_s"] = layerS(perfbench::ProtoAgent);
    for (ProtocolKind p : kProtocols) {
        const std::string k = protoKey(p);
        const auto it = host.protocol.find(k);
        m["proto." + k + ".host_s"] =
            it == host.protocol.end() ? 0.0 : it->second;
    }
    m["proto.commit_latency_cycles"] =
        ratio(c.latencySum, double(c.latencyN));
    m["proto.dirs_per_commit"] = ratio(c.dirsSum, double(c.dirsN));
    m["proto.commit_success_ratio"] =
        ratio(commits, commits + double(c.failures));
    m["proto.recalls"] = double(c.recalls);
    m["proto.squashes_true"] = double(c.squashTrue);
    m["proto.squashes_alias"] = double(c.squashAlias);
    m["proto.groups_formed"] = double(c.groupsFormed);
    m["proto.groups_failed"] = double(c.groupsFailed);
    // sim.shard: the library's own ShardStats of the last sharded run.
    {
        double windows = 0, empty = 0, ev = 0, busy_max = 0, busy_sum = 0,
               stall = 0;
        for (const ShardEngine::ShardStats& s : raw.shardStats) {
            windows = std::max(windows, double(s.windows));
            empty += double(s.emptyWindows);
            ev += double(s.events);
            busy_max = std::max(busy_max, s.busySec);
            busy_sum += s.busySec;
            stall += s.stallSec;
        }
        const double n = double(raw.shardStats.size());
        m["sim.shard.windows"] = windows;
        m["sim.shard.events"] = ev;
        m["sim.shard.empty_window_share"] = ratio(empty, windows * n);
        m["sim.shard.stall_share"] = ratio(stall, raw.shardWallS * n);
        m["sim.shard.busy_imbalance"] = ratio(busy_max, busy_sum / n);
        m["sim.shard.critical_path_s"] = busy_max;
    }
    // system
    m["system.build_s"] = median(host.buildS);
    // fault
    const CheckCounts& k = raw.checks;
    m["fault.injected"] = double(k.injected);
    m["fault.retransmissions"] = double(k.retransmissions);
    m["fault.dups_dropped"] = double(k.dupsDropped);
    m["fault.watchdog_fires"] = double(k.watchdogFires);
    m["fault.recovery_latency_cycles"] =
        ratio(k.recoverySum, double(k.recoveryN));
    m["fault.stuck_commits"] = double(k.stuck);
    // check
    m["check.schedules"] = double(k.schedules);
    m["check.commits_checked"] = double(k.commitsChecked);
    for (const char* o : kOracles) {
        const auto it = k.violations.find(o);
        m[std::string("check.violations.") + o] =
            it == k.violations.end() ? 0.0 : double(it->second);
    }
    for (ProtocolKind p : kProtocols) {
        const auto it = raw.checkMsPerProto.find(protoKey(p));
        m[std::string("check.") + protoKey(p) + ".ms_per_schedule"] =
            it == raw.checkMsPerProto.end() ? 0.0 : median(it->second);
    }
    m["trace_overhead_share"] = host.wall / host.untracedWall - 1.0;
    return m;
}

void
writeSpans(const Options& opt, const Raw& raw)
{
    const std::string path = std::string(PERFBENCH_BUILD_DIR) + "/spans-" +
                             opt.workload + ".csv";
    std::ofstream f(path);
    if (!f)
        SBULK_PANIC("cannot write spans to '%s'", path.c_str());
    f << "# layer spans (last traced pass): scope,name,parent,count,"
         "inclusive_ns,self_ns\n";
    raw.tracer.writeEdges(f, "layer");
    f << "# commit spans (last traced pass): scope,name,parent_op,"
         "commit_id,start_ns,end_ns,start_tick,end_tick,outcome,"
         "groups_formed,groups_failed\n";
    perfbench::writeCommitSpans(f, raw.commitSpans, "commit");
}

void
emit(const Options& opt, const Raw& raw)
{
    JsonOut j;
    j.open('{');
    j.key("workload");
    j.str(opt.workload);
    j.key("build");
    j.open('{');
    j.key("compiler");
    j.str(__VERSION__);
    j.key("build_type");
    j.str(PERFBENCH_BUILD_TYPE);
    j.key("cxx_flags");
    j.str(PERFBENCH_CXX_FLAGS);
    j.key("optimized");
    j.num(1);
    j.close('}');
    j.key("op_ms");
    j.numbers(raw.opMs);
    j.key("op_setup_s");
    j.numbers(raw.opSetupS);
    j.key("failed");
    j.num(double(raw.failed));
    j.key("pass");
    j.open('{');
    j.key("wall_s");
    j.num(raw.pass.wallS);
    j.key("sim_s");
    j.num(raw.pass.simS);
    j.key("commits");
    j.num(double(raw.pass.commits));
    j.close('}');
    j.key("peak_rss_mb");
    j.num(raw.peakRssMb);
    j.key("replays");
    j.open('[');
    for (const std::string& s : raw.replays)
        j.str(s);
    j.close(']');
    j.key("errors");
    j.open('[');
    for (const std::string& s : raw.errors)
        j.str(s);
    j.close(']');
    if (opt.trace) {
        j.key("layers");
        j.open('{');
        for (const auto& [name, v] : layerMetrics(raw)) {
            j.key(name);
            j.num(v);
        }
        j.close('}');
    }
    j.close('}');
    std::printf("%s\n", j.text().c_str());
}

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "matrix-64p|radix-256p-sharded|check-faulted-4p "
                 "--seed N --pass I --trace 0|1\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                usage("--seed wants an integer");
        } else if (a == "--pass") {
            opt.pass = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                usage("--pass wants an integer");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            opt.trace = v == "1";
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);
    auto raw = std::make_unique<Raw>();
    if (opt.workload == "matrix-64p")
        runMatrix(opt, *raw);
    else if (opt.workload == "radix-256p-sharded")
        runRadix(opt, *raw);
    else if (opt.workload == "check-faulted-4p")
        runCheck(opt, *raw);
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());
    if (opt.trace)
        writeSpans(opt, *raw);
    emit(opt, *raw);
    return 0;
}
