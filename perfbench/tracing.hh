/**
 * @file
 * Outside-in tracing for the benchmark's traced run. Every wrapper here
 * sits on a public interface of the simulator and changes nothing it
 * forwards: a ThreadStream wrapper (src/workload), a pass-through
 * TransportLayer (src/net wire time, per-port handler time of src/proto
 * and src/mem), a ProtocolObserver (commit lifecycle spans) and a timed
 * EventQueue::step() loop (src/sim).
 *
 * Fine-grained spans (one per event, stream op, send and delivery) run
 * to tens of millions per pass, so they are folded as they close into
 * per-(layer, parent layer) aggregates: count, inclusive and self time.
 * Commit lifecycle spans are few (one per commit attempt) and are kept
 * whole, tagged with their CommitId, and written out at the end.
 */

#ifndef PERFBENCH_TRACING_HH
#define PERFBENCH_TRACING_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "net/network.hh"
#include "proto/commit_protocol.hh"
#include "workload/stream.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** The layers a traced span can belong to. Root means "no parent". */
enum Layer : std::uint8_t
{
    Root,
    Step,       ///< one EventQueue::step() (src/sim + the residual cpu)
    Workload,   ///< ThreadStream::next() (src/workload)
    Wire,       ///< TransportLayer::wire() (src/net)
    ProtoProc,  ///< Port::Proc handler, protocol kinds (src/proto)
    ProtoDir,   ///< Port::Dir handler, protocol kinds (src/proto)
    ProtoAgent, ///< Port::Agent handler (src/proto central agents)
    MemCache,   ///< Port::Proc handler, read-path kinds (src/mem)
    MemDir,     ///< Port::Dir handler, read-path kinds (src/mem)
    kNumLayers,
};

const char* layerName(Layer l);

/**
 * Span stack with per-(layer, parent) aggregation. A span's self time is
 * its duration minus the time its child spans cover.
 */
class Tracer
{
  public:
    struct Agg
    {
        std::uint64_t count = 0;
        std::int64_t inclusiveNs = 0;
        std::int64_t selfNs = 0;
    };

    void
    enter(Layer l)
    {
        _stack.push_back(Open{l, nowNs(), 0});
    }

    void
    leave()
    {
        const Open o = _stack.back();
        _stack.pop_back();
        const std::int64_t d = nowNs() - o.start;
        const Layer parent = _stack.empty() ? Root : _stack.back().layer;
        Agg& a = _agg[o.layer][parent];
        ++a.count;
        a.inclusiveNs += d;
        a.selfNs += d - o.childNs;
        if (!_stack.empty())
            _stack.back().childNs += d;
    }

    /** Self and inclusive seconds of @p l, summed over every parent. */
    double selfSeconds(Layer l) const;
    double inclusiveSeconds(Layer l) const;

    /** One CSV row per (layer, parent) edge that saw a span. */
    void writeEdges(std::ostream& os, const char* scope) const;

  private:
    struct Open
    {
        Layer layer;
        std::int64_t start;
        std::int64_t childNs;
    };
    std::vector<Open> _stack;
    std::array<std::array<Agg, kNumLayers>, kNumLayers> _agg{};
};

/** RAII span on a Tracer. */
class Span
{
  public:
    Span(Tracer& t, Layer l) : _t(t) { _t.enter(l); }
    ~Span() { _t.leave(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer& _t;
};

/** Times every next() of the wrapped stream as a Workload span. */
class TracedStream : public sbulk::ThreadStream
{
  public:
    TracedStream(std::unique_ptr<sbulk::ThreadStream> inner, Tracer& t)
        : _inner(std::move(inner)), _t(t)
    {}

    sbulk::MemOp
    next() override
    {
        const Span s(_t, Workload);
        ++_ops;
        return _inner->next();
    }

    std::uint64_t ops() const { return _ops; }

  private:
    std::unique_ptr<sbulk::ThreadStream> _inner;
    Tracer& _t;
    std::uint64_t _ops = 0;
};

/**
 * Pass-through transport: onSend() is a Wire span around wire(), and
 * onArrive() is a handler span (by destination port and message kind)
 * around dispatch(). With @p inner set (the faulted checker workload) it
 * forwards to that transport instead, so the spans also cover the fault
 * injector and the ARQ layer.
 */
class TracingTransport : public sbulk::TransportLayer
{
  public:
    TracingTransport(sbulk::Network& net, Tracer& t,
                     sbulk::TransportLayer* inner = nullptr)
        : sbulk::TransportLayer(net), _t(t), _inner(inner)
    {}

    void onSend(sbulk::MessagePtr msg) override;
    void onArrive(sbulk::MessagePtr msg) override;
    void kick(sbulk::NodeId node) override;

  private:
    Tracer& _t;
    sbulk::TransportLayer* _inner;
};

/** One commit attempt's lifecycle span (kept whole, not aggregated). */
struct CommitSpan
{
    sbulk::CommitId id;
    /** Index of the op span (the run) the commit belongs to. */
    std::uint32_t parentOp = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    sbulk::Tick startTick = 0;
    sbulk::Tick endTick = 0;
    /** "success", "failure", "aborted" or "open" at the end of the run. */
    const char* outcome = "open";
    std::uint32_t groupsFormed = 0;
    std::uint32_t groupsFailed = 0;
};

/** Records commit lifecycle spans and counts ScalableBulk groups. */
class SpanObserver : public sbulk::ProtocolObserver
{
  public:
    SpanObserver(std::vector<CommitSpan>& sink, std::uint32_t op)
        : _sink(sink), _op(op)
    {}

    void setClock(const sbulk::EventQueue* eq) { _eq = eq; }

    void onCommitRequested(sbulk::NodeId proc, const sbulk::CommitId& id,
                           const sbulk::Chunk& chunk) override;
    void onCommitSuccess(sbulk::NodeId proc,
                         const sbulk::CommitId& id) override;
    void onCommitFailure(sbulk::NodeId proc,
                         const sbulk::CommitId& id) override;
    void onCommitAborted(sbulk::NodeId proc,
                         const sbulk::CommitId& id) override;
    void onGroupFormed(sbulk::NodeId dir, const sbulk::CommitId& id,
                       const sbulk::NodeSet& g_vec) override;
    void onGroupFailed(sbulk::NodeId dir, const sbulk::CommitId& id,
                       sbulk::GroupFailReason why,
                       const sbulk::CommitId& winner) override;

    std::uint64_t groupsFormed() const { return _groupsFormed; }
    std::uint64_t groupsFailed() const { return _groupsFailed; }

  private:
    void close(const sbulk::CommitId& id, const char* outcome);
    sbulk::Tick tick() const { return _eq ? _eq->now() : 0; }

    std::vector<CommitSpan>& _sink;
    std::uint32_t _op;
    const sbulk::EventQueue* _eq = nullptr;
    /** Open attempts: CommitId -> index into _sink. */
    std::unordered_map<sbulk::CommitId, std::size_t> _open;
    std::uint64_t _groupsFormed = 0;
    std::uint64_t _groupsFailed = 0;
};

/** Write commit spans as CSV (one row per attempt). */
void writeCommitSpans(std::ostream& os, const std::vector<CommitSpan>& spans,
                      const char* scope);

} // namespace perfbench

#endif // PERFBENCH_TRACING_HH
