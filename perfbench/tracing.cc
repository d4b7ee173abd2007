#include "tracing.hh"

#include "net/message.hh"

namespace perfbench
{

const char*
layerName(Layer l)
{
    switch (l) {
      case Root: return "root";
      case Step: return "sim.step";
      case Workload: return "workload.next";
      case Wire: return "net.wire";
      case ProtoProc: return "proto.proc";
      case ProtoDir: return "proto.dir";
      case ProtoAgent: return "proto.agent";
      case MemCache: return "mem.cache";
      case MemDir: return "mem.dir";
      case kNumLayers: break;
    }
    return "?";
}

double
Tracer::selfSeconds(Layer l) const
{
    std::int64_t ns = 0;
    for (const Agg& a : _agg[l])
        ns += a.selfNs;
    return double(ns) * 1e-9;
}

double
Tracer::inclusiveSeconds(Layer l) const
{
    std::int64_t ns = 0;
    for (const Agg& a : _agg[l])
        ns += a.inclusiveNs;
    return double(ns) * 1e-9;
}

void
Tracer::writeEdges(std::ostream& os, const char* scope) const
{
    for (std::size_t l = 0; l < kNumLayers; ++l) {
        for (std::size_t p = 0; p < kNumLayers; ++p) {
            const Agg& a = _agg[l][p];
            if (a.count == 0)
                continue;
            os << scope << ',' << layerName(Layer(l)) << ','
               << layerName(Layer(p)) << ',' << a.count << ','
               << a.inclusiveNs << ',' << a.selfNs << '\n';
        }
    }
}

void
TracingTransport::onSend(sbulk::MessagePtr msg)
{
    const Span s(_t, Wire);
    if (_inner)
        _inner->onSend(std::move(msg));
    else
        wire(std::move(msg));
}

void
TracingTransport::onArrive(sbulk::MessagePtr msg)
{
    const bool mem = msg->kind < sbulk::kProtoKindBase;
    Layer l = ProtoAgent;
    if (msg->dstPort == sbulk::Port::Proc)
        l = mem ? MemCache : ProtoProc;
    else if (msg->dstPort == sbulk::Port::Dir)
        l = mem ? MemDir : ProtoDir;
    const Span s(_t, l);
    if (_inner)
        _inner->onArrive(std::move(msg));
    else
        dispatch(std::move(msg));
}

void
TracingTransport::kick(sbulk::NodeId node)
{
    if (_inner)
        _inner->kick(node);
}

void
SpanObserver::onCommitRequested(sbulk::NodeId proc, const sbulk::CommitId& id,
                                const sbulk::Chunk& chunk)
{
    (void)proc;
    (void)chunk;
    CommitSpan span;
    span.id = id;
    span.parentOp = _op;
    span.startNs = nowNs();
    span.startTick = tick();
    _open[id] = _sink.size();
    _sink.push_back(span);
}

void
SpanObserver::close(const sbulk::CommitId& id, const char* outcome)
{
    const auto it = _open.find(id);
    if (it == _open.end())
        return;
    CommitSpan& span = _sink[it->second];
    span.endNs = nowNs();
    span.endTick = tick();
    span.outcome = outcome;
    _open.erase(it);
}

void
SpanObserver::onCommitSuccess(sbulk::NodeId proc, const sbulk::CommitId& id)
{
    (void)proc;
    close(id, "success");
}

void
SpanObserver::onCommitFailure(sbulk::NodeId proc, const sbulk::CommitId& id)
{
    (void)proc;
    close(id, "failure");
}

void
SpanObserver::onCommitAborted(sbulk::NodeId proc, const sbulk::CommitId& id)
{
    (void)proc;
    close(id, "aborted");
}

void
SpanObserver::onGroupFormed(sbulk::NodeId dir, const sbulk::CommitId& id,
                            const sbulk::NodeSet& g_vec)
{
    (void)dir;
    (void)g_vec;
    ++_groupsFormed;
    if (const auto it = _open.find(id); it != _open.end())
        ++_sink[it->second].groupsFormed;
}

void
SpanObserver::onGroupFailed(sbulk::NodeId dir, const sbulk::CommitId& id,
                            sbulk::GroupFailReason why,
                            const sbulk::CommitId& winner)
{
    (void)dir;
    (void)why;
    (void)winner;
    ++_groupsFailed;
    if (const auto it = _open.find(id); it != _open.end())
        ++_sink[it->second].groupsFailed;
}

void
writeCommitSpans(std::ostream& os, const std::vector<CommitSpan>& spans,
                 const char* scope)
{
    for (const CommitSpan& s : spans) {
        os << scope << ",commit," << s.parentOp << ',' << s.id.tag.proc
           << ':' << s.id.tag.seq << ':' << s.id.attempt << ','
           << s.startNs << ',' << s.endNs << ',' << s.startTick << ','
           << s.endTick << ',' << s.outcome << ',' << s.groupsFormed << ','
           << s.groupsFailed << '\n';
    }
}

} // namespace perfbench
