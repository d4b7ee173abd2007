#include "proto/bulksc/bulksc.hh"

#include <bit>

namespace sbulk
{
namespace bk
{

// ---------------------------------------------------------------- arbiter

BkArbiter::BkArbiter(NodeId self, ProtoContext ctx) : _self(self), _ctx(ctx)
{}

void
BkArbiter::handleMessage(MessagePtr msg)
{
    bkArbiterDispatch().run(
        *this, [this] { return std::uint8_t(arbState()); }, std::move(msg));
}

void
BkArbiter::onArbRequest(MessagePtr msg)
{
    // Serialize: one request occupies the arbiter for the service
    // time; later arrivals queue behind it.
    _ctx.metrics.addForming(1);
    const Tick start = std::max(_ctx.eq.now(), _nextFree);
    _nextFree = start + _ctx.cfg.arbiterServiceTime;
    _ctx.eq.schedule(_nextFree, [this, m = std::move(msg)]() mutable {
        process(std::move(m));
    });
}

void
BkArbiter::process(MessagePtr msg)
{
    auto& req = static_cast<ArbRequestMsg&>(*msg);

    // Check the request against every currently-committing chunk:
    // disjoint-W and R-clean required.
    for (const auto& [id, tx] : _committing) {
        if (req.wSig.intersects(tx.wSig) || req.rSig.intersects(tx.wSig)) {
            _ctx.metrics.addForming(-1);
            _ctx.net.send(std::make_unique<ArbReplyMsg>(kArbDeny, _self,
                                                        req.src, req.id));
            return;
        }
    }

    _ctx.metrics.addForming(-1);
    _ctx.metrics.addCommitting(1);
    _ctx.metrics.sampleGroupFormedEvent();
    _ctx.net.send(
        std::make_unique<ArbReplyMsg>(kArbGrant, _self, req.src, req.id));

    Tx tx;
    tx.wSig = req.wSig;
    tx.committer = req.src;
    tx.dirsPending = std::uint32_t(req.writesByHome.size());
    if (tx.dirsPending == 0) {
        // Nothing to invalidate anywhere: complete immediately.
        _ctx.metrics.addCommitting(-1);
        _ctx.net.send(std::make_unique<ArbReplyMsg>(kArbCommitOk, _self,
                                                    req.src, req.id));
        return;
    }
    for (auto& [home, lines] : req.writesByHome) {
        _ctx.net.send(std::make_unique<DirCommitMsg>(
            _self, home, req.id, req.wSig, std::move(lines), req.allWrites,
            req.src));
    }
    _committing.emplace(req.id, std::move(tx));
}

void
BkArbiter::onDirDone(MessagePtr mp)
{
    const auto& msg = static_cast<const DirDoneMsg&>(*mp);
    auto it = _committing.find(msg.id);
    SBULK_ASSERT(it != _committing.end(), "DirDone for unknown commit");
    if (--it->second.dirsPending == 0) {
        const NodeId committer = it->second.committer;
        _committing.erase(it);
        _ctx.metrics.addCommitting(-1);
        _ctx.net.send(std::make_unique<ArbReplyMsg>(kArbCommitOk, _self,
                                                    committer, msg.id));
    }
}

// -------------------------------------------------------------- directory

BkDirCtrl::BkDirCtrl(NodeId self, ProtoContext ctx, Directory& dir,
                     NodeId agent)
    : _self(self), _ctx(ctx), _dir(dir), _agent(agent)
{
    _dir.setReadGate([this](Addr line) { return loadBlocked(line); });
}

bool
BkDirCtrl::loadBlocked(Addr line) const
{
    for (const auto& [id, active] : _active)
        if (active.wSig.contains(line))
            return true;
    return false;
}

namespace
{

/** The commit a BulkSC directory message is about. */
const CommitId&
dirSubjectOf(const Message& msg)
{
    switch (msg.kind) {
      case kDirCommit:
        return static_cast<const DirCommitMsg&>(msg).id;
      case kBkBulkInvAck:
      case kBkBulkInvNack:
        return static_cast<const BkBulkInvAckMsg&>(msg).id;
      default:
        SBULK_PANIC("BkDirCtrl: unexpected message kind %u", msg.kind);
    }
}

} // namespace

void
BkDirCtrl::handleMessage(MessagePtr msg)
{
    const CommitId id = dirSubjectOf(*msg);
    bkDirDispatch().run(
        *this, [this, &id] { return std::uint8_t(dirStateOf(id)); },
        std::move(msg));
}

void
BkDirCtrl::onInvAck(MessagePtr msg)
{
    const auto& ack = static_cast<const BkBulkInvAckMsg&>(*msg);
    auto it = _active.find(ack.id);
    SBULK_ASSERT(it != _active.end(), "ack for inactive commit");
    if (--it->second.acksPending == 0) {
        _active.erase(it);
        _ctx.net.send(std::make_unique<DirDoneMsg>(_self, _agent, ack.id));
    }
}

void
BkDirCtrl::onInvNack(MessagePtr msg)
{
    // The sharer is awaiting an arbiter decision (conservative
    // initiation): retry until it consumes the invalidation.
    const auto& nack = static_cast<const BkBulkInvAckMsg&>(*msg);
    const CommitId id = nack.id;
    const NodeId target = nack.src;
    _ctx.eq.scheduleIn(_ctx.cfg.invRetryDelay, [this, id, target] {
        auto it = _active.find(id);
        if (it == _active.end())
            return;
        _ctx.net.send(std::make_unique<BkBulkInvMsg>(
            _self, target, id, it->second.wSig, it->second.allWrites,
            it->second.committer));
    });
}

void
BkDirCtrl::onDirCommit(MessagePtr mp)
{
    const auto& msg = static_cast<const DirCommitMsg&>(*mp);
    // Gather invalidation targets, then apply the ownership updates.
    NodeSet targets;
    for (Addr line : msg.writesHere)
        targets |= _dir.sharersOf(line, msg.committer);
    for (Addr line : msg.writesHere) {
        _dir.commitLine(line, msg.committer);
        if (_ctx.observer)
            _ctx.observer->onLineCommitted(_self, line, msg.id);
    }

    if (targets.empty()) {
        _ctx.net.send(std::make_unique<DirDoneMsg>(_self, _agent, msg.id));
        return;
    }
    Active active;
    active.wSig = msg.wSig;
    active.allWrites = msg.allWrites;
    active.committer = msg.committer;
    active.acksPending = targets.count();
    _active.emplace(msg.id, std::move(active));
    targets.forEach([&](NodeId proc) {
        _ctx.net.send(std::make_unique<BkBulkInvMsg>(
            _self, proc, msg.id, msg.wSig, msg.allWrites,
            msg.committer));
    });
}

// -------------------------------------------------------------- processor

BkProcCtrl::BkProcCtrl(NodeId self, ProtoContext ctx, NodeId agent)
    : _self(self), _ctx(ctx), _agent(agent)
{}

void
BkProcCtrl::startCommit(Chunk& chunk)
{
    SBULK_ASSERT(_chunk == nullptr, "BulkSC commit already in flight");
    _chunk = &chunk;
    _granted = false;

    if (chunk.gVec().empty()) {
        Chunk* c = _chunk;
        _chunk = nullptr;
        _ctx.eq.scheduleIn(1, [this, c] {
            _ctx.metrics.recordCommit(*c, _ctx.eq.now());
            _core->chunkCommitted(c->tag());
        });
        return;
    }
    sendRequest();
}

void
BkProcCtrl::sendRequest()
{
    Chunk& chunk = *_chunk;
    ++chunk.commitAttempts;
    _current = CommitId{chunk.tag(), chunk.commitAttempts};
    _awaitingDecision = true;
    if (_ctx.observer)
        _ctx.observer->onCommitRequested(_self, _current, chunk);

    std::unordered_map<NodeId, std::vector<Addr>> writes =
        chunk.writesByHome();
    _ctx.net.send(std::make_unique<ArbRequestMsg>(
        _self, _agent, _current, chunk.rSig(), chunk.wSig(),
        std::move(writes), chunk.writeLines()));
}

void
BkProcCtrl::abortCommit(ChunkTag tag)
{
    if (_chunk && _current.tag == tag) {
        _chunk = nullptr;
        _awaitingDecision = false;
        _granted = false;
        if (_ctx.observer)
            _ctx.observer->onCommitAborted(_self, _current);
    }
}

void
BkProcCtrl::handleMessage(MessagePtr msg)
{
    bkProcDispatch().run(
        *this, [this] { return std::uint8_t(procState()); },
        std::move(msg));
}

void
BkProcCtrl::onArbGrant(MessagePtr msg)
{
    const auto& reply = static_cast<const ArbReplyMsg&>(*msg);
    if (_chunk && reply.id == _current) {
        _awaitingDecision = false;
        _granted = true;
        // The grant is the serialization point: the arbiter ordered
        // this chunk before everything it grants later, even though
        // the invalidation fan-out may let a later grant *complete*
        // first.
        if (_ctx.observer)
            _ctx.observer->onCommitSerialized(_self, _current);
    }
}

void
BkProcCtrl::onArbDeny(MessagePtr msg)
{
    const auto& reply = static_cast<const ArbReplyMsg&>(*msg);
    if (!_chunk || reply.id != _current)
        return;
    _awaitingDecision = false;
    if (_ctx.observer)
        _ctx.observer->onCommitFailure(_self, reply.id);
    _ctx.metrics.commitFailures.inc();
    _ctx.metrics.commitRetries.inc();
    const Tick factor = std::min<Tick>(_chunk->commitAttempts, 20);
    const Tick delay = _ctx.cfg.commitRetryDelay * factor + (_self % 16);
    const CommitId failed = _current;
    _ctx.eq.scheduleIn(delay, [this, failed] {
        if (_chunk && _current == failed)
            sendRequest();
    });
}

void
BkProcCtrl::onArbCommitOk(MessagePtr msg)
{
    const auto& reply = static_cast<const ArbReplyMsg&>(*msg);
    if (!_chunk || reply.id != _current)
        return;
    Chunk* chunk = _chunk;
    _chunk = nullptr;
    if (!_granted && _ctx.observer)
        _ctx.observer->onCommitSerialized(_self, reply.id);
    _granted = false;
    if (_ctx.observer)
        _ctx.observer->onCommitSuccess(_self, reply.id);
    _ctx.metrics.recordCommit(*chunk, _ctx.eq.now());
    _core->chunkCommitted(chunk->tag());
}

void
BkProcCtrl::onBulkInv(MessagePtr mp)
{
    const auto& msg = static_cast<const BkBulkInvMsg&>(*mp);
    if (_awaitingDecision) {
        // Conservative initiation: bounce everything until the arbiter
        // answers (the very behaviour OCI eliminates).
        _ctx.net.send(std::make_unique<BkBulkInvAckMsg>(
            kBkBulkInvNack, _self, msg.ackTo, msg.id));
        return;
    }

    // A granted chunk is already ordered before the invalidating one and
    // must not squash.
    const ChunkTag exempt =
        (_granted && _chunk) ? _current.tag : ChunkTag{};
    const InvOutcome outcome =
        _core->applyBulkInv(msg.wSig, msg.lines, msg.id.tag, exempt);
    if (outcome.squashedAny) {
        if (outcome.wasTrueConflict)
            _ctx.metrics.squashesTrueConflict.inc();
        else
            _ctx.metrics.squashesAliasing.inc();
        if (outcome.squashedCommitting &&
            outcome.committingTag == _current.tag) {
            // The chunk was denied and waiting to retry; the conflict
            // settled it. Drop the pending retry.
            _chunk = nullptr;
            if (_ctx.observer)
                _ctx.observer->onCommitAborted(_self, _current);
        }
    }
    _ctx.net.send(std::make_unique<BkBulkInvAckMsg>(kBkBulkInvAck, _self,
                                                    msg.ackTo, msg.id));
}

// ---------------------------------------------------- declared machines

const DispatchTable<BkArbiter>&
bkArbiterDispatch()
{
    using D = Disposition;
    constexpr auto ID = std::uint8_t(BkArbState::Idle);
    constexpr auto BU = std::uint8_t(BkArbState::Busy);

    static const char* const state_names[] = {"Idle", "Busy"};
    static const std::uint16_t kinds[] = {kArbRequest, kDirDone};
    static const char* const kind_names[] = {"arb_request", "dir_done"};

    static const TransitionRow<BkArbiter> rows[] = {
        {ID, kArbRequest, D::Handler, &BkArbiter::onArbRequest,
         "onArbRequest", 1, {{ID, 0}},
         "queue behind the arbiter pipeline; the decision is taken when "
         "the occupancy elapses, not on arrival"},
        {BU, kArbRequest, D::Handler, &BkArbiter::onArbRequest,
         "onArbRequest", 1, {{BU, 0}},
         "queue behind the arbiter pipeline (the serialization bottleneck "
         "the paper measures)"},
        {BU, kDirDone, D::Handler, &BkArbiter::onDirDone, "onDirDone", 2,
         {{BU, 0}, {ID, 0}},
         "a write dir finished its fan-out; the last done sends commit_ok "
         "to the committer"},
        {ID, kDirDone, D::Unreachable, nullptr, nullptr, 1, {{ID, 0}},
         "dones only exist for granted commits, which stay in _committing "
         "until their last done"},
    };

    static const RecoveryRow recovery[] = {
        {ID,
         "a duplicated arb_request would be decided twice and "
         "double-charge the arbiter occupancy; exactly-once delivery "
         "(transport dedup) is load-bearing here",
         "no state is held between requests; a lost request sits "
         "unacked in the requester's retransmission store"},
        {BU,
         "directory dones are counted once per granted commit; dedup "
         "keeps the outstanding count exact",
         "dones are tracked by the reporting directory's retransmission "
         "channel; the busy window extends until the re-delivered done "
         "lands"},
    };

    static const DispatchTable<BkArbiter> table(
        "bulksc", "arbiter", state_names, std::size(state_names), kinds,
        kind_names, std::size(kinds), /*num_real_kinds=*/2, rows,
        std::size(rows), ConflictPolicy::None,
        /*ascending_traversal=*/false, recovery, std::size(recovery));
    return table;
}

const DispatchTable<BkDirCtrl>&
bkDirDispatch()
{
    using D = Disposition;
    constexpr auto IN = std::uint8_t(BkDirState::Inactive);
    constexpr auto IV = std::uint8_t(BkDirState::Invalidating);

    static const char* const state_names[] = {"Inactive", "Invalidating"};
    static const std::uint16_t kinds[] = {
        kDirCommit, kBkBulkInvAck, kBkBulkInvNack,
    };
    static const char* const kind_names[] = {
        "dir_commit", "bulk_inv_ack", "bulk_inv_nack",
    };

    static const TransitionRow<BkDirCtrl> rows[] = {
        {IN, kDirCommit, D::Handler, &BkDirCtrl::onDirCommit, "onDirCommit",
         2, {{IN, 0}, {IV, 0}},
         "apply the granted chunk's writes; no sharers means an immediate "
         "done"},
        {IV, kDirCommit, D::Unreachable, nullptr, nullptr, 1, {{IV, 0}},
         "the arbiter grants each commit id exactly once"},

        {IV, kBkBulkInvAck, D::Handler, &BkDirCtrl::onInvAck, "onInvAck",
         2, {{IV, 0}, {IN, 0}},
         "collect sharer acks; the last one reports done to the arbiter"},
        {IN, kBkBulkInvAck, D::Unreachable, nullptr, nullptr, 1, {{IN, 0}},
         "every sharer answers exactly once, and the fan-out stays active "
         "until the last answer"},

        {IV, kBkBulkInvNack, D::Handler, &BkDirCtrl::onInvNack, "onInvNack",
         1, {{IV, 0}},
         "the sharer is awaiting an arbiter decision (conservative "
         "initiation): schedule a retry"},
        {IN, kBkBulkInvNack, D::Handler, &BkDirCtrl::onInvNack, "onInvNack",
         1, {{IN, 0}},
         "retry of a fan-out that completed meanwhile: the scheduled "
         "retry finds nothing and fizzles (kept as a handler — the "
         "schedule itself is observable in replay traces)"},
    };

    static const RecoveryRow recovery[] = {
        {IN,
         "a duplicated dir_commit would fan the invalidation out twice "
         "and over-count acks; exactly-once delivery (transport dedup) "
         "is load-bearing here",
         "nothing is held; a lost dir_commit stays unacked in the "
         "arbiter's retransmission store"},
        {IV,
         "sharer acks are counted once; a replayed ack would release the "
         "fan-out early, so dedup keeps the count exact",
         "missing acks are retransmitted by each sharer's channel until "
         "the fan-out drains"},
    };

    static const DispatchTable<BkDirCtrl> table(
        "bulksc", "dir", state_names, std::size(state_names), kinds,
        kind_names, std::size(kinds), /*num_real_kinds=*/3, rows,
        std::size(rows), ConflictPolicy::None,
        /*ascending_traversal=*/false, recovery, std::size(recovery));
    return table;
}

const DispatchTable<BkProcCtrl>&
bkProcDispatch()
{
    using D = Disposition;
    constexpr auto ID = std::uint8_t(BkProcState::Idle);
    constexpr auto AW = std::uint8_t(BkProcState::AwaitDecision);
    constexpr auto BK = std::uint8_t(BkProcState::Backoff);
    constexpr auto GR = std::uint8_t(BkProcState::Granted);

    static const char* const state_names[] = {
        "Idle", "AwaitDecision", "Backoff", "Granted",
    };
    static const std::uint16_t kinds[] = {
        kArbGrant, kArbDeny, kArbCommitOk, kBkBulkInv,
    };
    static const char* const kind_names[] = {
        "arb_grant", "arb_deny", "arb_commit_ok", "bulk_inv",
    };

    static const TransitionRow<BkProcCtrl> rows[] = {
        // ---- arb_grant -----------------------------------------------
        {AW, kArbGrant, D::Handler, &BkProcCtrl::onArbGrant, "onArbGrant",
         2, {{GR, 0}, {AW, 0}},
         "the arbiter ordered us (the serialization point); stale ids "
         "leave the pending decision alone"},
        {ID, kArbGrant, D::Handler, &BkProcCtrl::onArbGrant, "onArbGrant",
         1, {{ID, 0}}, "stale: the chunk was squashed before the decision"},
        {BK, kArbGrant, D::Handler, &BkProcCtrl::onArbGrant, "onArbGrant",
         1, {{BK, 0}},
         "stale id only: the current attempt was denied, and each attempt "
         "gets exactly one decision"},
        {GR, kArbGrant, D::Handler, &BkProcCtrl::onArbGrant, "onArbGrant",
         1, {{GR, 0}}, "stale id only: one decision per attempt"},

        // ---- arb_deny ------------------------------------------------
        {AW, kArbDeny, D::Handler, &BkProcCtrl::onArbDeny, "onArbDeny", 2,
         {{BK, 0}, {AW, 0}},
         "conflict with a committing chunk: back off and retry; stale ids "
         "leave the pending decision alone"},
        {ID, kArbDeny, D::Handler, &BkProcCtrl::onArbDeny, "onArbDeny", 1,
         {{ID, 0}}, "stale: the chunk was squashed before the decision"},
        {BK, kArbDeny, D::Handler, &BkProcCtrl::onArbDeny, "onArbDeny", 1,
         {{BK, 0}}, "stale id only: one decision per attempt"},
        {GR, kArbDeny, D::Handler, &BkProcCtrl::onArbDeny, "onArbDeny", 1,
         {{GR, 0}}, "stale id only: one decision per attempt"},

        // ---- arb_commit_ok -------------------------------------------
        {GR, kArbCommitOk, D::Handler, &BkProcCtrl::onArbCommitOk,
         "onArbCommitOk", 3, {{ID, 0}, {GR, 0}, {AW, 0}},
         "every write dir drained: the chunk is globally committed; stale "
         "ids are discarded — and the core may send the next chunk's "
         "request synchronously"},
        {ID, kArbCommitOk, D::Handler, &BkProcCtrl::onArbCommitOk,
         "onArbCommitOk", 1, {{ID, 0}},
         "stale: from an attempt whose chunk was squashed after the grant"},
        {AW, kArbCommitOk, D::Handler, &BkProcCtrl::onArbCommitOk,
         "onArbCommitOk", 1, {{AW, 0}},
         "stale id only: commit_ok for the current attempt follows its "
         "grant on the FIFO arbiter channel"},
        {BK, kArbCommitOk, D::Handler, &BkProcCtrl::onArbCommitOk,
         "onArbCommitOk", 1, {{BK, 0}},
         "stale id only: the current attempt was denied, not granted"},

        // ---- bulk_inv ------------------------------------------------
        {AW, kBkBulkInv, D::Nack, &BkProcCtrl::onBulkInv, "onBulkInv", 1,
         {{AW, 0}},
         "conservative commit initiation: bounce every invalidation until "
         "the arbiter answers (Figure 4(c)) — the behaviour OCI removes"},
        {ID, kBkBulkInv, D::Handler, &BkProcCtrl::onBulkInv, "onBulkInv",
         1, {{ID, 0}}, "apply the invalidation and ack"},
        {BK, kBkBulkInv, D::Handler, &BkProcCtrl::onBulkInv, "onBulkInv",
         2, {{BK, 0}, {ID, 0}},
         "apply; squashing the denied-and-waiting chunk settles the "
         "conflict and drops its retry"},
        {GR, kBkBulkInv, D::Handler, &BkProcCtrl::onBulkInv, "onBulkInv",
         1, {{GR, 0}},
         "apply; the granted chunk is already ordered before the "
         "invalidating one and is exempt from squashing"},
    };

    static const RecoveryRow recovery[] = {
        {ID,
         "late replies and invalidations for settled attempts hit the "
         "stale-id guards after transport dedup",
         "nothing is awaited; the next startCommit() drives progress"},
        {AW,
         "one arb_reply per attempt: a duplicated reply would grant and "
         "retry the same chunk; exactly-once delivery (transport dedup) "
         "is load-bearing here",
         "the arb_request is unacked in this core's retransmission "
         "store; the watchdog kick re-sends it"},
        {BK,
         "late denials for the failed attempt are absorbed by the "
         "attempt-id guard",
         "the retry timer re-requests under a bumped attempt id"},
        {GR,
         "directory dones are counted once per directory; dedup protects "
         "the drain count",
         "dones are retransmitted by each directory's channel until the "
         "drain completes"},
    };

    static const DispatchTable<BkProcCtrl> table(
        "bulksc", "proc", state_names, std::size(state_names), kinds,
        kind_names, std::size(kinds), /*num_real_kinds=*/4, rows,
        std::size(rows), ConflictPolicy::None,
        /*ascending_traversal=*/false, recovery, std::size(recovery));
    return table;
}

} // namespace bk
} // namespace sbulk
