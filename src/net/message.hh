/**
 * @file
 * Base network message and the traffic classes of the paper's Figures 18/19.
 *
 * Protocol payloads subclass Message; the network treats messages opaquely
 * and only looks at routing fields, size, and traffic class.
 *
 * Ownership: a message always has exactly one owner, a MessagePtr. While
 * in flight that owner is the event closure carrying it to its next hop or
 * its destination handler, so destroying an EventQueue (or cancelling the
 * event) frees the messages it still holds. Messages come from the global
 * allocator.
 */

#ifndef SBULK_NET_MESSAGE_HH
#define SBULK_NET_MESSAGE_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/types.hh"

namespace sbulk
{

/**
 * Traffic classes used in the paper's message characterization
 * (Figures 18/19), plus the class of data replies accompanying reads.
 */
enum class MsgClass : std::uint8_t
{
    /** Read of a cache line serviced from memory. */
    MemRd,
    /** Read of a cache line serviced from another cache in state shared. */
    RemoteShRd,
    /** Read of a cache line serviced from another cache in state dirty. */
    RemoteDirtyRd,
    /** Commit-protocol message carrying a signature (or a line list). */
    LargeCMessage,
    /** All other commit-protocol messages. */
    SmallCMessage,
    /** Anything not in the paper's taxonomy (e.g. data reply hops). */
    Other,
};

/**
 * Number of MsgClass values, for stat arrays. Derived from the last
 * enumerator so adding a class automatically grows every array sized by
 * it; a new class must be inserted *before* Other (or Other must stay
 * last) — the static_assert below pins that convention.
 */
inline constexpr std::size_t kNumMsgClasses =
    std::size_t(MsgClass::Other) + 1;
static_assert(kNumMsgClasses == 6,
              "MsgClass changed: keep Other last, update msgClassName() "
              "and re-check every consumer of kNumMsgClasses");

const char* msgClassName(MsgClass cls);

/** Destination endpoint on a tile. */
enum class Port : std::uint8_t
{
    Proc,  ///< the processor/core controller
    Dir,   ///< the directory-module controller
    Agent, ///< a centralized agent (BulkSC arbiter, TCC TID vendor)
};

inline constexpr std::size_t kNumPorts = 3;

/**
 * Base class of everything sent over the interconnect.
 *
 * Concrete protocol messages subclass this; receivers downcast based on a
 * protocol-specific discriminator they define (each protocol module defines
 * its own message kinds).
 */
struct Message
{
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    Port dstPort = Port::Proc;
    MsgClass cls = MsgClass::Other;
    /**
     * Discriminator for demultiplexing at the receiving tile. Kinds below
     * kProtoKindBase belong to the memory system (read path); commit
     * protocols define their own kinds starting at kProtoKindBase.
     */
    std::uint16_t kind = 0;
    /** Payload size in bytes; determines serialization latency. */
    std::uint32_t bytes = 8;
    /** Tick at which the message entered the network (set by the network). */
    Tick sentAt = 0;
    /**
     * Routing scratch owned by the network while the message is in flight:
     * the node the message currently sits at. Lets a multi-hop network
     * advance the message without allocating per-hop closure state.
     */
    NodeId netHop = kInvalidNode;
    /**
     * Per-channel sequence number, assigned by the transport layer when
     * reliable delivery (ARQ) is active — see src/fault/. 0 means the
     * message is untracked (the default: no transport layer attached, or
     * a same-tile message that never crosses the fabric). Receivers use
     * it for duplicate suppression and in-order release; the protocols
     * themselves never read it.
     */
    std::uint32_t seq = 0;

    Message() = default;
    Message(NodeId src_, NodeId dst_, Port port, MsgClass cls_,
            std::uint16_t kind_, std::uint32_t bytes_)
        : src(src_), dst(dst_), dstPort(port), cls(cls_), kind(kind_),
          bytes(bytes_)
    {}
    virtual ~Message() = default;

    /**
     * Polymorphic copy, used by the fault/recovery transport (src/fault/)
     * for duplication faults and sender-side retransmission stores. Every
     * concrete message type overrides this via SBULK_MESSAGE_CLONE; the
     * base implementation covers plain Message instances (tests, acks).
     */
    virtual std::unique_ptr<Message>
    clone() const
    {
        return std::make_unique<Message>(*this);
    }
};

/** First message kind available to commit protocols. */
inline constexpr std::uint16_t kProtoKindBase = 100;

/**
 * Kind of the transport-layer delivery acknowledgment (src/fault/). Acks
 * never reach a protocol handler — the transport consumes them before
 * dispatch — but the kind is reserved here, well above every protocol and
 * internal pseudo-kind range, so no table can collide with it.
 */
inline constexpr std::uint16_t kNetAckKind = 0xfffe;

using MessagePtr = std::unique_ptr<Message>;

/**
 * Define the clone() override of a concrete message type. Message copy
 * constructors are the implicitly-generated memberwise ones, so a single
 * line per type keeps every payload cloneable for the fault transport.
 */
#define SBULK_MESSAGE_CLONE(Type) \
    std::unique_ptr<::sbulk::Message> clone() const override \
    { \
        return std::make_unique<Type>(*this); \
    }

} // namespace sbulk

#endif // SBULK_NET_MESSAGE_HH
