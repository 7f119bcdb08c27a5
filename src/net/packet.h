// Wire-format packets.
//
// Packets in the simulation are real byte buffers containing real Ethernet, IPv4,
// TCP/UDP/ICMP headers in network byte order with correct Internet checksums. This
// keeps the gateway honest: address rewriting for reflection/containment must update
// checksums exactly as a real middlebox would, and tests validate the invariants.
#ifndef SRC_NET_PACKET_H_
#define SRC_NET_PACKET_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/session.h"
#include "src/net/ipv4.h"
#include "src/net/packet_pool.h"

namespace potemkin {

inline constexpr uint16_t kEthertypeIpv4 = 0x0800;
inline constexpr size_t kEthernetHeaderSize = 14;
inline constexpr size_t kIpv4MinHeaderSize = 20;
inline constexpr size_t kTcpMinHeaderSize = 20;
inline constexpr size_t kUdpHeaderSize = 8;
inline constexpr size_t kIcmpHeaderSize = 8;

enum class IpProto : uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

const char* IpProtoName(IpProto proto);

struct TcpFlags {
  static constexpr uint8_t kFin = 0x01;
  static constexpr uint8_t kSyn = 0x02;
  static constexpr uint8_t kRst = 0x04;
  static constexpr uint8_t kPsh = 0x08;
  static constexpr uint8_t kAck = 0x10;
};

// An owned frame buffer (Ethernet header onward).
//
// A Packet may be pool-backed: when constructed with a PacketPool its buffer
// is returned to that pool on destruction (or overwrite) instead of freed, so
// steady-state traffic recycles buffers with zero heap churn. Pool-backed and
// plain packets are byte-for-byte interchangeable; copies are always plain
// (copying is a cold, test-only path and must not contend for pool buffers).
class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}
  Packet(PacketPool* pool, std::vector<uint8_t> bytes)
      : bytes_(std::move(bytes)), pool_(pool) {}

  ~Packet() { Recycle(); }

  Packet(const Packet& other) : bytes_(other.bytes_) {}
  Packet& operator=(const Packet& other) {
    if (this != &other) {
      Recycle();
      bytes_ = other.bytes_;
    }
    return *this;
  }

  Packet(Packet&& other) noexcept
      : bytes_(std::move(other.bytes_)),
        pool_(std::exchange(other.pool_, nullptr)) {
    other.bytes_.clear();
  }
  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      Recycle();
      bytes_ = std::move(other.bytes_);
      other.bytes_.clear();
      pool_ = std::exchange(other.pool_, nullptr);
    }
    return *this;
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t>& mutable_bytes() { return bytes_; }
  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }

 private:
  void Recycle() {
    if (pool_ != nullptr) {
      pool_->Release(std::move(bytes_));
      pool_ = nullptr;
      bytes_.clear();
    }
  }

  std::vector<uint8_t> bytes_;
  PacketPool* pool_ = nullptr;
};

// The hot path moves packets through closures and tables; a throwing or
// copying move would silently reintroduce per-packet allocations.
static_assert(std::is_nothrow_move_constructible_v<Packet>);
static_assert(std::is_nothrow_move_assignable_v<Packet>);

struct EthernetFields {
  MacAddress dst;
  MacAddress src;
  uint16_t ethertype = 0;
};

struct Ipv4Fields {
  uint8_t header_length = kIpv4MinHeaderSize;  // in bytes
  uint8_t tos = 0;
  uint16_t total_length = 0;
  uint16_t id = 0;
  uint8_t ttl = 0;
  IpProto proto = IpProto::kTcp;
  uint16_t checksum = 0;
  Ipv4Address src;
  Ipv4Address dst;
};

struct TcpFields {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t header_length = kTcpMinHeaderSize;  // in bytes
  uint8_t flags = 0;
  uint16_t window = 0;
  uint16_t checksum = 0;
};

struct UdpFields {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint16_t length = 0;
  uint16_t checksum = 0;
};

struct IcmpFields {
  uint8_t type = 0;
  uint8_t code = 0;
  uint16_t checksum = 0;
  uint16_t id = 0;
  uint16_t seq = 0;
};

// A parsed, validated view over a Packet.
//
// Validity rules (the parse-once contract): the view points into the packet's
// heap buffer, so it SURVIVES moving the Packet (the buffer address is stable
// under move) and it survives in-place rewrites made through the view-aware
// helpers below, which keep the decoded fields in sync. It is INVALIDATED by
// anything that may reallocate or reshape the buffer — resizing via
// `mutable_bytes()`, overwriting the packet, or destroying it. `ValidFor()`
// checks the buffer identity and is asserted by the rewrite helpers.
class PacketView {
 public:
  // Returns nullopt if the frame is truncated or not IPv4.
  static std::optional<PacketView> Parse(const Packet& packet);

  const EthernetFields& eth() const { return eth_; }
  const Ipv4Fields& ip() const { return ip_; }
  bool is_tcp() const { return ip_.proto == IpProto::kTcp && has_l4_; }
  bool is_udp() const { return ip_.proto == IpProto::kUdp && has_l4_; }
  bool is_icmp() const { return ip_.proto == IpProto::kIcmp && has_l4_; }
  const TcpFields& tcp() const { return tcp_; }
  const UdpFields& udp() const { return udp_; }
  const IcmpFields& icmp() const { return icmp_; }

  // L4 source/destination port (0 for ICMP).
  uint16_t src_port() const;
  uint16_t dst_port() const;

  std::span<const uint8_t> l4_payload() const { return payload_; }

  // True while this view still describes `packet`'s buffer (see class comment).
  bool ValidFor(const Packet& packet) const {
    return data_ == packet.bytes().data() && size_ == packet.size();
  }

  // Attack-session annotation. Not a wire field: the gateway stamps the id of
  // the destination binding's session before handing the view down the farm
  // side, so the guest/backend layers can attribute ledger events without a
  // lookup of their own. Copies of the view carry the id along.
  SessionId session() const { return session_; }
  void set_session(SessionId session) { session_ = session; }

  // Human-readable one-liner, e.g. "TCP 1.2.3.4:80 > 10.0.0.1:1234 [S] len=0".
  std::string Describe() const;

 private:
  friend void RewriteIpv4Src(Packet&, Ipv4Address, PacketView*);
  friend void RewriteIpv4Dst(Packet&, Ipv4Address, PacketView*);
  friend bool DecrementTtl(Packet&, PacketView*);

  EthernetFields eth_;
  Ipv4Fields ip_;
  TcpFields tcp_;
  UdpFields udp_;
  IcmpFields icmp_;
  bool has_l4_ = false;
  std::span<const uint8_t> payload_;
  const uint8_t* data_ = nullptr;  // buffer identity, for ValidFor()
  size_t size_ = 0;
  SessionId session_ = kNoSession;
};

// Declarative packet construction; checksums are computed during build.
struct PacketSpec {
  MacAddress src_mac;
  MacAddress dst_mac;
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  IpProto proto = IpProto::kTcp;
  uint8_t ttl = 64;
  uint16_t ip_id = 0;

  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  // TCP only:
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t tcp_flags = TcpFlags::kSyn;
  uint16_t window = 65535;
  // ICMP only:
  uint8_t icmp_type = 8;  // echo request
  uint8_t icmp_code = 0;
  uint16_t icmp_id = 0;
  uint16_t icmp_seq = 0;

  std::vector<uint8_t> payload;
};

Packet BuildPacket(const PacketSpec& spec);

// Reads the IPv4 destination address straight out of the frame bytes without a
// full parse — the 4-byte peek the sharded gateway uses to pick the owning
// shard before any per-shard work happens. Returns nullopt for frames too
// short to carry an IPv4 header (a later full Parse would reject them too).
std::optional<Ipv4Address> PeekIpv4Dst(const Packet& packet);
// Same, for the source address (outbound traffic shards by the VM's address).
std::optional<Ipv4Address> PeekIpv4Src(const Packet& packet);

// In-place header mutation (used by the gateway for reflection / NAT); both update
// the IPv4 header checksum and the TCP/UDP pseudo-header checksum via RFC 1624
// deltas (no full recompute). When `view` is non-null it must be a live view of
// `packet` (asserted); the rewrite keeps its decoded fields in sync, so callers
// can keep threading the same view instead of re-parsing.
void RewriteIpv4Src(Packet& packet, Ipv4Address new_src,
                    PacketView* view = nullptr);
void RewriteIpv4Dst(Packet& packet, Ipv4Address new_dst,
                    PacketView* view = nullptr);
void RewriteMacs(Packet& packet, MacAddress src, MacAddress dst);
// Decrements TTL with incremental checksum update; returns false if TTL hit zero.
bool DecrementTtl(Packet& packet, PacketView* view = nullptr);

// Verifies the IPv4 header checksum and (for TCP/UDP/ICMP) the transport checksum.
bool ValidateChecksums(const Packet& packet);

inline constexpr uint8_t kIcmpEchoRequest = 8;
inline constexpr uint8_t kIcmpEchoReply = 0;
inline constexpr uint8_t kIcmpDestUnreachable = 3;
inline constexpr uint8_t kIcmpCodePortUnreachable = 3;
inline constexpr uint8_t kIcmpTimeExceeded = 11;

// True for ICMP error messages (which quote the offending packet).
bool IsIcmpError(const PacketView& view);

// For an ICMP error, extracts the (src, dst) of the quoted original packet from
// the payload (the embedded IPv4 header). nullopt if not an error / truncated.
std::optional<std::pair<Ipv4Address, Ipv4Address>> IcmpEmbeddedAddresses(
    const PacketView& view);

// Builds the standard quotation payload for an ICMP error about `offending`:
// its IPv4 header plus the first 8 payload bytes (RFC 792).
std::vector<uint8_t> IcmpQuoteOf(const Packet& offending);

}  // namespace potemkin

#endif  // SRC_NET_PACKET_H_
