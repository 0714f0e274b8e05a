// Analytic on-chip-network cost model — the cost functions of the paper's
// simplified analytical model (Section 3):
//
//   cost_migration(c_i, c_j)      one-way transfer of the execution context
//   cost_remote_access(c_j, d)    round-trip word-granularity cache access
//
// Both are derived from a wormhole-routed mesh: a packet of F flits
// travelling H hops arrives H * per_hop + (F - 1) cycles after injection
// (head pipeline fill + body serialization).  The base model deliberately
// ignores contention and local cache access time, exactly as the paper's
// model does ("ignores local memory access delays (since the
// migration-vs.-RA decision mainly affects network delays)").
//
// Contention enters through HopLatencies: the tables can be rebuilt from
// per-virtual-network per-hop latencies supplied by the M/D/1 correction
// (noc/contention.hpp), which inflates each vnet's hop cost by its
// measured or estimated link utilization.  A uniform HopLatencies at
// per_hop_cycles reproduces the uncontended tables bit-identically.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/mesh.hpp"
#include "noc/vnet.hpp"
#include "util/types.hpp"

namespace em2 {

/// Parameters of the network + architectural context sizes.  Defaults match
/// the paper's setting: 32-bit Atom-like cores (PC + 32 GPRs ~ 1056 bits,
/// up to ~2 Kbit with TLB state), 128-bit mesh links.
struct CostModelParams {
  /// Cycles for the head flit to advance one hop (router + link).
  std::uint32_t per_hop_cycles = 1;
  /// Link (= flit) width in bits.
  std::uint32_t link_width_bits = 128;
  /// Per-packet header (routing/control) bits, carried in the first flit
  /// alongside payload space accounting.
  std::uint32_t header_bits = 32;
  /// Architectural word size in bits (32-bit Atom-like core).
  std::uint32_t word_bits = 32;
  /// Program-counter bits (the irreducible part of any migrated context).
  std::uint32_t pc_bits = 32;
  /// Address bits carried by a remote-access request.
  std::uint32_t addr_bits = 64;
  /// Full execution-context size in bits for a register-file core:
  /// PC (32) + 32 x 32-bit GPRs = 1056; set to ~2048 to model TLB state.
  std::uint32_t context_bits = 1056;
};

/// Per-virtual-network head-flit hop latencies (cycles, fractional) the
/// tables are built from.  uniform(params.per_hop_cycles) is the
/// uncontended model; the contention layer supplies inflated values.
struct HopLatencies {
  std::array<double, vnet::kNumVnets> cycles{};

  static HopLatencies uniform(double per_hop) noexcept {
    HopLatencies h;
    h.cycles.fill(per_hop);
    return h;
  }
};

/// Closed-form packet/migration/remote-access costs over a mesh.
class CostModel {
 public:
  /// Uncontended model: every vnet advances at params.per_hop_cycles.
  CostModel(const Mesh& mesh, const CostModelParams& params);
  /// Contention-corrected model: tables rebuilt from per-vnet hop
  /// latencies.  HopLatencies::uniform(params.per_hop_cycles) reproduces
  /// the uncontended tables bit-identically.
  CostModel(const Mesh& mesh, const CostModelParams& params,
            const HopLatencies& hop);

  const CostModelParams& params() const noexcept { return params_; }
  const HopLatencies& hop_latencies() const noexcept { return hop_; }
  const Mesh& mesh() const noexcept { return mesh_; }

  /// Number of flits for `payload_bits` of payload (header included);
  /// always at least 1.
  std::uint32_t flits_for(std::uint64_t payload_bits) const noexcept;

  /// Uncontended latency of a `payload_bits` packet over `hops` hops.
  /// Zero-hop packets (local delivery) cost only serialization.
  Cost packet_latency(std::int32_t hops,
                      std::uint64_t payload_bits) const noexcept;

  /// Same, on virtual network `vn`'s (possibly contention-corrected) hop
  /// latency.  Equals packet_latency() under a uniform model.
  Cost packet_latency_on(int vn, std::int32_t hops,
                         std::uint64_t payload_bits) const noexcept;

  /// cost_migration(src, dst): one-way context transfer (paper Section 3)
  /// on the guest-migration vnet.  Migrating to the current core is free.
  /// Served from the per-hop-count table via the mesh's precomputed
  /// coordinates: ~600 B of lookup state per table regardless of mesh
  /// size, so every hot-path load stays L1-resident.  (Dense per-pair
  /// tables were tried and removed: at 64 cores the four tables already
  /// total 128 KB of randomly-indexed state, and the L1 misses cost the
  /// EM2-RA hot loop ~7% against two extra L1 loads here.)
  Cost migration(CoreId src, CoreId dst) const noexcept {
    if (src == dst) {
      return 0;
    }
    return migration_by_hops_[static_cast<std::size_t>(
        mesh_.hops(src, dst))];
  }

  /// Context transfer to the thread's reserved native context (evictions
  /// and returns home) on the native-migration vnet.  Identical to
  /// migration() under a uniform model; diverges only when contention
  /// loads the two migration vnets differently.
  Cost migration_native(CoreId src, CoreId dst) const noexcept {
    if (src == dst) {
      return 0;
    }
    return migration_native_by_hops_[static_cast<std::size_t>(
        mesh_.hops(src, dst))];
  }

  /// Migration cost on the vnet the protocol engine would actually use:
  /// moves into the thread's reserved `native` context travel the native
  /// vnet, all others the guest vnet.  Identical under a uniform model;
  /// keeps the analytic DP/policy evaluators charging the same table as
  /// the engine when contention splits the two migration vnets (the
  /// optimal-lower-bounds-every-policy invariant depends on it).
  Cost migration_to(CoreId src, CoreId dst, CoreId native) const noexcept {
    return dst == native ? migration_native(src, dst)
                         : migration(src, dst);
  }

  /// The per-hop-count tables behind migration_to() and remote_access(),
  /// indexed by hop count in [0, mesh diameter], with the same vnet
  /// selection.  Index 0 holds the serialization-only latency: the
  /// src == dst free case is the caller's to handle.  For loops that
  /// charge many sources against one destination per step (the DP's
  /// frontier sweep) and pick the table once instead of per source.
  std::span<const Cost> migration_to_by_hops(CoreId dst,
                                             CoreId native) const noexcept {
    return dst == native ? migration_native_by_hops_ : migration_by_hops_;
  }
  std::span<const Cost> remote_access_by_hops(MemOp op) const noexcept {
    return op == MemOp::kRead ? remote_read_by_hops_ : remote_write_by_hops_;
  }

  /// Migration carrying an explicit context size (stack-EM2 uses this with
  /// pc + depth * word bits); guest-migration vnet.
  Cost migration_bits(CoreId src, CoreId dst,
                      std::uint64_t bits) const noexcept;

  /// cost_remote_access(requester, home): request + reply round trip.
  /// Reads send an address and return a word; writes send address + word
  /// and return an ack.  Requests travel on vnet::kRemoteRequest, replies
  /// on vnet::kRemoteReply.  Remote access to the local core is free.
  /// Precomputed per hop count, like migration().
  Cost remote_access(CoreId requester, CoreId home,
                     MemOp op) const noexcept {
    if (requester == home) {
      return 0;
    }
    const auto h =
        static_cast<std::size_t>(mesh_.hops(requester, home));
    return op == MemOp::kRead ? remote_read_by_hops_[h]
                              : remote_write_by_hops_[h];
  }

  /// One-way cost of a directory-protocol message used by the CC baseline
  /// (`vn` classifies it onto the memory request or reply vnet; the
  /// uncontended model is vnet-independent).
  Cost message(CoreId src, CoreId dst, std::uint64_t payload_bits,
               int vn = vnet::kMemRequest) const noexcept;

 private:
  Mesh mesh_;
  CostModelParams params_;
  HopLatencies hop_;
  /// Hot-path latency tables indexed by hop count in [0, mesh diameter]:
  /// migration (context_bits one-way, guest vnet), native migration
  /// (context_bits, native vnet), remote read (addr out, word back),
  /// remote write (addr+word out, ack back).  Index 0 entries are the
  /// serialization-only latencies; the src == dst free cases short-circuit
  /// before the table.
  std::vector<Cost> migration_by_hops_;
  std::vector<Cost> migration_native_by_hops_;
  std::vector<Cost> remote_read_by_hops_;
  std::vector<Cost> remote_write_by_hops_;
};

}  // namespace em2
