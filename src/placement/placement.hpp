// Data placement: the address -> home-core assignment d(.) of the paper.
//
// Under EM2 every cache block is cacheable at exactly one core (its home);
// "a good data placement method (one which keeps a thread's private data
// assigned to that thread's native core, and allocates shared data among
// the sharers) is critical" (paper, Section 2).  The paper's evaluation
// uses first-touch placement; we provide that plus ablation alternatives.
//
// Placement operates on *blocks* (cache lines): block = addr >> log2(block
// size), matching TraceSet::block_of.
//
// Every scheme produces the same concrete object: a flat block -> home
// table (placement/block_map.hpp) with an inline fallback for blocks the
// table does not hold.  The schemes are builders that fill it, so the
// per-access lookup every engine makes is one non-virtual, inlined probe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "placement/block_map.hpp"
#include "trace/stream/source.hpp"
#include "trace/trace.hpp"
#include "util/types.hpp"

namespace em2 {

/// A block -> home-core map: an explicit table plus a striped or hashed
/// fallback for unmapped blocks.
class Placement {
 public:
  /// How a block the table does not hold finds its home.
  enum class Fallback : std::uint8_t {
    kStriped,  ///< block mod P
    kHashed,   ///< splitmix64(block ^ salt) mod P
  };

  /// An empty table over `num_cores` cores ("table"): until blocks are
  /// assigned, every block falls back to `fallback`.
  explicit Placement(std::int32_t num_cores, std::string name = "table",
                     Fallback fallback = Fallback::kStriped,
                     std::uint64_t salt = 0);

  /// Home core of placement block `block` (NOT a byte address).
  CoreId home_of_block(Addr block) const noexcept {
    if (const CoreId* home = table_.find(block)) {
      return *home;
    }
    const std::uint64_t key =
        fallback_ == Fallback::kStriped ? block : splitmix64(block ^ salt_);
    return static_cast<CoreId>(key % static_cast<std::uint64_t>(num_cores_));
  }

  /// Short scheme name for reports ("first-touch", "striped", ...).
  const std::string& name() const noexcept { return name_; }

  /// Assigns (or reassigns) a block's home.
  void assign(Addr block, CoreId home);

  /// Blocks with an explicit assignment.
  std::size_t assigned_blocks() const noexcept { return table_.size(); }

  /// Per-core count of assigned blocks (placement balance metric).
  std::vector<std::uint64_t> blocks_per_core() const;

  /// The splitmix64 finalizer the hashed fallback applies.
  static std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

 private:
  BlockMap<CoreId> table_;
  std::int32_t num_cores_;
  Fallback fallback_;
  std::uint64_t salt_;
  std::string name_;
};

/// The table is the placement.  The name stays for callers that read a
/// trace-derived placement's table size through it.
using TablePlacement = Placement;

/// Blocks striped round-robin across cores: block b -> b mod P.
/// The placement-oblivious baseline: spreads load but ignores locality.
Placement striped_placement(std::int32_t num_cores);

/// Blocks placed by a splitmix64 hash of the block index: destroys both
/// locality and structure (worst reasonable placement; used as the "bad
/// placement" pole in ablations).
Placement hashed_placement(std::int32_t num_cores, std::uint64_t salt = 0);

/// First-touch placement — what the paper's evaluation uses.  The first
/// thread to touch a block becomes its home (at that thread's native
/// core).  "First" is defined by a deterministic round-robin interleaving
/// of the per-thread traces: one access per thread per round.  This mirrors
/// how first-touch behaves when all threads start together, and makes runs
/// reproducible.  Unseen blocks fall back to striping.
Placement first_touch_placement(const TraceSource& traces,
                                std::int32_t num_cores);
Placement first_touch_placement(const TraceSet& traces,
                                std::int32_t num_cores);

/// Profile-greedy placement: each block goes to the native core of the
/// thread that accesses it most (ties to the lower core id).  This is the
/// strongest static placement a profile-driven system could pick, used as
/// the "good placement" pole in ablations.  Unseen blocks fall back to
/// striping.
Placement profile_greedy_placement(const TraceSource& traces,
                                   std::int32_t num_cores);
Placement profile_greedy_placement(const TraceSet& traces,
                                   std::int32_t num_cores);

/// Computes the per-access home-core sequence d(m_1..m_N) for a thread —
/// the input to run-length analysis and to the DP optimal solver.
std::vector<CoreId> home_sequence(const ThreadTrace& thread,
                                  const TraceSet& traces,
                                  const Placement& placement);

/// Factory by name ("striped" | "hashed" | "first-touch" |
/// "profile-greedy"); returns nullptr for unknown names.  The
/// TraceSource form streams the trace through cursors, so trace-derived
/// schemes also build out-of-core.
std::unique_ptr<Placement> make_placement(const std::string& scheme,
                                          const TraceSource& traces,
                                          std::int32_t num_cores);
std::unique_ptr<Placement> make_placement(const std::string& scheme,
                                          const TraceSet& traces,
                                          std::int32_t num_cores);

/// The scheme names make_placement understands, for CLI help and
/// fail-fast error messages.
std::vector<std::string> placement_names();

}  // namespace em2
