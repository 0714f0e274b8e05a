#include "placement/placement.hpp"

#include <utility>

#include "util/assert.hpp"

namespace em2 {

Placement::Placement(std::int32_t num_cores, std::string name,
                     Fallback fallback, std::uint64_t salt)
    : num_cores_(num_cores),
      fallback_(fallback),
      salt_(salt),
      name_(std::move(name)) {
  EM2_ASSERT(num_cores >= 1, "placement needs at least one core");
}

void Placement::assign(Addr block, CoreId home) {
  EM2_ASSERT(home >= 0 && home < num_cores_,
             "block assigned to a nonexistent core");
  *table_.try_emplace(block, home).first = home;
}

std::vector<std::uint64_t> Placement::blocks_per_core() const {
  std::vector<std::uint64_t> counts(
      static_cast<std::size_t>(num_cores_), 0);
  // determinism: order-insensitive integer accumulation — each entry
  // bumps its own core's counter exactly once, in any slot order.
  table_.for_each([&counts](Addr, CoreId core) {
    ++counts[static_cast<std::size_t>(core)];
  });
  return counts;
}

Placement striped_placement(std::int32_t num_cores) {
  return Placement(num_cores, "striped");
}

Placement hashed_placement(std::int32_t num_cores, std::uint64_t salt) {
  return Placement(num_cores, "hashed", Placement::Fallback::kHashed, salt);
}

Placement first_touch_placement(const TraceSource& traces,
                                std::int32_t num_cores) {
  // "First" follows the deterministic round-robin interleaving (one
  // access per live thread per round, threads in id order): access k of
  // thread t precedes access k' of thread t' iff (k, t) < (k', t')
  // lexicographically.  So one pass per thread, keeping each block's
  // smallest (k, t), gives the same table as walking the interleaving —
  // while reading each thread's accesses contiguously instead of hopping
  // between every thread's buffer once per round.  Threads go in id
  // order, so a later thread takes a block only with a strictly smaller k.
  struct FirstTouch {
    std::uint64_t index;
    CoreId native;
  };
  BlockMap<FirstTouch> first;
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    const CoreId native = traces.native_core(t);
    const std::unique_ptr<AccessCursor> cursor = traces.make_cursor(t);
    std::uint64_t k = 0;
    for (const Access* a = cursor->next(); a != nullptr;
         a = cursor->next(), ++k) {
      const auto [touch, inserted] =
          first.try_emplace(traces.block_of(a->addr), FirstTouch{k, native});
      if (!inserted && k < touch->index) {
        *touch = FirstTouch{k, native};
      }
    }
  }
  Placement placement(num_cores, "first-touch");
  // determinism: each block's home was settled above; assignment is keyed,
  // so the table answers every lookup the same for any slot order.
  first.for_each([&placement, num_cores](Addr block, const FirstTouch& f) {
    EM2_ASSERT(f.native >= 0 && f.native < num_cores,
               "thread native core outside the mesh");
    placement.assign(block, f.native);
  });
  return placement;
}

Placement first_touch_placement(const TraceSet& traces,
                                std::int32_t num_cores) {
  return first_touch_placement(MemoryTraceSource(traces), num_cores);
}

Placement profile_greedy_placement(const TraceSource& traces,
                                   std::int32_t num_cores) {
  // Counts one native core at a time, in ascending id: a block's best core
  // moves to a later core only on a strictly larger count, which is the
  // ties-to-the-lower-id rule, and only one core's counts are live at
  // once.  Threads whose native core lies outside the mesh count nowhere.
  std::vector<std::vector<std::size_t>> threads_of(
      static_cast<std::size_t>(num_cores));
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    const CoreId native = traces.native_core(t);
    if (native >= 0 && native < num_cores) {
      threads_of[static_cast<std::size_t>(native)].push_back(t);
    }
  }
  struct Best {
    std::uint64_t count;
    CoreId core;
  };
  BlockMap<Best> best;
  BlockMap<std::uint64_t> count;
  for (CoreId core = 0; core < num_cores; ++core) {
    const std::vector<std::size_t>& threads =
        threads_of[static_cast<std::size_t>(core)];
    if (threads.empty()) {
      continue;
    }
    count.clear();
    for (const std::size_t t : threads) {
      const std::unique_ptr<AccessCursor> cursor = traces.make_cursor(t);
      while (const Access* a = cursor->next()) {
        ++count[traces.block_of(a->addr)];
      }
    }
    // determinism: each block's best is updated from its own count only,
    // so the merge is the same for any slot order.
    count.for_each([&best, core](Addr block, std::uint64_t c) {
      const auto [b, inserted] = best.try_emplace(block, Best{c, core});
      if (!inserted && c > b->count) {
        *b = Best{c, core};
      }
    });
  }
  Placement placement(num_cores, "profile-greedy");
  // determinism: keyed assignment of settled homes, as in first-touch.
  best.for_each([&placement](Addr block, const Best& b) {
    placement.assign(block, b.core);
  });
  return placement;
}

Placement profile_greedy_placement(const TraceSet& traces,
                                   std::int32_t num_cores) {
  return profile_greedy_placement(MemoryTraceSource(traces), num_cores);
}

std::vector<CoreId> home_sequence(const ThreadTrace& thread,
                                  const TraceSet& traces,
                                  const Placement& placement) {
  std::vector<CoreId> homes;
  homes.reserve(thread.size());
  for (const auto& a : thread.accesses()) {
    homes.push_back(placement.home_of_block(traces.block_of(a.addr)));
  }
  return homes;
}

std::unique_ptr<Placement> make_placement(const std::string& scheme,
                                          const TraceSource& traces,
                                          std::int32_t num_cores) {
  if (scheme == "striped") {
    return std::make_unique<Placement>(striped_placement(num_cores));
  }
  if (scheme == "hashed") {
    return std::make_unique<Placement>(hashed_placement(num_cores));
  }
  if (scheme == "first-touch") {
    return std::make_unique<Placement>(
        first_touch_placement(traces, num_cores));
  }
  if (scheme == "profile-greedy") {
    return std::make_unique<Placement>(
        profile_greedy_placement(traces, num_cores));
  }
  return nullptr;
}

std::unique_ptr<Placement> make_placement(const std::string& scheme,
                                          const TraceSet& traces,
                                          std::int32_t num_cores) {
  return make_placement(scheme, MemoryTraceSource(traces), num_cores);
}

std::vector<std::string> placement_names() {
  return {"first-touch", "striped", "hashed", "profile-greedy"};
}

}  // namespace em2
