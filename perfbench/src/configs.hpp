// The five opaque design-space configurations of a hash map (DESIGN.md §2),
// each a stack of Stm, LAP, forwarding LAP and wrapper. The map workloads
// measure them directly; the ledger uses them as its account index.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "containers/snapshot_hamt.hpp"
#include "containers/striped_hash_map.hpp"
#include "core/lap.hpp"
#include "core/lazy_hash_map.hpp"
#include "core/lazy_trie_map.hpp"
#include "core/txn_hash_map.hpp"
#include "harness.hpp"

namespace perfbench {

namespace core = proust::core;
namespace containers = proust::containers;

using OptLap = core::OptimisticLap<long>;
using PessLap = core::PessimisticLap<long>;

/// StripedHashMap never rehashes and holds 16 chains per stripe: one stripe
/// per 16 keys keeps chains near one node at full occupancy.
inline std::size_t stripes_for(long keys) {
  return static_cast<std::size_t>(keys / 16 > 0 ? keys / 16 : 1);
}

template <class L>
core::TxnHashMap<long, long, L> build_map(
    std::type_identity<core::TxnHashMap<long, long, L>>, L& lap, long keys) {
  return core::TxnHashMap<long, long, L>(lap, stripes_for(keys));
}
template <class L>
core::LazyHashMap<long, long, L> build_map(
    std::type_identity<core::LazyHashMap<long, long, L>>, L& lap, long keys) {
  return core::LazyHashMap<long, long, L>(lap, false, stripes_for(keys));
}
template <class L>
core::LazyTrieMap<long, long, L> build_map(
    std::type_identity<core::LazyTrieMap<long, long, L>>, L& lap, long) {
  return core::LazyTrieMap<long, long, L>(lap);
}

/// Stm + LAP (one CA slot or lock stripe per key) + tracing LAP + wrapper.
/// `Base` is the wrapper's base container, for the base-only pass.
template <class InnerLap, template <class> class MapOf, class BaseT>
struct MapStack {
  using Map = MapOf<TracingLap<InnerLap>>;
  using Base = BaseT;

  MapStack(stm::Mode mode, long keys, stm::StmOptions opts = {})
      : stm(mode, opts), inner(stm, static_cast<std::size_t>(keys)),
        lap(inner), map(build_map(std::type_identity<Map>{}, lap, keys)) {}

  stm::Stm stm;
  InnerLap inner;
  TracingLap<InnerLap> lap;
  Map map;
};

template <class L> using EagerMap = core::TxnHashMap<long, long, L>;
template <class L> using MemoMap = core::LazyHashMap<long, long, L>;
template <class L> using TrieMap = core::LazyTrieMap<long, long, L>;
using StripedBase = containers::StripedHashMap<long, long>;
using HamtBase = containers::SnapshotHamt<long, long>;

/// Call `fn(std::type_identity<Stack>{}, mode)` with configuration
/// kConfigs[cfg]'s stack type and STM mode. eager-opt needs EagerAll for
/// opacity (Thm 5.2); the others are opaque on Lazy.
template <class Fn>
auto visit_map_config(std::size_t cfg, Fn&& fn) {
  switch (cfg) {
    case 0:
      return fn(std::type_identity<MapStack<OptLap, EagerMap, StripedBase>>{},
                stm::Mode::EagerAll);
    case 1:
      return fn(std::type_identity<MapStack<PessLap, EagerMap, StripedBase>>{},
                stm::Mode::Lazy);
    case 2:
      return fn(std::type_identity<MapStack<OptLap, MemoMap, StripedBase>>{},
                stm::Mode::Lazy);
    case 3:
      return fn(std::type_identity<MapStack<PessLap, MemoMap, StripedBase>>{},
                stm::Mode::Lazy);
    default:
      return fn(std::type_identity<MapStack<OptLap, TrieMap, HamtBase>>{},
                stm::Mode::Lazy);
  }
}

/// A standalone base container of type `Base`, sized like the wrapper's.
template <class Base>
std::unique_ptr<Base> make_base(long keys) {
  if constexpr (std::is_constructible_v<Base, std::size_t>) {
    return std::make_unique<Base>(stripes_for(keys));
  } else {
    return std::make_unique<Base>();
  }
}

/// Load threads for a workload that asks for `want`: never more than the
/// host's CPUs.
inline unsigned load_threads(unsigned want) {
  const unsigned hw = std::thread::hardware_concurrency();
  return want < hw || hw == 0 ? want : hw;
}

}  // namespace perfbench
