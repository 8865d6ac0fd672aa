// LRU cache of task contexts -- the paper's key inference asymmetry
// (Algorithm 2) as a memo of CommunitySearchEngine::Query: the support set
// is encoded ONCE into a context H, after which every query is a single
// cheap decoder pass. A caller opts in by passing a cache through
// QueryOptions (the query server passes its own).
// Entries are keyed by (graph id, task fingerprint, graph version), where
// the fingerprint hashes the materialised local task (subgraph node list +
// support set in local ids), so a hit is only possible when the encoder
// would have been fed bit-identical inputs -- cached and fresh contexts are
// therefore numerically identical, not merely approximately so.
//
// Dynamic graphs and scoped invalidation. The version component makes the
// cache safe under graph mutation: requests against version N never see
// contexts encoded at version M != N. Rather than flushing everything on
// every update, ScopedInvalidate exploits the determinism of the task
// sampler: a task's subgraph is materialised by reading the adjacency of
// exactly the nodes in its node list, so an entry whose recorded node set
// is disjoint from the update's dirty region would be rebuilt bit-identical
// at the new version -- its context is still exact and the entry is
// RE-KEYED to the new version instead of evicted. Only entries touching the
// dirty region (or whose coverage was never recorded) are dropped.
//
// Thread safety: all methods are safe to call concurrently. Cached Tensor
// values are produced under NoGradGuard (no tape, no grad) and treated as
// immutable by all readers.
#ifndef CGNP_CORE_CONTEXT_CACHE_H_
#define CGNP_CORE_CONTEXT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "tensor/tensor.h"

namespace cgnp {

// 64-bit FNV-1a over the local task's identity: subgraph node list, local
// query, and every support example's (query, pos, neg) lists. Two tasks
// with equal fingerprints feed the encoder identical inputs (modulo hash
// collisions, ~2^-64 per pair).
uint64_t TaskFingerprint(const LocalQueryTask& task);

class ContextCache {
 public:
  struct Key {
    uint64_t graph_id = 0;
    uint64_t fingerprint = 0;
    // Graph version the context was encoded at (0 for static serving --
    // the pre-dynamic behaviour is the default).
    uint64_t version = 0;
    bool operator==(const Key& o) const {
      return graph_id == o.graph_id && fingerprint == o.fingerprint &&
             version == o.version;
    }
  };

  // Outcome of one ScopedInvalidate sweep over a graph's entries.
  struct InvalidationResult {
    int64_t evicted = 0;   // entries touching the dirty region (or with
                           // unrecorded coverage) dropped
    int64_t retained = 0;  // disjoint entries re-keyed to the new version
  };

  // `capacity` = max resident contexts; <= 0 disables caching entirely
  // (Get always misses, Put is a no-op).
  explicit ContextCache(int64_t capacity);

  // On hit, copies the cached context into *out, promotes the entry to
  // most-recently-used, and returns true.
  bool Get(const Key& key, Tensor* out);
  // Inserts (or refreshes) an entry, evicting the least-recently-used
  // entry when over capacity. `nodes` records which parent-graph nodes the
  // cached context depends on (the task's subgraph node list; will be
  // sorted) -- the coverage ScopedInvalidate checks against. The two-arg
  // overload records no coverage, so such entries never survive a scoped
  // invalidation of their graph.
  void Put(const Key& key, Tensor context);
  void Put(const Key& key, Tensor context, std::vector<NodeId> nodes);

  // Version rollover for `graph_id` after an update touching the sorted
  // node set `dirty`: entries of other graphs are untouched; entries of
  // this graph are evicted when their recorded coverage intersects `dirty`
  // (or was never recorded), and re-keyed to `new_version` otherwise --
  // their contexts are provably bit-identical at the new version (the
  // deterministic sampler reads only covered nodes' adjacency). LRU order
  // is preserved across re-keying.
  InvalidationResult ScopedInvalidate(uint64_t graph_id, uint64_t new_version,
                                      const std::vector<NodeId>& dirty);

  void Clear();

  int64_t size() const;
  int64_t capacity() const { return capacity_; }
  uint64_t hits() const;
  uint64_t misses() const;
  // Entries displaced by capacity pressure over the cache's lifetime
  // (Clear() does not count as eviction).
  uint64_t evictions() const;
  // Entries dropped by ScopedInvalidate over the cache's lifetime.
  uint64_t invalidations() const;

 private:
  struct Entry {
    Key key;
    Tensor context;
    // Sorted parent-graph nodes the context depends on; empty = unknown.
    std::vector<NodeId> nodes;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Fingerprints are already well-mixed; fold in graph id and version.
      return static_cast<size_t>(k.fingerprint ^
                                 (k.graph_id * 0x9E3779B97F4A7C15ull) ^
                                 (k.version * 0xC2B2AE3D27D4EB4Full));
    }
  };

  const int64_t capacity_;
  mutable std::mutex mu_;
  // Most-recently-used at the front.
  std::list<Entry> lru_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace cgnp

#endif  // CGNP_CORE_CONTEXT_CACHE_H_
