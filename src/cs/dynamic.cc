#include "cs/dynamic.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "graph/algorithms.h"
#include "graph/decomposition.h"
#include "obs/metrics.h"

namespace cgnp {

namespace {

constexpr NodeId kNone = -1;  // no node: end of a level list

// The triangles through edge (a, b), by one merge of the two sorted rows:
// fn(c, i, j) for each common neighbour c, at slot i of adj[a] and slot j
// of adj[b].
template <typename Fn>
void ForEachTriangle(const SortedAdjacency& adj, NodeId a, NodeId b, Fn fn) {
  const std::vector<NodeId>& ra = adj[a];
  const std::vector<NodeId>& rb = adj[b];
  for (size_t i = 0, j = 0; i < ra.size() && j < rb.size();) {
    if (ra[i] < rb[j]) {
      ++i;
    } else if (rb[j] < ra[i]) {
      ++j;
    } else {
      fn(ra[i], i, j);
      ++i;
      ++j;
    }
  }
}

}  // namespace

// --- IncrementalCoreIndex ---------------------------------------------------

IncrementalCoreIndex::IncrementalCoreIndex(const Graph& base) {
  const int64_t n = base.num_nodes();
  CorePeel peel = PeelCores(base);
  core_ = std::move(peel.core);
  deg_plus_.assign(n, 0);
  label_.assign(n, 0);
  prev_.assign(n, kNone);
  next_.assign(n, kNone);
  deg_star_.assign(n, 0);
  mcd_.assign(n, -1);
  state_.assign(n, kIdle);
  const std::vector<NodeId>& order = peel.order;
  const int64_t levels = n == 0 ? 1 : core_[order.back()] + 1;
  head_.assign(levels, kNone);
  tail_.assign(levels, kNone);
  // The peel order is a k-order, and each level is one contiguous run of
  // it; deg+ then counts the neighbours peeled later.
  for (size_t i = 0, j = 0; i < order.size(); i = j) {
    while (j < order.size() && core_[order[j]] == core_[order[i]]) ++j;
    LinkRun(core_[order[i]], kNone, &order[i], j - i);
  }
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId x : base.Neighbors(v)) {
      if (Precedes(v, x)) ++deg_plus_[v];
    }
  }
}

bool IncrementalCoreIndex::Precedes(NodeId a, NodeId b) const {
  return core_[a] != core_[b] ? core_[a] < core_[b] : label_[a] < label_[b];
}

void IncrementalCoreIndex::Unlink(int64_t k, NodeId w) {
  (prev_[w] == kNone ? head_[k] : next_[prev_[w]]) = next_[w];
  (next_[w] == kNone ? tail_[k] : prev_[next_[w]]) = prev_[w];
  prev_[w] = next_[w] = kNone;
}

void IncrementalCoreIndex::LinkRun(int64_t k, NodeId after, const NodeId* run,
                                   size_t m) {
  const NodeId before = after == kNone ? head_[k] : next_[after];
  NodeId last = after;
  for (size_t i = 0; i < m; ++i) {
    const NodeId w = run[i];
    prev_[w] = last;
    (last == kNone ? head_[k] : next_[last]) = w;
    last = w;
  }
  next_[last] = before;
  (before == kNone ? tail_[k] : prev_[before]) = last;
  // Labels live strictly inside (0, 2^64 - 1); split the gap evenly.
  const uint64_t lo = after == kNone ? 0 : label_[after];
  const uint64_t hi =
      before == kNone ? std::numeric_limits<uint64_t>::max() : label_[before];
  const uint64_t step = (hi - lo) / (m + 1);
  if (step == 0) {
    Relabel(k);
    return;
  }
  for (size_t i = 0; i < m; ++i) label_[run[i]] = lo + step * (i + 1);
}

void IncrementalCoreIndex::Relabel(int64_t k) {
  uint64_t size = 0;
  for (NodeId w = head_[k]; w != kNone; w = next_[w]) ++size;
  const uint64_t step = std::numeric_limits<uint64_t>::max() / (size + 1);
  uint64_t label = 0;
  for (NodeId w = head_[k]; w != kNone; w = next_[w]) label_[w] = label += step;
}

void IncrementalCoreIndex::OnInsert(const SortedAdjacency& adj, NodeId u,
                                    NodeId v) {
  if (Precedes(v, u)) std::swap(u, v);
  const int64_t K = core_[u];
  // v now follows u. While deg+(u) <= K the k-order still holds, and with
  // it every core number.
  if (++deg_plus_[u] <= K) return;
  // u must leave O_K. Scan O_K forward from u in label order. A visited
  // node x is a candidate for K+1 when deg*(x) + deg+(x) > K: the
  // candidates before it would move behind it, so it cannot stay. Only
  // nodes that gained a candidate neighbour can qualify; the heap holds
  // exactly those, so the rest of O_K is never touched. A non-candidate
  // settles in place, which takes it away from the candidates before it;
  // a candidate left with deg* + deg+ <= K is evicted back into O_K.
  const auto later = [this](NodeId a, NodeId b) {
    return label_[a] > label_[b];
  };
  NodeId x = u;
  state_[u] = kQueued;
  touched_.push_back(u);
  while (true) {
    if (deg_star_[x] + deg_plus_[x] > K) {
      state_[x] = kCandidate;
      cand_.push_back(x);
      for (const NodeId y : adj[x]) {
        // Every visited node precedes x, so a later K-node is unvisited.
        if (core_[y] != K || label_[y] < label_[x]) continue;
        ++deg_star_[y];
        if (state_[y] == kIdle) {
          state_[y] = kQueued;
          touched_.push_back(y);
          heap_.push_back(y);
          std::push_heap(heap_.begin(), heap_.end(), later);
        }
      }
    } else {
      // Settled at K: the candidates before x end up behind it.
      state_[x] = kSettled;
      deg_plus_[x] += deg_star_[x];
      deg_star_[x] = 0;
      for (const NodeId y : adj[x]) {
        // Every candidate precedes x and counted it in deg+.
        if (state_[y] == kCandidate && --deg_plus_[y] + deg_star_[y] <= K) {
          state_[y] = kEvicting;
          evict_.push_back(y);
        }
      }
      Evict(adj, K, x);
    }
    if (heap_.empty()) break;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    x = heap_.back();
    heap_.pop_back();
  }
  // Apply the new order: evicted candidates go behind their anchors in
  // O_K, the survivors rise to K+1 at the head of O_{K+1}, scan order kept.
  for (const NodeId w : cand_) Unlink(K, w);
  for (size_t i = 0, j = 0; i < evicted_.size(); i = j) {
    while (j < evicted_.size() && anchors_[j] == anchors_[i]) ++j;
    LinkRun(K, anchors_[i], &evicted_[i], j - i);
  }
  size_t rising = 0;
  for (const NodeId w : cand_) {
    if (state_[w] != kCandidate) continue;
    core_[w] = K + 1;
    deg_star_[w] = 0;  // the candidates before w stay before it
    cand_[rising++] = w;
  }
  if (rising > 0) {
    if (static_cast<int64_t>(head_.size()) == K + 1) {
      head_.push_back(kNone);
      tail_.push_back(kNone);
    }
    LinkRun(K + 1, kNone, cand_.data(), rising);
  }
  for (const NodeId w : touched_) state_[w] = kIdle;
  touched_.clear();
  cand_.clear();
  evicted_.clear();
  anchors_.clear();
}

void IncrementalCoreIndex::Evict(const SortedAdjacency& adj, int64_t K,
                                 NodeId anchor) {
  // Each evicted candidate lands just behind `anchor` (after the ones
  // evicted before it) and keeps K, so its deg+ becomes everything still
  // able to rise or not yet visited. Its neighbours lose it as support.
  while (!evict_.empty()) {
    const NodeId w = evict_.back();
    evict_.pop_back();
    state_[w] = kSettled;
    deg_plus_[w] += deg_star_[w];
    deg_star_[w] = 0;
    evicted_.push_back(w);
    anchors_.push_back(anchor);
    for (const NodeId y : adj[w]) {
      if (core_[y] != K) continue;
      if (state_[y] == kQueued) {
        if (label_[y] > label_[w]) --deg_star_[y];
      } else if (state_[y] == kCandidate || state_[y] == kEvicting) {
        --(label_[y] < label_[w] ? deg_plus_[y] : deg_star_[y]);
        if (state_[y] == kCandidate && deg_plus_[y] + deg_star_[y] <= K) {
          state_[y] = kEvicting;
          evict_.push_back(y);
        }
      }
    }
  }
}

int64_t& IncrementalCoreIndex::Mcd(const SortedAdjacency& adj, NodeId x,
                                   int64_t K) {
  int64_t& m = mcd_[x];
  if (m < 0) {
    m = 0;
    for (const NodeId y : adj[x]) m += core_[y] >= K ? 1 : 0;
    touched_.push_back(x);
  }
  return m;
}

void IncrementalCoreIndex::OnDelete(const SortedAdjacency& adj, NodeId u,
                                    NodeId v) {
  if (Precedes(v, u)) std::swap(u, v);
  --deg_plus_[u];  // v no longer follows u
  const int64_t K = core_[u];
  // Cascade: a K-node whose neighbours with core >= K (mcd) fall below K
  // drops to K-1. mcd is counted on first reach, after the drops already
  // applied, and decremented for each later one.
  for (const NodeId x : {u, v}) {
    if (core_[x] == K && Mcd(adj, x, K) < K) {
      state_[x] = kQueued;
      cand_.push_back(x);
    }
  }
  for (size_t i = 0; i < cand_.size(); ++i) {
    const NodeId w = cand_[i];
    core_[w] = K - 1;
    // w goes to the tail of O_{K-1}: behind it is everything still >= K,
    // including the drops queued after it.
    deg_plus_[w] = mcd_[w];
    for (const NodeId y : adj[w]) {
      if (core_[y] != K) continue;
      if (label_[y] < label_[w]) --deg_plus_[y];  // w leaves from behind y
      int64_t& m = mcd_[y];
      if (m < 0) {
        Mcd(adj, y, K);  // counted without w
      } else {
        --m;
      }
      if (m < K && state_[y] == kIdle) {
        state_[y] = kQueued;
        cand_.push_back(y);
      }
    }
  }
  for (const NodeId w : cand_) {
    Unlink(K, w);
    state_[w] = kIdle;
  }
  if (!cand_.empty()) LinkRun(K - 1, tail_[K - 1], cand_.data(), cand_.size());
  for (const NodeId x : touched_) mcd_[x] = -1;
  touched_.clear();
  cand_.clear();
}

Status IncrementalCoreIndex::CheckOrder(const SortedAdjacency& adj) const {
  const int64_t n = static_cast<int64_t>(core_.size());
  const auto fail = [](const std::string& what, NodeId w) {
    return InternalError("k-order: " + what + " at node " + std::to_string(w));
  };
  if (static_cast<int64_t>(adj.size()) != n) {
    return InternalError("k-order: adjacency has the wrong node count");
  }
  int64_t listed = 0;
  for (size_t k = 0; k < head_.size(); ++k) {
    NodeId prev = kNone;
    for (NodeId w = head_[k]; w != kNone; prev = w, w = next_[w]) {
      if (++listed > n) return InternalError("k-order: a level list cycles");
      if (core_[w] != static_cast<int64_t>(k)) {
        return fail("node listed in level " + std::to_string(k), w);
      }
      if (prev_[w] != prev) return fail("broken prev link", w);
      if (prev != kNone && label_[prev] >= label_[w]) {
        return fail("labels not increasing", w);
      }
    }
    if (tail_[k] != prev) return fail("wrong tail of level", prev);
  }
  if (listed != n) return InternalError("k-order: a node is in no list");
  for (NodeId w = 0; w < n; ++w) {
    int64_t later = 0;
    for (const NodeId y : adj[w]) later += Precedes(w, y) ? 1 : 0;
    if (deg_plus_[w] != later) return fail("deg+ != later neighbours", w);
    if (later > core_[w]) return fail("deg+ > core", w);
    if (deg_star_[w] != 0 || mcd_[w] != -1 || state_[w] != kIdle) {
      return fail("per-edit scratch left dirty", w);
    }
  }
  return Status::Ok();
}

// --- IncrementalTrussIndex --------------------------------------------------

IncrementalTrussIndex::IncrementalTrussIndex(const Graph& base)
    : truss_(static_cast<size_t>(base.num_nodes())),
      mark_(static_cast<size_t>(base.num_nodes())) {
  // The decomposition is per CSR slot, and adjacency rows start as the CSR
  // rows: copy row by row.
  const std::vector<int32_t>& truss = base.Trusses().truss;
  const auto row_ptr = base.row_ptr();
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    truss_[u].assign(truss.begin() + row_ptr[u],
                     truss.begin() + row_ptr[u + 1]);
    mark_[u].assign(truss_[u].size(), 0);
  }
}

int64_t IncrementalTrussIndex::SlotOf(const SortedAdjacency& adj, NodeId u,
                                      NodeId v) {
  return std::lower_bound(adj[u].begin(), adj[u].end(), v) - adj[u].begin();
}

int64_t IncrementalTrussIndex::TrussOf(const SortedAdjacency& adj, NodeId u,
                                       NodeId v) const {
  const int64_t slot = SlotOf(adj, u, v);
  return slot < static_cast<int64_t>(adj[u].size()) && adj[u][slot] == v
             ? truss_[u][slot]
             : 0;
}

void IncrementalTrussIndex::Set(const SortedAdjacency& adj, NodeId u, NodeId v,
                                int64_t k) {
  truss_[u][SlotOf(adj, u, v)] = static_cast<int32_t>(k);
  truss_[v][SlotOf(adj, v, u)] = static_cast<int32_t>(k);
}

int64_t IncrementalTrussIndex::SupportedLevel(const SortedAdjacency& adj,
                                              NodeId a, NodeId b, int64_t cap,
                                              int64_t lift) {
  // Each triangle through (a, b) supports the edge up to the weaker of its
  // two other edges. Sorted descending, the top i+1 triangles prove level
  // min(levels[i], i+3): a level k needs k-2 of them, each carrying >= k.
  levels_.clear();
  ForEachTriangle(adj, a, b, [&](NodeId, size_t ia, size_t ib) {
    levels_.push_back(std::min(truss_[a][ia], truss_[b][ib]) + lift);
  });
  std::sort(levels_.begin(), levels_.end(), std::greater<int64_t>());
  int64_t best = 2;
  for (size_t i = 0; i < levels_.size(); ++i) {
    best = std::max(
        best, std::min({levels_[i], static_cast<int64_t>(i) + 3, cap}));
  }
  return best;
}

void IncrementalTrussIndex::Consider(const SortedAdjacency& adj, NodeId a,
                                     size_t ia, NodeId c, int64_t kub) {
  if (truss_[a][ia] >= kub || mark_[a][ia] != 0) return;
  mark_[a][ia] = 1;
  mark_[c][SlotOf(adj, c, a)] = 1;
  work_.emplace_back(a, c);
}

void IncrementalTrussIndex::DownwardFixpoint(const SortedAdjacency& adj) {
  // Chaotic iteration from an upper bound: re-prove each queued edge's
  // level; on a drop, requeue the partner edges that counted it. Values
  // only move down, and never below the true truss numbers: while every
  // value bounds them from above, each edge keeps at least the support
  // the true numbers give it. So this terminates at the greatest
  // consistent assignment -- the true truss numbers.
  for (size_t i = 0; i < work_.size(); ++i) {
    const NodeId a = work_[i].first;
    const NodeId b = work_[i].second;
    const int64_t k = TrussOf(adj, a, b);
    if (k <= 2) continue;  // floor of every edge
    const int64_t knew = SupportedLevel(adj, a, b, k, /*lift=*/0);
    if (knew >= k) continue;
    Set(adj, a, b, knew);
    // A partner counted this triangle only if its own level fits under
    // both other edges; it may lose support when its level lies in
    // (knew, k].
    ForEachTriangle(adj, a, b, [&](NodeId c, size_t ia, size_t ib) {
      if (truss_[a][ia] > knew && truss_[a][ia] <= k) work_.emplace_back(a, c);
      if (truss_[b][ib] > knew && truss_[b][ib] <= k) work_.emplace_back(b, c);
    });
  }
  work_.clear();
}

void IncrementalTrussIndex::OnDelete(const SortedAdjacency& adj, NodeId u,
                                     NodeId v) {
  // The rows lose the slot the edge held, where SlotOf now points.
  for (const auto& [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    const int64_t slot = SlotOf(adj, a, b);
    truss_[a].erase(truss_[a].begin() + slot);
    mark_[a].erase(mark_[a].begin() + slot);
  }
  // Every partner edge of a vanished triangle may have lost support; the
  // old values are still an upper bound (deletion never raises a truss
  // number), so the downward fixpoint repairs from them.
  ForEachTriangle(adj, u, v, [&](NodeId w, size_t, size_t) {
    work_.emplace_back(u, w);
    work_.emplace_back(v, w);
  });
  DownwardFixpoint(adj);
}

void IncrementalTrussIndex::OnInsert(const SortedAdjacency& adj, NodeId u,
                                     NodeId v) {
  // The rows gain a slot where the adjacency gained the edge. It reads 0
  // until the repair below sets it.
  for (const auto& [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    const int64_t slot = SlotOf(adj, a, b);
    truss_[a].insert(truss_[a].begin() + slot, 0);
    mark_[a].insert(mark_[a].begin() + slot, 0);
  }
  // Insertion raises an existing truss number by at most one, so the new
  // edge's ceiling kub counts every partner one level up.
  const int64_t kub = SupportedLevel(
      adj, u, v, std::numeric_limits<int64_t>::max(), /*lift=*/1);
  // Candidate edges: for each level k < kub, the k-class edges reachable
  // from the new edge's triangles through triangles whose other two edges
  // both carry >= k (PES-style triangle connectivity). Only these can
  // rise. work_ is the BFS queue; the marks keep each candidate in it once.
  ForEachTriangle(adj, u, v, [&](NodeId w, size_t iu, size_t iv) {
    Consider(adj, u, iu, w, kub);
    Consider(adj, v, iv, w, kub);
  });
  for (size_t i = 0; i < work_.size(); ++i) {
    const NodeId a = work_[i].first;
    const NodeId b = work_[i].second;
    const int64_t k = TrussOf(adj, a, b);
    ForEachTriangle(adj, a, b, [&](NodeId c, size_t ia, size_t ib) {
      const int64_t t1 = truss_[a][ia];
      const int64_t t2 = truss_[b][ib];
      if (std::min(t1, t2) < k) return;  // triangle too weak at level k
      if (t1 == k) Consider(adj, a, ia, c, kub);
      if (t2 == k) Consider(adj, b, ib, c, kub);
    });
  }
  // Optimistic lift to an upper bound -- candidates up one, the new edge to
  // its ceiling -- from which the downward fixpoint settles everything.
  for (const auto& [a, b] : work_) {
    const int64_t ia = SlotOf(adj, a, b);
    const int64_t ib = SlotOf(adj, b, a);
    ++truss_[a][ia];
    ++truss_[b][ib];
    mark_[a][ia] = mark_[b][ib] = 0;
  }
  Set(adj, u, v, kub);
  work_.emplace_back(u, v);
  DownwardFixpoint(adj);
}

// --- DynamicCommunityIndex --------------------------------------------------

namespace {

// The index's sorted rows and maintained truss numbers as a row source for
// the community routines of graph/algorithms.h.
struct IndexRows {
  const SortedAdjacency& adj;
  const IncrementalTrussIndex& truss;

  int64_t num_nodes() const { return static_cast<int64_t>(adj.size()); }
  const std::vector<NodeId>& Neighbors(NodeId v) const { return adj[v]; }
  const std::vector<int32_t>& Trusses(NodeId v) const { return truss.row(v); }
};

}  // namespace

StatusOr<std::shared_ptr<DynamicCommunityIndex>> DynamicCommunityIndex::Create(
    std::shared_ptr<const Graph> base) {
  if (base == nullptr) {
    return InvalidArgumentError(
        "DynamicCommunityIndex needs a base snapshot (got null)");
  }
  return std::shared_ptr<DynamicCommunityIndex>(
      new DynamicCommunityIndex(std::move(base)));
}

DynamicCommunityIndex::DynamicCommunityIndex(std::shared_ptr<const Graph> base)
    : delta_(std::move(base)),
      core_(delta_.base()),
      truss_(delta_.base()),
      core_repair_ms_(&obs::MetricsRegistry::Default().GetHistogram(
          "cgnp_dynamic_repair_ms", {{"index", "core"}})),
      truss_repair_ms_(&obs::MetricsRegistry::Default().GetHistogram(
          "cgnp_dynamic_repair_ms", {{"index", "truss"}})) {}

Status DynamicCommunityIndex::InsertEdge(NodeId u, NodeId v) {
  return Apply(GraphEdit{/*insert=*/true, u, v});
}

Status DynamicCommunityIndex::DeleteEdge(NodeId u, NodeId v) {
  return Apply(GraphEdit{/*insert=*/false, u, v});
}

Status DynamicCommunityIndex::Apply(const GraphEdit& edit, bool* applied) {
  if (applied != nullptr) *applied = false;
  const NodeId u = edit.u;
  const NodeId v = edit.v;
  std::unique_lock lock(mu_);
  const uint64_t before = delta_.version();
  CGNP_RETURN_IF_ERROR(delta_.Apply(edit));
  // Idempotent re-insert: the delta accepted it as a no-op (version
  // unchanged), so the indices must not see it either.
  if (delta_.version() == before) return Status::Ok();
  if (applied != nullptr) *applied = true;
  const SortedAdjacency& adj = delta_.adjacency();
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  if (edit.insert) {
    core_.OnInsert(adj, u, v);
  } else {
    core_.OnDelete(adj, u, v);
  }
  const auto t1 = Clock::now();
  if (edit.insert) {
    truss_.OnInsert(adj, u, v);
  } else {
    truss_.OnDelete(adj, u, v);
  }
  const auto t2 = Clock::now();
  core_repair_ms_->Record(
      std::chrono::duration<double, std::milli>(t1 - t0).count());
  truss_repair_ms_->Record(
      std::chrono::duration<double, std::milli>(t2 - t1).count());
  return Status::Ok();
}

Status DynamicCommunityIndex::ValidateQuery(NodeId q) const {
  if (delta_.num_nodes() == 0) {
    return InvalidArgumentError("cannot search an empty graph");
  }
  return CheckNodeId(delta_.base(), q, "query");
}

StatusOr<std::vector<NodeId>> DynamicCommunityIndex::KCoreCommunity(
    NodeId q, int64_t k) const {
  std::shared_lock lock(mu_);
  CGNP_RETURN_IF_ERROR(ValidateQuery(q));
  return KCoreCommunityIn(IndexRows{delta_.adjacency(), truss_}, core_.core(),
                          q, k);
}

StatusOr<std::vector<NodeId>> DynamicCommunityIndex::KTrussCommunity(
    NodeId q, int64_t k) const {
  std::shared_lock lock(mu_);
  CGNP_RETURN_IF_ERROR(ValidateQuery(q));
  return KTrussCommunityIn(IndexRows{delta_.adjacency(), truss_}, q, k);
}

std::vector<int64_t> DynamicCommunityIndex::CurrentCoreNumbers() const {
  std::shared_lock lock(mu_);
  return core_.core();
}

int64_t DynamicCommunityIndex::CurrentTrussOf(NodeId u, NodeId v) const {
  std::shared_lock lock(mu_);
  return truss_.TrussOf(delta_.adjacency(), u, v);
}

Status DynamicCommunityIndex::CheckCoreOrder() const {
  std::shared_lock lock(mu_);
  return core_.CheckOrder(delta_.adjacency());
}

uint64_t DynamicCommunityIndex::version() const {
  std::shared_lock lock(mu_);
  return delta_.version();
}

int64_t DynamicCommunityIndex::delta_depth() const {
  std::shared_lock lock(mu_);
  return delta_.depth();
}

int64_t DynamicCommunityIndex::num_nodes() const {
  std::shared_lock lock(mu_);
  return delta_.num_nodes();
}

int64_t DynamicCommunityIndex::num_edges() const {
  std::shared_lock lock(mu_);
  return delta_.num_edges();
}

GraphDelta::Rebased DynamicCommunityIndex::Compact() {
  std::unique_lock lock(mu_);
  return delta_.Rebase();
}

}  // namespace cgnp
