// Fuzz target for the text edit-list path (graph/delta.h): ParseEditList
// on arbitrary bytes, then -- when the list parses -- ApplyEditList
// against a small fixed graph. Both sides are external-input surfaces
// (tools/graph_convert apply-edits feeds user files straight in), so any
// byte sequence must come back as Status, never an abort; ids far outside
// the graph, self loops and deletes of absent edges all have dedicated
// error paths this harness keeps honest. The target is also differential:
// the compacted snapshot must hold exactly the delta's edges, row for row,
// or it traps.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/delta.h"
#include "graph/graph.h"

namespace {

// One shared 8-node base graph (a ring with one chord); rebuilt per
// process, reused across inputs. Small on purpose: most parsed edits hit
// the in-range/out-of-range boundary instead of vanishing into a large id
// space.
const cgnp::Graph* BaseGraph() {
  static const cgnp::Graph* g = [] {
    cgnp::GraphBuilder b(8);
    for (cgnp::NodeId v = 0; v < 8; ++v) b.AddEdge(v, (v + 1) % 8);
    b.AddEdge(0, 4);
    return new cgnp::Graph(b.Build());
  }();
  return g;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  auto edits = cgnp::ParseEditList(text);
  if (!edits.ok()) return 0;
  auto base = std::make_shared<const cgnp::Graph>(*BaseGraph());
  cgnp::GraphDelta delta(base);
  // Rejected edits (bad ids, absent deletes) abort the batch with a
  // Status; whatever prefix applied must still compact cleanly.
  (void)cgnp::ApplyEditList(&delta, *edits);
  const cgnp::Graph compacted = delta.Compact();
  if (compacted.num_edges() != delta.num_edges()) __builtin_trap();
  for (cgnp::NodeId v = 0; v < compacted.num_nodes(); ++v) {
    const auto row = compacted.Neighbors(v);
    const std::vector<cgnp::NodeId>& want = delta.NeighborsOf(v);
    if (!std::equal(row.begin(), row.end(), want.begin(), want.end())) {
      __builtin_trap();
    }
  }
  return 0;
}
