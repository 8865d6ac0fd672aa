#include "graph/delta.h"

#include <algorithm>
#include <charconv>
#include <string>
#include <utility>

namespace cgnp {

namespace {

std::string EdgeName(NodeId u, NodeId v) {
  return std::to_string(u) + "-" + std::to_string(v);
}

Status CheckEdge(const Graph& g, NodeId u, NodeId v) {
  CGNP_RETURN_IF_ERROR(CheckNodeId(g, u, "edge endpoint"));
  CGNP_RETURN_IF_ERROR(CheckNodeId(g, v, "edge endpoint"));
  if (u == v) {
    return InvalidArgumentError("self loop " + EdgeName(u, v) +
                                " rejected: graphs are loop-free");
  }
  return Status::Ok();
}

// Where v sits, or would sit, in the sorted row.
std::vector<NodeId>::iterator SlotIn(std::vector<NodeId>* row, NodeId v) {
  return std::lower_bound(row->begin(), row->end(), v);
}

}  // namespace

GraphDelta::GraphDelta(std::shared_ptr<const Graph> base)
    : base_(std::move(base)),
      rows_(static_cast<size_t>(base_->num_nodes())),
      num_edges_(base_->num_edges()) {
  for (NodeId v = 0; v < base_->num_nodes(); ++v) {
    const auto nb = base_->Neighbors(v);
    rows_[v].assign(nb.begin(), nb.end());
  }
}

void GraphDelta::MarkEdited(NodeId u, NodeId v) {
  dirty_.insert(u);
  dirty_.insert(v);
  ++version_;
  ++depth_;
}

bool GraphDelta::HasEdge(NodeId u, NodeId v) const {
  return std::binary_search(rows_[u].begin(), rows_[u].end(), v);
}

Status GraphDelta::InsertEdge(NodeId u, NodeId v) {
  CGNP_RETURN_IF_ERROR(CheckEdge(*base_, u, v));
  const auto slot = SlotIn(&rows_[u], v);
  if (slot != rows_[u].end() && *slot == v) {
    return Status::Ok();  // idempotent, version unchanged
  }
  rows_[u].insert(slot, v);
  rows_[v].insert(SlotIn(&rows_[v], u), u);
  ++num_edges_;
  MarkEdited(u, v);
  return Status::Ok();
}

Status GraphDelta::DeleteEdge(NodeId u, NodeId v) {
  CGNP_RETURN_IF_ERROR(CheckEdge(*base_, u, v));
  const auto slot = SlotIn(&rows_[u], v);
  if (slot == rows_[u].end() || *slot != v) {
    return NotFoundError("edge " + EdgeName(u, v) +
                         " not present at version " +
                         std::to_string(version_));
  }
  rows_[u].erase(slot);
  rows_[v].erase(SlotIn(&rows_[v], u));
  --num_edges_;
  MarkEdited(u, v);
  return Status::Ok();
}

Status GraphDelta::Apply(const GraphEdit& edit) {
  return edit.insert ? InsertEdge(edit.u, edit.v)
                     : DeleteEdge(edit.u, edit.v);
}

std::vector<NodeId> GraphDelta::DirtyNodes() const {
  std::vector<NodeId> out(dirty_.begin(), dirty_.end());
  std::sort(out.begin(), out.end());
  return out;
}

Graph GraphDelta::Compact() const {
  const int64_t n = base_->num_nodes();
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    // Ids in the rows were validated against n on the way in, so
    // AddEdge's range invariant holds by construction.
    for (const NodeId u : rows_[v]) {
      if (u > v) b.AddEdge(v, u);
    }
  }
  if (base_->has_features()) {
    const auto f = base_->features();
    b.SetFeatures(base_->feature_dim(), std::vector<float>(f.begin(), f.end()));
  }
  if (base_->has_attributes()) {
    std::vector<std::vector<int32_t>> attrs(static_cast<size_t>(n));
    for (NodeId v = 0; v < n; ++v) attrs[v] = base_->Attributes(v);
    b.SetAttributes(std::move(attrs));
  }
  if (base_->has_communities()) {
    const auto c = base_->communities();
    b.SetCommunities(std::vector<int64_t>(c.begin(), c.end()));
  }
  return b.Build();
}

GraphDelta::Rebased GraphDelta::Rebase() {
  Rebased out{std::make_shared<const Graph>(Compact()), version_,
              DirtyNodes()};
  base_ = out.base;
  depth_ = 0;
  dirty_.clear();
  return out;
}

namespace {

// One `[+-]u v` line; `line_no` is 1-based for the error message.
StatusOr<GraphEdit> ParseEditLine(std::string_view line, int64_t line_no) {
  const auto fail = [line_no](const std::string& why) {
    return InvalidArgumentError("edits line " + std::to_string(line_no) +
                                ": " + why);
  };
  GraphEdit edit;
  if (line[0] == '+') {
    edit.insert = true;
  } else if (line[0] == '-') {
    edit.insert = false;
  } else {
    return fail("expected '+' or '-' before the edge");
  }
  const char* p = line.data() + 1;
  const char* end = line.data() + line.size();
  NodeId* const ids[2] = {&edit.u, &edit.v};
  for (NodeId* id : ids) {
    while (p != end && (*p == ' ' || *p == '\t')) ++p;
    const auto [next, ec] = std::from_chars(p, end, *id);
    if (ec != std::errc() || next == p) {
      return fail("expected two node ids after the sign");
    }
    if (*id < 0) return fail("node ids must be non-negative");
    p = next;
  }
  while (p != end && (*p == ' ' || *p == '\t')) ++p;
  if (p != end) return fail("trailing characters after the edge");
  return edit;
}

}  // namespace

StatusOr<std::vector<GraphEdit>> ParseEditList(std::string_view text) {
  std::vector<GraphEdit> edits;
  int64_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    // Trim surrounding whitespace (CR included, for CRLF input).
    while (!line.empty() &&
           (line.front() == ' ' || line.front() == '\t' ||
            line.front() == '\r')) {
      line.remove_prefix(1);
    }
    while (!line.empty() &&
           (line.back() == ' ' || line.back() == '\t' ||
            line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line.empty() || line.front() == '#') continue;
    CGNP_ASSIGN_OR_RETURN(GraphEdit edit, ParseEditLine(line, line_no));
    edits.push_back(edit);
  }
  return edits;
}

Status ApplyEditList(GraphDelta* delta, const std::vector<GraphEdit>& edits) {
  for (size_t i = 0; i < edits.size(); ++i) {
    const GraphEdit& e = edits[i];
    if (const Status s = delta->Apply(e); !s.ok()) {
      return Status(s.code(),
                    "edit #" + std::to_string(i) + " (" +
                        (e.insert ? "+" : "-") + std::to_string(e.u) + " " +
                        std::to_string(e.v) + "): " + s.message());
    }
  }
  return Status::Ok();
}

}  // namespace cgnp
