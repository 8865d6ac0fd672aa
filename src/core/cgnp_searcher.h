// The learned CGNP engine as a registry backend (cs/searcher.h).
//
// Two entry points:
//   * the registry: MakeSearcher("cgnp", {.checkpoint = "model.ckpt"})
//     restores an engine from a checkpoint and owns it -- backend choice
//     stays a pure string + config, like the classical algorithms;
//   * MakeCgnpSearcher(engine): wraps an engine the caller already holds
//     (fitted in-process, or borrowed through a non-owning shared_ptr as
//     QueryServer does) without another checkpoint round-trip.
//
// Search is CommunitySearchEngine::Query, QueryOptions::cache included.
#ifndef CGNP_CORE_CGNP_SEARCHER_H_
#define CGNP_CORE_CGNP_SEARCHER_H_

#include <memory>

#include "core/engine.h"
#include "cs/searcher.h"

namespace cgnp {

// Wraps a trained engine as a CommunitySearcher named "cgnp". The engine
// must be trained (FailedPrecondition otherwise) and is shared: the
// adapter only ever calls const methods, which are thread-safe on an
// eval-mode model (core/cgnp.h).
StatusOr<std::unique_ptr<CommunitySearcher>> MakeCgnpSearcher(
    std::shared_ptr<const CommunitySearchEngine> engine);

}  // namespace cgnp

#endif  // CGNP_CORE_CGNP_SEARCHER_H_
