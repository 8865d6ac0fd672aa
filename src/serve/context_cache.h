// Forwarding header: the context cache lives in core/context_cache.h (it is
// CommunitySearchEngine::Query's Algorithm-2 memo). These aliases keep the
// older cgnp::serve:: spellings compiling for servebench/, their last user;
// new code includes core/context_cache.h.
#ifndef CGNP_SERVE_CONTEXT_CACHE_H_
#define CGNP_SERVE_CONTEXT_CACHE_H_

#include "core/context_cache.h"

namespace cgnp {
namespace serve {

using ::cgnp::ContextCache;
using ::cgnp::TaskFingerprint;

}  // namespace serve
}  // namespace cgnp

#endif  // CGNP_SERVE_CONTEXT_CACHE_H_
