// Conditional requests (RFC 9110 §13): caches attach a stored response's
// validators, servers evaluate them.
//
// This is the status-quo re-validation path the paper targets: the client
// pays a full RTT to learn "304 Not Modified". The browser and the edge
// build conditionals here; the origin server, the edge and the RDR proxy
// baseline evaluate them.
#pragma once

#include <optional>

#include "http/etag.h"
#include "http/message.h"
#include "util/types.h"

namespace catalyst::http {

enum class ConditionalOutcome {
  NotConditional,  // request carried no validators
  NotModified,     // validators match: respond 304
  Modified,        // validators do not match: send full representation
};

/// Evaluates If-None-Match (preferred) then If-Modified-Since against the
/// current representation's validators.
ConditionalOutcome evaluate_conditional(
    const Request& request, const Etag& current_etag,
    std::optional<TimePoint> last_modified);

/// Makes `request` conditional on a stored response: If-None-Match from
/// its ETag, else If-Modified-Since from its Last-Modified. Returns
/// whether a validator was added.
bool add_validators(Request& request, const Response& stored);

/// Builds a 304 response carrying the validators and cache headers the
/// stored response's metadata should be refreshed from (RFC 9111 §4.3.4).
Response make_not_modified(const Etag& current_etag,
                           const Headers& cache_headers);

}  // namespace catalyst::http
