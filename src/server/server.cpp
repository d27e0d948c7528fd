#include "server/server.h"

#include "http/mime.h"
#include "util/strings.h"
#include "util/url.h"

namespace catalyst::server {

namespace {

/// Baseline request handling time (accept/parse/route/IO).
constexpr Duration kProcessingDelay = microseconds(500);

}  // namespace

Server::Server(netsim::Network& network, std::shared_ptr<Site> site,
               ServerConfig config)
    : network_(network),
      site_(std::move(site)),
      config_(config),
      handler_(*site_) {
  if (config_.enable_catalyst) {
    catalyst_ = std::make_unique<CatalystModule>(*site_, config_.catalyst);
  }
  if (config_.push_policy != PushPolicy::None || config_.early_hints) {
    // Push and Early Hints need the link closure; reuse a CatalystModule
    // as the linker even when the catalyst header itself is disabled.
    if (!catalyst_) {
      catalyst_ =
          std::make_unique<CatalystModule>(*site_, config_.catalyst);
    }
  }
  if (config_.push_policy != PushPolicy::None) {
    push_ = std::make_unique<PushModule>(*site_, config_.push_policy);
  }
  network_.host(site_->host())
      .set_handler([this](const http::Request& request,
                          std::function<void(netsim::ServerReply)> respond) {
        handle(request, std::move(respond));
      });
}

void Server::handle(const http::Request& request,
                    std::function<void(netsim::ServerReply)> respond) {
  const TimePoint now = network_.loop().now();
  const std::string path = request.path();

  std::string session_id;
  if (const auto cookie = request.headers.get("Cookie")) {
    session_id = parse_session_cookie(*cookie);
  }

  netsim::ServerReply reply;
  Duration compute = kProcessingDelay;

  if (config_.enable_catalyst && path == CatalystModule::kSwPath) {
    reply.response = catalyst_->serve_sw_script(now);
    network_.loop().schedule_after(
        compute, [respond = std::move(respond),
                  reply = std::move(reply)]() mutable {
          respond(std::move(reply));
        });
    return;
  }

  reply.response = handler_.handle(request, now);

  const Resource* resource = site_->find(path);
  const bool is_html =
      resource != nullptr &&
      resource->resource_class() == http::ResourceClass::Html;

  if (is_html) {
    std::vector<std::string> learned;
    if (config_.track_sessions && !session_id.empty()) {
      // A base-HTML request closes the previous observation window (its
      // fetches become the learned set) and starts a new one.
      sessions_.begin_visit(session_id, path);
      learned = sessions_.learned_urls(session_id, path);
    }
    if (config_.enable_catalyst &&
        (reply.response.status == http::Status::Ok ||
         reply.response.status == http::Status::NotModified)) {
      const Duration cost =
          catalyst_->decorate_html(reply.response, *resource, now, learned);
      stats_.catalyst_compute += cost;
      compute += cost;
    }
    // Pushes accompany every base-HTML serve, 304s included — the server
    // cannot know what the client still has, which is exactly the
    // wasted-bandwidth failure mode the paper (and [44, 50]) criticizes.
    // (The Digest policy narrows this with the client's Cache-Digest.)
    if (push_ && (reply.response.status == http::Status::Ok ||
                  reply.response.status == http::Status::NotModified)) {
      reply.pushes = push_->build_pushes(request, *resource, now,
                                         *catalyst_, learned, handler_);
    }
    // 103 Early Hints: announce the static closure so the client can
    // start its (cache-checked) fetches before the HTML body lands.
    if (config_.early_hints) {
      reply.early_hint_urls = catalyst_->linked_paths(*resource, now);
    }
  } else if (config_.track_sessions && !session_id.empty() &&
             resource != nullptr) {
    // Attribute this subresource fetch to the page named by Referer.
    if (const auto referer = request.headers.get("Referer")) {
      const auto base = Url::parse(*referer);
      if (base) {
        sessions_.record_fetch(session_id, base->path, path);
      }
    }
  }

  // Unkeyed-input reflection: X-Forwarded-Host lands in the body after
  // any HTML decoration so the marker survives into whatever a cache
  // stores. The reflected page is a new Body (the served one is the
  // origin's shared version), and Content-Length is re-derived.
  if (config_.reflect_forwarded_host &&
      reply.response.status == http::Status::Ok) {
    if (const auto xfh = request.headers.get(http::kXForwardedHost)) {
      std::string reflected = reply.response.body.str();
      reflected += "\n<!--reflect:";
      reflected += *xfh;
      reflected += "-->";
      reply.response.body = std::move(reflected);
      reply.response.headers.set(
          http::kContentLength,
          std::to_string(reply.response.body_wire_size()));
    }
  }

  network_.loop().schedule_after(
      compute,
      [respond = std::move(respond), reply = std::move(reply)]() mutable {
        respond(std::move(reply));
      });
}

}  // namespace catalyst::server
