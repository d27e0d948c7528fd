#include "core/rdr_proxy.h"

#include "util/json.h"
#include "util/strings.h"

namespace catalyst::core {

namespace {

/// Compute budget per proxied load (headless browser work).
constexpr Duration kPerLoadOverhead = milliseconds(2);

}  // namespace

RdrProxy::RdrProxy(netsim::Network& network,
                   std::shared_ptr<server::Site> site)
    : network_(network), site_(std::move(site)) {
  network_.host(std::string(kRdrProxyHost))
      .set_handler([this](const http::Request& request,
                          std::function<void(netsim::ServerReply)> respond) {
        handle(request, std::move(respond));
      });
}

void RdrProxy::handle(const http::Request& request,
                      std::function<void(netsim::ServerReply)> respond) {
  ++loads_;
  // Headless browser on the proxy host; fresh per load (no user-data
  // bleed between clients — the privacy posture WatchTower argues for).
  client::BrowserConfig bc;
  bc.client_host = kRdrProxyHost;
  bc.browser_id = str_format("rdr-%llu",
                             static_cast<unsigned long long>(loads_));
  active_browsers_.push_back(
      std::make_unique<client::Browser>(network_, bc));
  client::Browser* headless = active_browsers_.back().get();

  Url page;
  page.scheme = "https";
  page.host = site_->host();
  page.path = request.path();

  headless->load_page(
      page, [this, headless, respond = std::move(respond)](
                client::PageLoadResult result) {
        headless->end_visit();

        // Assemble the bundle: the base HTML travels as the literal body
        // (the client still parses it for compute modelling); everything
        // else is represented by the declared bundle size.
        http::Response bundle = http::Response::make(http::Status::Ok);
        ByteCount total = 0, js_bytes = 0, css_bytes = 0;
        std::string html_body;
        for (const netsim::FetchTrace& t : result.trace.traces()) {
          total += t.bytes_down;
          if (t.resource_class == http::ResourceClass::Script) {
            js_bytes += t.bytes_down;
          } else if (t.resource_class == http::ResourceClass::Css) {
            css_bytes += t.bytes_down;
          }
        }
        const auto& traces = result.trace.traces();
        if (!traces.empty()) {
          // First trace is the navigation; recover its body from the
          // proxy's cache-independent fetch is not retained, so embed a
          // placeholder of the right order of magnitude.
          html_body = str_format("<!-- rdr bundle of %zu resources -->",
                                 traces.size());
        }
        bundle.body = std::move(html_body);
        bundle.declared_body_size = std::max<ByteCount>(total, 1);

        Json meta = Json::object();
        meta.set("resources",
                 Json::number(static_cast<double>(traces.size())));
        meta.set("js_bytes", Json::number(static_cast<double>(js_bytes)));
        meta.set("css_bytes",
                 Json::number(static_cast<double>(css_bytes)));
        bundle.headers.set(kBundleMetaHeader, meta.dump());
        bundle.headers.set(http::kCacheControl,
                           http::CacheControl::never_store().to_string());
        bundle.finalize(network_.loop().now());

        netsim::ServerReply reply;
        reply.response = std::move(bundle);
        network_.loop().schedule_after(
            kPerLoadOverhead,
            [respond = std::move(respond),
             reply = std::move(reply)]() mutable {
              respond(std::move(reply));
            });
      });
}

}  // namespace catalyst::core
