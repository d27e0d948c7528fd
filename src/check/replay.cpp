#include "check/replay.h"

#include <algorithm>
#include <cinttypes>
#include <string_view>
#include <vector>

#include "http/mime.h"
#include "util/json.h"
#include "util/strings.h"

namespace catalyst::check {
namespace {

std::int64_t ns(TimePoint t) { return t.since_epoch().count(); }

}  // namespace

std::string trace_to_jsonl(const client::PageLoadResult& result,
                           std::uint64_t user, std::uint32_t visit) {
  // Hand-rendered lines: util::Json stores numbers as doubles, which would
  // corrupt 64-bit timestamps and digests; strings stay exact.
  const client::CacheCounters& c = result.counters;
  std::string out = str_format(
      "{\"u\":%" PRIu64 ",\"v\":%" PRIu32
      ",\"page\":%s,\"start_ns\":%" PRId64 ",\"plt_ns\":%" PRId64
      ",\"fcp_ns\":%" PRId64 ",\"tti_ns\":%" PRId64
      ",\"resources\":%" PRIu32 ",\"net\":%" PRIu64 ",\"cache\":%" PRIu64
      ",\"304\":%" PRIu64 ",\"sw\":%" PRIu64 ",\"push\":%" PRIu64
      ",\"bytes\":%" PRIu64 ",\"rtts\":%" PRIu32
      ",\"checked\":%" PRIu64 ",\"stale_ok\":%" PRIu64
      ",\"violations\":%" PRIu64 "}\n",
      user, visit, json_escape(result.trace.traces().empty()
                                   ? std::string()
                                   : result.trace.traces().front().url)
                       .c_str(),
      ns(result.start), result.plt().count(), result.fcp().count(),
      result.tti().count(), result.resources_total, c.from_network,
      c.from_cache, c.not_modified, c.from_sw_cache, c.from_push,
      static_cast<std::uint64_t>(result.bytes_downloaded), result.rtts,
      result.oracle.checked, result.oracle.allowed_stale,
      result.oracle.violations);

  std::uint32_t index = 0;
  for (const netsim::FetchTrace& t : result.trace.traces()) {
    out += str_format(
        "{\"u\":%" PRIu64 ",\"v\":%" PRIu32 ",\"i\":%" PRIu32
        ",\"url\":%s,\"rc\":\"%s\",\"t0\":%" PRId64 ",\"t1\":%" PRId64
        ",\"src\":\"%s\",\"bytes\":%" PRIu64 ",\"status\":%" PRIu32
        ",\"digest\":\"%016" PRIx64 "\",\"oracle\":\"%s\"}\n",
        user, visit, index++, json_escape(t.url).c_str(),
        std::string(http::class_label(t.resource_class)).c_str(),
        ns(t.start), ns(t.finish),
        std::string(netsim::to_string(t.source)).c_str(),
        static_cast<std::uint64_t>(t.bytes_down), t.status, t.body_digest,
        std::string(netsim::to_string(t.oracle_class)).c_str());
  }
  return out;
}

std::string diff_traces(const std::string& recorded,
                        const std::string& replayed) {
  if (recorded == replayed) return {};
  const std::vector<std::string_view> a = split(recorded, '\n');
  const std::vector<std::string_view> b = split(replayed, '\n');
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view la = i < a.size() ? a[i] : "<missing>";
    const std::string_view lb = i < b.size() ? b[i] : "<missing>";
    if (la != lb) {
      return str_format("first divergence at line %zu:\n  recorded: %s\n  replayed: %s\n",
                        i + 1, std::string(la).c_str(),
                        std::string(lb).c_str());
    }
  }
  return "traces differ only in trailing whitespace\n";
}

}  // namespace catalyst::check
