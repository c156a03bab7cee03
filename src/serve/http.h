// Minimal HTTP/1.1 server-side message handling for the control planes of
// both front ends (serve and route).
//
// Scope is deliberately tiny — a fixed route table served to curl /
// Prometheus / the loadgen probe, all with `Connection: close`: an
// incremental request parser (head + optional Content-Length body, hard
// caps on both, tolerant of any recv() chunking), the route table with its
// target parsing, and a response builder. No keep-alive, no chunked
// transfer, no TLS.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace geovalid::serve {

/// Request-head cap: method + target + headers. 8 KiB is curl-friendly
/// and starves slow-loris header drips quickly.
inline constexpr std::size_t kMaxHttpHeadBytes = 8 * 1024;

/// Body cap; the control plane has no body-carrying route that needs more.
inline constexpr std::size_t kMaxHttpBodyBytes = 64 * 1024;

struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;
  /// Header (name, value) pairs in arrival order; names lowercased.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with this (lowercase) name; empty when absent.
  [[nodiscard]] std::string_view header(std::string_view name) const;
};

/// Incremental request parser: feed it recv() chunks until it reports
/// kDone (request() is valid) or kError (error_status()/error() say what
/// to send back before closing).
class HttpRequestParser {
 public:
  enum class State {
    kHead,   ///< still accumulating the request head
    kBody,   ///< head parsed, reading Content-Length bytes
    kDone,   ///< full request available
    kError,  ///< malformed or over a cap; reply error_status() and close
  };

  /// Consumes a chunk; returns the state afterwards. Bytes past the end of
  /// a kDone request are ignored (the server closes after one response).
  State consume(std::string_view data);

  [[nodiscard]] State state() const { return state_; }
  /// The request is complete (kDone) or refused (kError).
  [[nodiscard]] bool finished() const {
    return state_ == State::kDone || state_ == State::kError;
  }
  [[nodiscard]] const HttpRequest& request() const { return request_; }
  [[nodiscard]] int error_status() const { return error_status_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  State fail(int status, std::string message);
  State parse_head();

  State state_ = State::kHead;
  std::string buf_;
  std::size_t body_expected_ = 0;
  HttpRequest request_;
  int error_status_ = 400;
  std::string error_;
};

/// The control-plane routes. Declaration order is the metric-label order;
/// kOther collects every unknown target, so hostile clients cannot mint
/// unbounded `route` label values. Serve has no kBackends (the router's
/// rebalance hook) and treats it as kOther.
enum class Route : std::uint8_t {
  kHealthz,
  kReadyz,
  kMetrics,
  kSummary,
  kVerdicts,  ///< /v1/users/{id}/verdicts
  kScore,     ///< /v1/users/{id}/score
  kSuspects,  ///< /v1/suspects[?k=N]
  kCheckpoint,
  kDrain,
  kBackends,  ///< /admin/backends/{name}
  kOther,
};
inline constexpr std::size_t kRouteCount = 11;

/// The `route` label of *_http_requests_total, e.g. "/v1/users/{id}/score".
[[nodiscard]] std::string_view route_label(Route route);

/// A request target matched against the route table.
struct RouteMatch {
  Route route = Route::kOther;
  /// The request used the route's one method (POST under /admin/, GET
  /// elsewhere). Always true for kOther: an unknown target is a 404.
  bool method_ok = true;
  /// The {id} text of the user routes, the {name} of kBackends.
  std::string_view arg;
};

[[nodiscard]] RouteMatch match_route(const HttpRequest& request);

/// A whole decimal user id; nullopt for empty or non-numeric text.
[[nodiscard]] std::optional<std::uint32_t> parse_user_id(
    std::string_view text);

/// The k of /v1/suspects[?k=N] (10 when absent); nullopt when malformed
/// or zero.
[[nodiscard]] std::optional<std::size_t> parse_suspects_k(
    std::string_view target);

/// One control-plane answer, as a front end's router builds it.
struct HttpReply {
  HttpReply() = default;
  HttpReply(Route r, int s, std::string b,
            std::string type = "application/json")
      : route(r),
        status(s),
        content_type(std::move(type)),
        body(std::move(b)) {}

  Route route = Route::kOther;
  int status = 404;
  std::string content_type = "application/json";
  std::string body = "{\"error\":\"not found\"}";
  std::vector<std::pair<std::string, std::string>> headers;
  /// Answered later (POST /admin/drain): the caller waits on the
  /// connection until the front end has quiesced.
  bool deferred = false;
};

/// The 405 answer for a route reached with the wrong method.
[[nodiscard]] HttpReply method_not_allowed(Route route);

/// Serializes one response with Content-Length and `Connection: close`.
/// `extra_headers` are appended verbatim (e.g. a Content-Type override is
/// not needed — pass the type directly).
[[nodiscard]] std::string http_response(
    int status, std::string_view content_type, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers =
        {});

/// Canonical reason phrase ("OK", "Not Found", ...); "Unknown" otherwise.
[[nodiscard]] std::string_view http_status_text(int status);

}  // namespace geovalid::serve
