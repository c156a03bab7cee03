#include "serve/http.h"

#include <cctype>
#include <charconv>

namespace geovalid::serve {
namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Route table, in Route order: the metric label (also the target of the
/// exact-match routes) and the one method the route answers.
struct RouteSpec {
  std::string_view label;
  std::string_view method;
};
constexpr RouteSpec kRoutes[kRouteCount] = {
    {"/healthz", "GET"},
    {"/readyz", "GET"},
    {"/metrics", "GET"},
    {"/v1/summary", "GET"},
    {"/v1/users/{id}/verdicts", "GET"},
    {"/v1/users/{id}/score", "GET"},
    {"/v1/suspects", "GET"},
    {"/admin/checkpoint", "POST"},
    {"/admin/drain", "POST"},
    {"/admin/backends/{name}", "POST"},
    {"other", ""},
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string_view HttpRequest::header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return v;
  }
  return {};
}

HttpRequestParser::State HttpRequestParser::fail(int status,
                                                 std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_ = std::move(message);
  return state_;
}

HttpRequestParser::State HttpRequestParser::consume(std::string_view data) {
  if (state_ == State::kDone || state_ == State::kError) return state_;
  buf_.append(data);
  if (state_ == State::kHead) {
    const std::size_t head_end = buf_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buf_.size() > kMaxHttpHeadBytes) {
        return fail(431, "request head too large");
      }
      return state_;
    }
    if (head_end > kMaxHttpHeadBytes) {
      return fail(431, "request head too large");
    }
    const State parsed = parse_head();
    if (parsed == State::kError) return state_;
    buf_.erase(0, head_end + 4);
    state_ = State::kBody;
  }
  if (state_ == State::kBody) {
    if (buf_.size() >= body_expected_) {
      request_.body = buf_.substr(0, body_expected_);
      buf_.clear();
      state_ = State::kDone;
    }
  }
  return state_;
}

HttpRequestParser::State HttpRequestParser::parse_head() {
  // Request line: METHOD SP TARGET SP VERSION.
  std::size_t pos = buf_.find("\r\n");
  const std::string_view line = std::string_view(buf_).substr(0, pos);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return fail(400, "malformed request line");
  }
  request_.method = std::string(line.substr(0, sp1));
  request_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  request_.version = std::string(trim(line.substr(sp2 + 1)));
  if (request_.method.empty() || request_.target.empty() ||
      request_.version.rfind("HTTP/", 0) != 0) {
    return fail(400, "malformed request line");
  }

  // Header lines until the blank one.
  pos += 2;
  while (true) {
    const std::size_t end = buf_.find("\r\n", pos);
    const std::string_view header_line =
        std::string_view(buf_).substr(pos, end - pos);
    if (header_line.empty()) break;
    const std::size_t colon = header_line.find(':');
    if (colon == std::string_view::npos) {
      return fail(400, "malformed header line");
    }
    request_.headers.emplace_back(
        to_lower(trim(header_line.substr(0, colon))),
        std::string(trim(header_line.substr(colon + 1))));
    pos = end + 2;
  }

  const std::string_view length = request_.header("content-length");
  if (!length.empty()) {
    std::size_t n = 0;
    const auto [ptr, ec] =
        std::from_chars(length.data(), length.data() + length.size(), n);
    if (ec != std::errc{} || ptr != length.data() + length.size()) {
      return fail(400, "bad Content-Length");
    }
    if (n > kMaxHttpBodyBytes) return fail(413, "request body too large");
    body_expected_ = n;
  }
  if (!request_.header("transfer-encoding").empty()) {
    return fail(501, "chunked requests unsupported");
  }
  return state_;
}

std::string_view route_label(Route route) {
  return kRoutes[static_cast<std::size_t>(route)].label;
}

RouteMatch match_route(const HttpRequest& request) {
  const std::string_view t = request.target;
  RouteMatch m;
  // The {id} slice: "/v1/users/verdicts" yields "verdicts" and
  // "/v1/users//verdicts" an empty id; both answer 400.
  if (t.rfind("/v1/users/", 0) == 0 && t.size() > 10 &&
      ends_with(t, "/verdicts")) {
    m.route = Route::kVerdicts;
    m.arg = t.substr(10, t.size() - 19);
  } else if (t.rfind("/v1/users/", 0) == 0 && t.size() > 10 &&
             ends_with(t, "/score")) {
    m.route = Route::kScore;
    m.arg = t.substr(10, t.size() - 16);
  } else if (t == "/v1/suspects" || t.rfind("/v1/suspects?k=", 0) == 0) {
    m.route = Route::kSuspects;
  } else if (t.rfind("/admin/backends/", 0) == 0 && t.size() > 16) {
    m.route = Route::kBackends;
    m.arg = t.substr(16);
  } else {
    for (std::size_t i = 0; i < kRouteCount; ++i) {
      if (kRoutes[i].label == t) m.route = static_cast<Route>(i);
    }
  }
  m.method_ok = m.route == Route::kOther ||
                request.method ==
                    kRoutes[static_cast<std::size_t>(m.route)].method;
  return m;
}

std::optional<std::uint32_t> parse_user_id(std::string_view text) {
  return parse_whole<std::uint32_t>(text);
}

std::optional<std::size_t> parse_suspects_k(std::string_view target) {
  if (target == "/v1/suspects") return 10;
  return parse_whole<std::size_t>(target.substr(15));
}

HttpReply method_not_allowed(Route route) {
  return {route, 405, "{\"error\":\"method not allowed\"}"};
}

std::string http_response(
    int status, std::string_view content_type, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  std::string out;
  out.reserve(body.size() + 256);
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += http_status_text(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n";
  for (const auto& [k, v] : extra_headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

std::string_view http_status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 413:
      return "Payload Too Large";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

}  // namespace geovalid::serve
