// HTTP control-plane plumbing: the incremental request parser against
// arbitrary recv() chunking and hostile inputs, and the response builder's
// framing. The parser guards the control port the same way LineDecoder
// guards ingest — a malformed request must produce a clean error status,
// never a wedged connection.
#include <gtest/gtest.h>

#include <string>

#include "serve/http.h"
#include "serve/net.h"

namespace {

using namespace geovalid;
using State = serve::HttpRequestParser::State;

TEST(ServeHttp, ParsesSimpleGet) {
  serve::HttpRequestParser p;
  const State s = p.consume(
      "GET /healthz HTTP/1.1\r\nHost: localhost\r\nUser-Agent: t\r\n\r\n");
  ASSERT_EQ(s, State::kDone);
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().target, "/healthz");
  EXPECT_EQ(p.request().version, "HTTP/1.1");
  EXPECT_EQ(p.request().header("host"), "localhost");
  EXPECT_EQ(p.request().header("HOST"), "");  // lookups are lowercase
  EXPECT_EQ(p.request().header("absent"), "");
  EXPECT_TRUE(p.request().body.empty());
}

TEST(ServeHttp, ParsesByteAtATime) {
  // A request head may straddle any number of reads.
  const std::string req =
      "POST /admin/drain HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  serve::HttpRequestParser p;
  State s = State::kHead;
  for (const char ch : req) {
    ASSERT_NE(s, State::kError);
    s = p.consume(std::string_view(&ch, 1));
  }
  ASSERT_EQ(s, State::kDone);
  EXPECT_EQ(p.request().method, "POST");
  EXPECT_EQ(p.request().target, "/admin/drain");
  EXPECT_EQ(p.request().body, "body");
}

TEST(ServeHttp, BodySplitAcrossChunks) {
  serve::HttpRequestParser p;
  ASSERT_EQ(p.consume("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhel"),
            State::kBody);
  ASSERT_EQ(p.consume("lo wo"), State::kBody);
  ASSERT_EQ(p.consume("rld"), State::kDone);
  // Content-Length wins: the 11th byte ("d") is past the declared body.
  EXPECT_EQ(p.request().body, "hello worl");
}

TEST(ServeHttp, RejectsMalformedRequestLine) {
  serve::HttpRequestParser p;
  ASSERT_EQ(p.consume("NOT-HTTP\r\n\r\n"), State::kError);
  EXPECT_EQ(p.error_status(), 400);
}

TEST(ServeHttp, RejectsMalformedHeaderLine) {
  serve::HttpRequestParser p;
  ASSERT_EQ(p.consume("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            State::kError);
  EXPECT_EQ(p.error_status(), 400);
}

TEST(ServeHttp, RejectsOversizedHead) {
  serve::HttpRequestParser p;
  // Slow-loris: endless header bytes, never a blank line.
  std::string drip = "GET / HTTP/1.1\r\n";
  State s = p.consume(drip);
  std::size_t fed = drip.size();
  while (s == State::kHead && fed < 4 * serve::kMaxHttpHeadBytes) {
    const std::string line = "X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    s = p.consume(line);
    fed += line.size();
  }
  ASSERT_EQ(s, State::kError);
  EXPECT_EQ(p.error_status(), 431);
}

TEST(ServeHttp, RejectsOversizedBody) {
  serve::HttpRequestParser p;
  const std::string head = "POST / HTTP/1.1\r\nContent-Length: " +
                           std::to_string(serve::kMaxHttpBodyBytes + 1) +
                           "\r\n\r\n";
  ASSERT_EQ(p.consume(head), State::kError);
  EXPECT_EQ(p.error_status(), 413);
}

TEST(ServeHttp, RejectsBadContentLength) {
  serve::HttpRequestParser p;
  ASSERT_EQ(p.consume("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            State::kError);
  EXPECT_EQ(p.error_status(), 400);
}

TEST(ServeHttp, RejectsChunkedTransferEncoding) {
  serve::HttpRequestParser p;
  ASSERT_EQ(
      p.consume("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
      State::kError);
  EXPECT_EQ(p.error_status(), 501);
}

TEST(ServeHttp, IgnoresBytesAfterDoneRequest) {
  serve::HttpRequestParser p;
  ASSERT_EQ(p.consume("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"),
            State::kDone);
  // Connection: close semantics — the pipelined second request is ignored.
  EXPECT_EQ(p.request().target, "/a");
  EXPECT_EQ(p.consume("more"), State::kDone);
  EXPECT_EQ(p.request().target, "/a");
}

TEST(ServeHttp, ResponseFraming) {
  const std::string r =
      serve::http_response(200, "application/json", "{\"ok\":true}");
  EXPECT_EQ(r.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(r.find("Content-Type: application/json\r\n"), std::string::npos);
  EXPECT_NE(r.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(r.find("Connection: close\r\n"), std::string::npos);
  // Body follows the blank line, exactly once.
  const std::size_t sep = r.find("\r\n\r\n");
  ASSERT_NE(sep, std::string::npos);
  EXPECT_EQ(r.substr(sep + 4), "{\"ok\":true}");
}

TEST(ServeHttp, ResponseExtraHeaders) {
  const std::string r = serve::http_response(
      503, "text/plain", "busy", {{"Retry-After", "1"}});
  EXPECT_EQ(r.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u);
  EXPECT_NE(r.find("Retry-After: 1\r\n"), std::string::npos);
}

TEST(ServeHttp, StatusText) {
  EXPECT_EQ(serve::http_status_text(200), "OK");
  EXPECT_EQ(serve::http_status_text(404), "Not Found");
  EXPECT_EQ(serve::http_status_text(405), "Method Not Allowed");
  EXPECT_EQ(serve::http_status_text(431),
            "Request Header Fields Too Large");
  EXPECT_EQ(serve::http_status_text(299), "Unknown");
}

TEST(ServeHttp, StatusTextNamesBadGateway) {
  // The router's answer when a backend fails it (fan-out, proxy, rebalance).
  EXPECT_EQ(serve::http_status_text(502), "Bad Gateway");
  EXPECT_EQ(serve::http_response(502, "application/json", "{}").rfind(
                "HTTP/1.1 502 Bad Gateway\r\n", 0),
            0u);
}

TEST(ServeHttp, SuspectsKOfZeroIsRejected) {
  // A top-0 list is a malformed request, not an empty answer: both front
  // ends answer 400 through this one parser.
  EXPECT_EQ(serve::parse_suspects_k("/v1/suspects"), 10u);
  EXPECT_EQ(serve::parse_suspects_k("/v1/suspects?k=1"), 1u);
  EXPECT_EQ(serve::parse_suspects_k("/v1/suspects?k=0"), std::nullopt);
  EXPECT_EQ(serve::parse_suspects_k("/v1/suspects?k=00"), std::nullopt);
  EXPECT_EQ(serve::parse_suspects_k("/v1/suspects?k=x"), std::nullopt);
}

TEST(ServeHttp, ResponseShorterThanItsContentLengthThrows) {
  // A peer that dies mid-answer leaves a cut body behind; handing it on
  // would let a router merge or embed half an answer.
  const std::string head =
      "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
      "Content-Length: 11\r\nConnection: close\r\n\r\n";
  EXPECT_THROW(serve::parse_http_response(head + "{\"users\":", "short"),
               serve::NetError);
  EXPECT_EQ(serve::parse_http_response(head + "{\"users\":1}", "whole").body,
            "{\"users\":1}");
  // Without a Content-Length the body runs to EOF, as before.
  EXPECT_EQ(serve::parse_http_response(
                "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nok", "eof")
                .body,
            "ok");
}

TEST(ServeHttp, ResponseWithNonNumericContentLengthThrows) {
  // Read as 0, "x" would let a cut body past the short-body check above.
  EXPECT_THROW(serve::parse_http_response(
                   "HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n{\"us",
                   "junk length"),
               serve::NetError);
}

TEST(ServeHttp, ResponseWithNonNumericStatusThrows) {
  EXPECT_THROW(serve::parse_http_response(
                   "HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\nok",
                   "junk status"),
               serve::NetError);
  EXPECT_EQ(serve::parse_http_response(
                "HTTP/1.1 503 Service Unavailable\r\n\r\n", "503")
                .status,
            503);
}

}  // namespace
