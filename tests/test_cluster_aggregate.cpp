// The router's pure text-level merges: Prometheus exposition summing
// (counters, gauges, histogram buckets with aligned `le` bounds), family
// prefix filtering/stripping, JSON numeric flattening, and the
// user-weighted /v1/summary merge whose means must equal what one process
// covering all users would report.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/aggregate.h"

namespace geovalid::cluster {
namespace {

TEST(ClusterAggregate, MergePrometheusSumsAcrossBackends) {
  const std::string a =
      "# HELP serve_records_total Records.\n"
      "# TYPE serve_records_total counter\n"
      "serve_records_total 10\n"
      "# TYPE serve_lag_events gauge\n"
      "serve_lag_events 3\n";
  const std::string b =
      "# HELP serve_records_total Records.\n"
      "# TYPE serve_records_total counter\n"
      "serve_records_total 32\n"
      "# TYPE serve_lag_events gauge\n"
      "serve_lag_events 4\n";
  const std::string merged = merge_prometheus({a, b});
  EXPECT_NE(merged.find("serve_records_total 42\n"), std::string::npos);
  EXPECT_NE(merged.find("serve_lag_events 7\n"), std::string::npos);
  EXPECT_NE(merged.find("# TYPE serve_records_total counter"),
            std::string::npos);
  EXPECT_NE(merged.find("# HELP serve_records_total Records."),
            std::string::npos);
}

TEST(ClusterAggregate, MergePrometheusSkipsUnparseableValues) {
  // A value with trailing junk is dropped like any other malformed
  // sample line, not summed as its numeric prefix.
  const std::string a =
      "# TYPE x_total counter\n"
      "x_total 12junk\n"
      "# TYPE y_total counter\n"
      "y_total 5\n";
  const std::string merged = merge_prometheus({a});
  EXPECT_EQ(merged.find("x_total 12"), std::string::npos);
  EXPECT_NE(merged.find("y_total 5\n"), std::string::npos);
}

TEST(ClusterAggregate, MergePrometheusKeysSamplesByLabels) {
  const std::string a =
      "# TYPE http_requests counter\n"
      "http_requests{route=\"/healthz\",status=\"200\"} 5\n"
      "http_requests{route=\"/metrics\",status=\"200\"} 2\n";
  const std::string b =
      "# TYPE http_requests counter\n"
      "http_requests{route=\"/healthz\",status=\"200\"} 7\n"
      "http_requests{route=\"/nope\",status=\"404\"} 1\n";
  const std::string merged = merge_prometheus({a, b});
  EXPECT_NE(
      merged.find("http_requests{route=\"/healthz\",status=\"200\"} 12\n"),
      std::string::npos);
  EXPECT_NE(
      merged.find("http_requests{route=\"/metrics\",status=\"200\"} 2\n"),
      std::string::npos);
  EXPECT_NE(merged.find("http_requests{route=\"/nope\",status=\"404\"} 1\n"),
            std::string::npos);
}

TEST(ClusterAggregate, MergePrometheusPreservesBucketOrderAndSums) {
  const std::string a =
      "# TYPE lat histogram\n"
      "lat_bucket{le=\"1\"} 1\n"
      "lat_bucket{le=\"2\"} 3\n"
      "lat_bucket{le=\"+Inf\"} 4\n"
      "lat_sum 6\n"
      "lat_count 4\n";
  const std::string b =
      "# TYPE lat histogram\n"
      "lat_bucket{le=\"1\"} 2\n"
      "lat_bucket{le=\"2\"} 2\n"
      "lat_bucket{le=\"+Inf\"} 5\n"
      "lat_sum 9\n"
      "lat_count 5\n";
  const std::string merged = merge_prometheus({a, b});
  // Cumulative buckets sum bucket-by-bucket and keep exposition order.
  const std::size_t b1 = merged.find("lat_bucket{le=\"1\"} 3\n");
  const std::size_t b2 = merged.find("lat_bucket{le=\"2\"} 5\n");
  const std::size_t binf = merged.find("lat_bucket{le=\"+Inf\"} 9\n");
  ASSERT_NE(b1, std::string::npos) << merged;
  ASSERT_NE(b2, std::string::npos) << merged;
  ASSERT_NE(binf, std::string::npos) << merged;
  EXPECT_LT(b1, b2);
  EXPECT_LT(b2, binf);
  EXPECT_NE(merged.find("lat_sum 15\n"), std::string::npos);
  EXPECT_NE(merged.find("lat_count 9\n"), std::string::npos);
}

TEST(ClusterAggregate, MergePrometheusSortsFamiliesByName) {
  const std::string a =
      "# TYPE zeta counter\nzeta 1\n# TYPE alpha counter\nalpha 2\n";
  const std::string merged = merge_prometheus({a});
  EXPECT_LT(merged.find("# TYPE alpha"), merged.find("# TYPE zeta"));
}

TEST(ClusterAggregate, FilterAndStripAreComplementary) {
  const std::string text =
      "# TYPE cluster_backend_up gauge\n"
      "cluster_backend_up{backend=\"b1\"} 1\n"
      "# TYPE serve_records_total counter\n"
      "serve_records_total 5\n";
  const std::string kept = filter_prometheus(text, "cluster_");
  EXPECT_NE(kept.find("cluster_backend_up"), std::string::npos);
  EXPECT_EQ(kept.find("serve_records_total"), std::string::npos);
  const std::string stripped = strip_prometheus(text, "cluster_");
  EXPECT_EQ(stripped.find("cluster_backend_up"), std::string::npos);
  EXPECT_NE(stripped.find("serve_records_total 5"), std::string::npos);
}

TEST(ClusterAggregate, FlattenJsonNumbersWalksNestedObjects) {
  const auto flat = flatten_json_numbers(
      R"({"a":1,"b":{"c":2.5,"d":{"e":-3}},"s":"skip","t":true,"n":null})");
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].first, "a");
  EXPECT_DOUBLE_EQ(flat[0].second, 1.0);
  EXPECT_EQ(flat[1].first, "b.c");
  EXPECT_DOUBLE_EQ(flat[1].second, 2.5);
  EXPECT_EQ(flat[2].first, "b.d.e");
  EXPECT_DOUBLE_EQ(flat[2].second, -3.0);
}

TEST(ClusterAggregate, FlattenJsonNumbersReportsStringLeavesOnRequest) {
  std::vector<std::pair<std::string, std::string>> strings;
  const auto flat = flatten_json_numbers(
      R"({"meta":{"host":"10.0.0.2"},"host":"a\"b","port":7})", &strings);
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_EQ(flat[0].first, "port");
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0].first, "meta.host");
  EXPECT_EQ(strings[0].second, "10.0.0.2");
  EXPECT_EQ(strings[1].first, "host");
  EXPECT_EQ(strings[1].second, "a\"b");
}

TEST(ClusterAggregate, FlattenJsonNumbersRejectsGarbageAndArrays) {
  EXPECT_THROW(flatten_json_numbers("[1,2]"), std::invalid_argument);
  EXPECT_THROW(flatten_json_numbers("{\"a\":[1]}"), std::invalid_argument);
  EXPECT_THROW(flatten_json_numbers("{\"a\":1"), std::invalid_argument);
  EXPECT_THROW(flatten_json_numbers("not json"), std::invalid_argument);
}

TEST(ClusterAggregate, FlattenJsonNumbersRejectsHexNumerals) {
  // The rebalance hook's body goes through this scanner: a hex port must
  // not read as 8080.
  EXPECT_THROW(flatten_json_numbers("{\"ingest_port\":0x1F90}"),
               std::invalid_argument);
}

TEST(ClusterAggregate, MergeSummariesSumsCountsAndWeightsMeans) {
  // Backend 1: 3 users with checkins (ratio 0.5), 2 users with gaps
  // (burstiness 0.2). Backend 2: 1 user (ratio 0.9), 6 users (0.8).
  const std::string a =
      R"({"users":3,"partition":{"honest":10,"checkins":20},)"
      R"("prevalence":{"users_with_checkins":3,"mean_extraneous_ratio":0.5},)"
      R"("burstiness":{"users_with_gaps":2,"mean":0.2}})";
  const std::string b =
      R"({"users":1,"partition":{"honest":4,"checkins":6},)"
      R"("prevalence":{"users_with_checkins":1,"mean_extraneous_ratio":0.9},)"
      R"("burstiness":{"users_with_gaps":6,"mean":0.8}})";
  const std::string merged = merge_summaries({a, b});

  EXPECT_EQ(merged.rfind("{\"backends\":2,", 0), 0u) << merged;
  EXPECT_NE(merged.find("\"users\":4"), std::string::npos) << merged;
  EXPECT_NE(merged.find("\"honest\":14"), std::string::npos);
  EXPECT_NE(merged.find("\"checkins\":26"), std::string::npos);
  // (3*0.5 + 1*0.9) / 4 = 0.6; (2*0.2 + 6*0.8) / 8 = 0.65.
  EXPECT_NE(merged.find("\"mean_extraneous_ratio\":0.6"), std::string::npos)
      << merged;
  EXPECT_NE(merged.find("\"mean\":0.65"), std::string::npos) << merged;

  // The merged body must itself be parseable (the router serves it).
  const auto flat = flatten_json_numbers(merged);
  EXPECT_EQ(flat.front().first, "backends");
}

TEST(ClusterAggregate, MergeSummariesZeroWeightMeansStayZero) {
  const std::string empty =
      R"({"prevalence":{"users_with_checkins":0,"mean_extraneous_ratio":0},)"
      R"("burstiness":{"users_with_gaps":0,"mean":0}})";
  const std::string merged = merge_summaries({empty, empty});
  EXPECT_NE(merged.find("\"mean_extraneous_ratio\":0"), std::string::npos);
  const auto flat = flatten_json_numbers(merged);
  for (const auto& [path, value] : flat) {
    if (path == "prevalence.mean_extraneous_ratio" ||
        path == "burstiness.mean") {
      EXPECT_EQ(value, 0.0) << path;
    }
  }
}

TEST(ClusterAggregate, MergeSummariesSingleBodyIsIdentityPlusCount) {
  const std::string a = R"({"users":7,"cursor":19})";
  const std::string merged = merge_summaries({a});
  EXPECT_NE(merged.find("\"backends\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"users\":7"), std::string::npos);
  EXPECT_NE(merged.find("\"cursor\":19"), std::string::npos);
}

TEST(ClusterAggregate, MergeSummariesRejectsEmptyAndMalformed) {
  EXPECT_THROW(merge_summaries({}), std::invalid_argument);
  EXPECT_THROW(merge_summaries({"{"}), std::invalid_argument);
}

}  // namespace
}  // namespace geovalid::cluster
