/**
 * @file
 * Tests for the Prometheus text exposition (src/obs/prometheus): the
 * service-family mapping table, the per-channel noise-event rule,
 * generic name sanitization, counter family grouping under one header,
 * the derived cache-hit ratio, and histogram rendering — cumulative le
 * buckets on the base-2 edges, the +Inf bucket, _sum/_count, and the
 * ms-to-seconds scaling.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/prometheus.hpp"
#include "sim/noise.hpp"

namespace geyser {
namespace {

class PrometheusTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::setEnabled(false);
        obs::reset();
    }
    void TearDown() override
    {
        obs::setEnabled(false);
        obs::reset();
    }
};

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

int
countOf(const std::string &text, const std::string &needle)
{
    int n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST_F(PrometheusTest, ServiceCountersMapToLabelledFamilies)
{
    obs::serviceCounter("service.done").add(5);
    obs::serviceCounter("service.failed").add(2);
    obs::serviceCounter("service.submitted").add(9);
    const std::string text = obs::prometheusText();
    EXPECT_NE(text.find("geyser_jobs_total{outcome=\"done\"} 5\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("geyser_jobs_total{outcome=\"failed\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_jobs_submitted_total 9\n"),
              std::string::npos);
    // The labelled variants share exactly one header pair.
    EXPECT_EQ(countOf(text, "# TYPE geyser_jobs_total counter"), 1);
    EXPECT_EQ(countOf(text, "# HELP geyser_jobs_total "), 1);
    // No double-suffixed family ever leaks out.
    EXPECT_EQ(text.find("_total_total"), std::string::npos) << text;
}

TEST_F(PrometheusTest, FleetReplayFallbacksGetTheirOwnFamily)
{
    // Members whose transpile replay diverged still re-bind, so they are
    // not a path of geyser_fleet_members_total.
    obs::serviceCounter("fleet.replay_fallbacks").add(3);
    obs::serviceCounter("fleet.fallback").add(2);
    const std::string text = obs::prometheusText();
    EXPECT_NE(text.find("geyser_fleet_replay_fallbacks_total 3\n"),
              std::string::npos)
        << text;
    EXPECT_EQ(
        countOf(text, "# TYPE geyser_fleet_replay_fallbacks_total counter"),
        1);
    EXPECT_NE(text.find("geyser_fleet_members_total{path=\"fallback\"} 2\n"),
              std::string::npos);
    EXPECT_EQ(text.find("_total_total"), std::string::npos) << text;
}

TEST_F(PrometheusTest, NoiseChannelCountersShareOneLabelledFamily)
{
    obs::serviceCounter("sim.noise.amp_damp_events").add(12);
    obs::serviceCounter("sim.noise.legacy_pauli_events").add(7);
    obs::serviceCounter("sim.noise.readout_events").add(3);
    // Every channel the library names, under the trajectory simulator's
    // counter name for it ('-' written as '_').
    const auto &names = noiseChannelNames();
    for (const std::string &name : names) {
        std::string internal = name;
        std::replace(internal.begin(), internal.end(), '-', '_');
        obs::serviceCounter("sim.noise." + internal + "_events").add(1);
    }
    const std::string text = obs::prometheusText();
    EXPECT_NE(text.find("geyser_sim_noise_events_total"
                        "{channel=\"amp-damp\"} 13\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("geyser_sim_noise_events_total"
                        "{channel=\"legacy-pauli\"} 8\n"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_sim_noise_events_total"
                        "{channel=\"readout\"} 4\n"),
              std::string::npos);
    for (const std::string &name : names)
        EXPECT_NE(text.find("geyser_sim_noise_events_total{channel=\"" +
                            name + "\"} "),
                  std::string::npos)
            << name;
    EXPECT_EQ(countOf(text, "# TYPE geyser_sim_noise_events_total counter"),
              1);
    // One series per channel plus the HELP and TYPE lines: no channel
    // leaks out as a family of its own.
    EXPECT_EQ(countOf(text, "geyser_sim_noise_"),
              static_cast<int>(names.size()) + 2)
        << text;
}

TEST_F(PrometheusTest, GenericNamesSanitizeWithTotalSuffix)
{
    obs::serviceCounter("cache.store_error").add(3);
    obs::serviceCounter("sim.gates_shared").add(30);
    obs::serviceGauge("pool.in_flight").set(4.0);
    const std::string text = obs::prometheusText();
    EXPECT_NE(text.find("geyser_cache_store_error_total 3\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("geyser_sim_gates_shared_total 30\n"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_pool_in_flight 4\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE geyser_pool_in_flight gauge"),
              std::string::npos);
}

TEST_F(PrometheusTest, DerivedCacheHitRatio)
{
    obs::serviceCounter("service.done").add(4);
    obs::serviceCounter("service.cache_hit").add(1);
    const std::string text = obs::prometheusText();
    EXPECT_NE(text.find("geyser_cache_hit_ratio 0.25\n"),
              std::string::npos)
        << text;
    // With zero completed jobs the ratio is omitted, not NaN.
    obs::reset();
    obs::serviceCounter("service.cache_hit").add(0);
    const std::string empty = obs::prometheusText();
    EXPECT_EQ(empty.find("geyser_cache_hit_ratio"), std::string::npos);
    EXPECT_EQ(empty.find("nan"), std::string::npos);
}

TEST_F(PrometheusTest, HistogramRendersCumulativeBucketsAndInf)
{
    obs::Histogram &h = obs::serviceHistogram("test.latency");
    h.record(0.5);  // Bucket 0 (< 1).
    h.record(3.0);  // Bucket 2 ([2, 4)).
    h.record(3.5);  // Bucket 2.
    h.record(100.0);  // Bucket 7 ([64, 128)).
    const std::string text = obs::prometheusText();
    // Cumulative counts at the base-2 edges; every edge up to the
    // highest occupied bucket is present even when its count repeats.
    EXPECT_NE(text.find("geyser_test_latency_bucket{le=\"1\"} 1\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("geyser_test_latency_bucket{le=\"2\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_test_latency_bucket{le=\"4\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_test_latency_bucket{le=\"64\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_test_latency_bucket{le=\"128\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_test_latency_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_test_latency_sum 107\n"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_test_latency_count 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE geyser_test_latency histogram"),
              std::string::npos);
}

TEST_F(PrometheusTest, MillisecondHistogramsScaleToSeconds)
{
    // The service records milliseconds (base-2 buckets cannot resolve
    // sub-1 values); the exposition rescales edges and sums to seconds.
    obs::serviceHistogram("service.compile_ms").record(512.0);
    const std::string text = obs::prometheusText();
    EXPECT_NE(text.find("geyser_compile_seconds_bucket{le=\"1.024\"} 1\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("geyser_compile_seconds_sum 0.512\n"),
              std::string::npos);
    EXPECT_NE(text.find("geyser_compile_seconds_count 1\n"),
              std::string::npos);
    // The internal ms name appears only in the HELP line, never as a
    // sample series.
    EXPECT_EQ(text.find("geyser_service_compile_ms"), std::string::npos);
}

TEST_F(PrometheusTest, ExpositionGrammarIsWellFormed)
{
    obs::serviceCounter("service.done").add(2);
    obs::serviceGauge("service.queue_depth").set(1.0);
    obs::serviceHistogram("service.e2e_ms").record(10.0);
    for (const std::string &line : lines(obs::prometheusText())) {
        if (line.empty())
            continue;
        if (line[0] == '#') {
            EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                        line.rfind("# TYPE ", 0) == 0)
                << line;
            continue;
        }
        // Every sample line is `<name>[{labels}] <value>`.
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
        const std::string series = line.substr(0, space);
        EXPECT_EQ(series.rfind("geyser_", 0), 0u) << line;
        const size_t open = series.find('{');
        if (open != std::string::npos) {
            EXPECT_EQ(series.back(), '}') << line;
        }
    }
}

TEST_F(PrometheusTest, SnapshotIncludesRingDropCounter)
{
    // The ring's drop counter is injected into every snapshot so a
    // scrape can alert on recorder overflow.
    const std::string text = obs::prometheusText();
    EXPECT_NE(text.find("geyser_obs_events_dropped_total 0\n"),
              std::string::npos)
        << text;
}

}  // namespace
}  // namespace geyser
