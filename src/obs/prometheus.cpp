#include "obs/prometheus.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "linalg/kernels/backend.hpp"

namespace geyser {
namespace obs {

namespace {

/** Where one internal metric lands in the exposition. */
struct SeriesTarget
{
    std::string family;  ///< Prometheus family name (no suffix).
    std::string labels;  ///< Rendered label set ("" or `key="value"`).
    double scale = 1.0;  ///< Applied to values/edges (ms -> seconds).
};

std::string
sanitize(const std::string &internal)
{
    std::string out = "geyser_";
    for (const char c : internal) {
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9'))
            out += c;
        else if (c == '.' || c == '-' || c == '_')
            out += '_';
    }
    return out;
}

/** Explicit service-family names; everything else sanitizes generically. */
SeriesTarget
targetFor(const std::string &internal)
{
    static const std::map<std::string, SeriesTarget> kTable = {
        {"service.done", {"geyser_jobs_total", "outcome=\"done\"", 1.0}},
        {"service.failed", {"geyser_jobs_total", "outcome=\"failed\"", 1.0}},
        {"service.cancelled",
         {"geyser_jobs_total", "outcome=\"cancelled\"", 1.0}},
        {"service.expired",
         {"geyser_jobs_total", "outcome=\"expired\"", 1.0}},
        {"service.rejected",
         {"geyser_jobs_total", "outcome=\"rejected\"", 1.0}},
        {"service.submitted", {"geyser_jobs_submitted_total", "", 1.0}},
        {"service.cache_hit", {"geyser_cache_hits_total", "", 1.0}},
        {"service.requests", {"geyser_requests_total", "", 1.0}},
        {"service.queue_depth", {"geyser_queue_depth", "", 1.0}},
        {"service.in_flight", {"geyser_jobs_in_flight", "", 1.0}},
        {"service.queue_wait_ms", {"geyser_queue_wait_seconds", "", 1e-3}},
        {"service.compile_ms", {"geyser_compile_seconds", "", 1e-3}},
        {"service.e2e_ms", {"geyser_e2e_seconds", "", 1e-3}},
        // Fleet compilation: batch jobs, skeleton groups, and the
        // re-bind/fallback split (src/fleet).
        {"fleet.jobs", {"geyser_fleet_jobs_total", "", 1.0}},
        {"fleet.groups", {"geyser_fleet_groups_total", "", 1.0}},
        {"fleet.rebound",
         {"geyser_fleet_members_total", "path=\"rebound\"", 1.0}},
        {"fleet.fallback",
         {"geyser_fleet_members_total", "path=\"fallback\"", 1.0}},
        {"fleet.replay_fallbacks",
         {"geyser_fleet_replay_fallbacks_total", "", 1.0}},
        {"fleet.plan_hit",
         {"geyser_fleet_plans_total", "outcome=\"hit\"", 1.0}},
        {"fleet.plan_store",
         {"geyser_fleet_plans_total", "outcome=\"store\"", 1.0}},
        {"fleet.verify_failure",
         {"geyser_fleet_verify_failures_total", "", 1.0}},
    };
    const auto it = kTable.find(internal);
    if (it != kTable.end())
        return it->second;
    // Per-channel noise events from the trajectory simulator
    // ("sim.noise.<channel>_events", '-' written as '_'): one family,
    // the channel as a label. Channel names (sim/noise.hpp) are
    // kebab-case, so '_' -> '-' recovers them.
    const std::string prefix = "sim.noise.", suffix = "_events";
    if (internal.size() > prefix.size() + suffix.size() &&
        internal.starts_with(prefix) && internal.ends_with(suffix)) {
        std::string channel =
            internal.substr(prefix.size(), internal.size() - prefix.size() -
                                               suffix.size());
        std::replace(channel.begin(), channel.end(), '_', '-');
        return {"geyser_sim_noise_events_total",
                "channel=\"" + channel + "\"", 1.0};
    }
    return {sanitize(internal), "", 1.0};
}

std::string
formatValue(double v)
{
    // Integers render without a fraction; everything else shortest-ish.
    if (v == static_cast<long long>(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
seriesLine(const std::string &family, const std::string &suffix,
           const std::string &labels, double value)
{
    std::string line = family + suffix;
    if (!labels.empty())
        line += "{" + labels + "}";
    line += ' ';
    line += formatValue(value);
    line += '\n';
    return line;
}

void
header(std::string &out, const std::string &family, const char *type,
       const std::string &internal)
{
    out += "# HELP " + family + " geyser metric " + internal + "\n";
    out += "# TYPE " + family + " " + type + "\n";
}

}  // namespace

std::string
prometheusText(const MetricsSnapshot &snapshot)
{
    std::string out;

    // Counters, grouped by target family so labelled variants of one
    // family (geyser_jobs_total{outcome=...}) share one header.
    struct CounterRow
    {
        std::string internal;
        std::string labels;
        long value = 0;
    };
    std::vector<std::pair<std::string, std::vector<CounterRow>>> families;
    auto familyRows = [&](const std::string &family)
        -> std::vector<CounterRow> & {
        for (auto &f : families)
            if (f.first == family)
                return f.second;
        families.emplace_back(family, std::vector<CounterRow>{});
        return families.back().second;
    };
    for (const auto &[name, value] : snapshot.counters) {
        const SeriesTarget target = targetFor(name);
        // Mapped families carry their _total suffix already; only the
        // generically sanitized names need it appended.
        std::string family = target.family;
        const std::string suffix = "_total";
        if (family.size() < suffix.size() ||
            family.compare(family.size() - suffix.size(), suffix.size(),
                           suffix) != 0)
            family += suffix;
        familyRows(family).push_back({name, target.labels, value});
    }
    for (const auto &[family, rows] : families) {
        header(out, family, "counter", rows.front().internal);
        for (const auto &row : rows)
            out += seriesLine(family, "", row.labels,
                              static_cast<double>(row.value));
    }

    // Gauges.
    long cacheHits = -1, jobsDone = -1;
    for (const auto &[name, value] : snapshot.counters) {
        if (name == "service.cache_hit")
            cacheHits = value;
        else if (name == "service.done")
            jobsDone = value;
    }
    for (const auto &[name, value] : snapshot.gauges) {
        const SeriesTarget target = targetFor(name);
        header(out, target.family, "gauge", name);
        out += seriesLine(target.family, "", target.labels,
                          value * target.scale);
    }
    if (jobsDone > 0 && cacheHits >= 0) {
        header(out, "geyser_cache_hit_ratio", "gauge",
               "service.cache_hit / service.done");
        out += seriesLine("geyser_cache_hit_ratio", "", "",
                          static_cast<double>(cacheHits) /
                              static_cast<double>(jobsDone));
    }
    // Info-style gauge: which SIMD compute backend this process
    // dispatched to (constant 1, identity in the label).
    header(out, "geyser_backend_info", "gauge", "kernels.backend");
    out += seriesLine("geyser_backend_info", "",
                      std::string("backend=\"") + kernels::activeName() +
                          "\"",
                      1.0);

    // Histograms: cumulative le-buckets up to the highest occupied
    // bucket, then +Inf, _sum, _count.
    for (const auto &[name, snap] : snapshot.histograms) {
        const SeriesTarget target = targetFor(name);
        header(out, target.family, "histogram", name);
        int highest = -1;
        for (size_t i = 0; i < snap.buckets.size(); ++i)
            if (snap.buckets[i] > 0)
                highest = static_cast<int>(i);
        long cumulative = 0;
        for (int i = 0; i <= highest; ++i) {
            cumulative += snap.buckets[static_cast<size_t>(i)];
            const double le =
                Histogram::bucketUpperBound(i) * target.scale;
            out += seriesLine(target.family, "_bucket",
                              "le=\"" + formatValue(le) + "\"",
                              static_cast<double>(cumulative));
        }
        out += seriesLine(target.family, "_bucket", "le=\"+Inf\"",
                          static_cast<double>(snap.count));
        out += seriesLine(target.family, "_sum", "",
                          snap.sum * target.scale);
        out += seriesLine(target.family, "_count", "",
                          static_cast<double>(snap.count));
    }
    return out;
}

std::string
prometheusText()
{
    return prometheusText(metricsSnapshot());
}

}  // namespace obs
}  // namespace geyser
