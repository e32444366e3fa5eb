/**
 * @file
 * Tests for the checked environment-knob helpers (common/env.hpp):
 * unset/empty variables fall back, valid values parse, and garbage,
 * trailing junk, or out-of-range values raise ValidationError naming
 * the variable instead of degrading silently.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "cache/result_cache.hpp"
#include "common/env.hpp"
#include "common/error.hpp"

using namespace geyser;

namespace {

constexpr const char *kVar = "GEYSER_TEST_ENV_KNOB";

struct EnvGuard
{
    ~EnvGuard() { ::unsetenv(kVar); }
    void set(const char *value) { ::setenv(kVar, value, 1); }
};

/** The error must name the variable so the fix is obvious. */
template <typename Fn>
void
expectNamedFailure(Fn fn)
{
    try {
        fn();
        FAIL() << "expected ValidationError";
    } catch (const ValidationError &e) {
        EXPECT_NE(std::string(e.what()).find(kVar), std::string::npos)
            << e.what();
    }
}

}  // namespace

TEST(EnvInt, UnsetAndEmptyFallBack)
{
    EnvGuard guard;
    EXPECT_EQ(env::envInt(kVar, 42, 0, 100), 42);
    guard.set("");
    EXPECT_EQ(env::envInt(kVar, 42, 0, 100), 42);
}

TEST(EnvInt, ParsesValidValues)
{
    EnvGuard guard;
    guard.set("7");
    EXPECT_EQ(env::envInt(kVar, 0, 0, 100), 7);
    guard.set("0");
    EXPECT_EQ(env::envInt(kVar, 5, 0, 100), 0);
    guard.set("100");
    EXPECT_EQ(env::envInt(kVar, 0, 0, 100), 100);
    guard.set("-3");
    EXPECT_EQ(env::envInt(kVar, 0, -10, 10), -3);
}

TEST(EnvInt, RejectsGarbageTrailingJunkAndRange)
{
    EnvGuard guard;
    for (const char *bad : {"abc", "12abc", "1.5", " 7", "7 ", "1e3",
                            "0x10", "99999999999999999999"}) {
        guard.set(bad);
        expectNamedFailure([&] { env::envInt(kVar, 0, 0, 100); });
    }
    guard.set("101");
    expectNamedFailure([&] { env::envInt(kVar, 0, 0, 100); });
    guard.set("-1");
    expectNamedFailure([&] { env::envInt(kVar, 0, 0, 100); });
}

TEST(EnvDouble, UnsetAndEmptyFallBack)
{
    EnvGuard guard;
    EXPECT_DOUBLE_EQ(env::envDouble(kVar, 0.5, 0.0, 1.0), 0.5);
    guard.set("");
    EXPECT_DOUBLE_EQ(env::envDouble(kVar, 0.5, 0.0, 1.0), 0.5);
}

TEST(EnvDouble, ParsesValidValues)
{
    EnvGuard guard;
    guard.set("0.25");
    EXPECT_DOUBLE_EQ(env::envDouble(kVar, 0.0, 0.0, 1.0), 0.25);
    guard.set("1e-3");
    EXPECT_DOUBLE_EQ(env::envDouble(kVar, 0.0, 0.0, 1.0), 1e-3);
    guard.set("1");
    EXPECT_DOUBLE_EQ(env::envDouble(kVar, 0.0, 0.0, 1.0), 1.0);
}

TEST(EnvDouble, RejectsGarbageNonFiniteAndRange)
{
    EnvGuard guard;
    for (const char *bad : {"abc", "1.5x", "nan", "inf", "1e999"}) {
        guard.set(bad);
        expectNamedFailure([&] { env::envDouble(kVar, 0.0, 0.0, 1e6); });
    }
    guard.set("2.0");
    expectNamedFailure([&] { env::envDouble(kVar, 0.0, 0.0, 1.0); });
    guard.set("-0.1");
    expectNamedFailure([&] { env::envDouble(kVar, 0.0, 0.0, 1.0); });
}

TEST(EnvKnobs, WiredKnobsGoThroughTheCheckedHelpers)
{
    // Every wired knob must reject garbage loudly; each is read at its
    // use site, so this exercises the shared helper the way
    // bench/common.cpp and cache/result_cache.cpp do.
    ::setenv("GEYSER_TRAJECTORIES", "many", 1);
    EXPECT_THROW(env::envInt("GEYSER_TRAJECTORIES", 200, 1, 10'000'000),
                 ValidationError);
    ::unsetenv("GEYSER_TRAJECTORIES");
    ::setenv("GEYSER_CACHE_MAX_MB", "-5", 1);
    EXPECT_THROW(env::envInt("GEYSER_CACHE_MAX_MB", 0, 0, 1'000'000'000),
                 ValidationError);
    ::unsetenv("GEYSER_CACHE_MAX_MB");
    ::setenv("GEYSER_KERNEL_SPEEDUP_FLOOR", "fast", 1);
    EXPECT_THROW(env::envDouble("GEYSER_KERNEL_SPEEDUP_FLOOR", 0.0, 0.0,
                                1e6),
                 ValidationError);
    ::unsetenv("GEYSER_KERNEL_SPEEDUP_FLOOR");
    // GEYSER_NO_CACHE takes 0 or 1: a "yes" must not leave it on.
    ::setenv("GEYSER_NO_CACHE", "yes", 1);
    EXPECT_THROW(cache::CacheConfig::fromEnv(), ValidationError);
    ::unsetenv("GEYSER_NO_CACHE");
}
