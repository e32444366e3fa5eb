/**
 * @file
 * Backend dispatch: picks the best compiled-in backend the host CPU
 * supports, once, at first use — overridable with GEYSER_BACKEND and,
 * for tests, ScopedBackend. Compiled with the default (portable)
 * flags; the only ISA-specific code it touches is behind the CPUID
 * checks below.
 *
 * GEYSER_HAVE_AVX2 / GEYSER_HAVE_AVX512 are defined by the build when
 * the corresponding TU is compiled in (x86-64, GCC, and the compiler
 * accepts the flags); elsewhere only the scalar backend exists.
 */
#include "linalg/kernels/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

namespace geyser {
namespace kernels {

#if defined(GEYSER_HAVE_AVX2)
const ComputeBackend &avx2Backend();
#endif
#if defined(GEYSER_HAVE_AVX512)
const ComputeBackend &avx512Backend();
#endif

namespace {

/** One ISA: its backend's accessor and the CPUID probe for it. */
struct Isa
{
    const char *name;
    const ComputeBackend &(*backend)();  ///< Null when its TU is not built.
    bool (*hostSupports)();
};

/**
 * Every ISA, best first: "auto" takes the first usable entry, and a
 * named request falls down the list (never up) to the first usable one.
 */
const Isa kIsas[] = {
#if defined(GEYSER_HAVE_AVX512)
    {"avx512", avx512Backend,
     [] {
         return __builtin_cpu_supports("avx512f") &&
                __builtin_cpu_supports("avx512dq") &&
                __builtin_cpu_supports("avx512vl");
     }},
#else
    {"avx512", nullptr, nullptr},
#endif
#if defined(GEYSER_HAVE_AVX2)
    {"avx2", avx2Backend,
     [] {
         return __builtin_cpu_supports("avx2") &&
                __builtin_cpu_supports("fma");
     }},
#else
    {"avx2", nullptr, nullptr},
#endif
    {"scalar", scalarBackend, [] { return true; }},
};

/** The ISA's backend if it is built and the host can run it. */
const ComputeBackend *
usable(const Isa &isa)
{
    return isa.backend && isa.hostSupports() ? &isa.backend() : nullptr;
}

/** Best usable backend on this host (the "auto" resolution). */
const ComputeBackend *
bestBackend()
{
    for (const Isa &isa : kIsas)
        if (const ComputeBackend *backend = usable(isa))
            return backend;
    return &scalarBackend();
}

/**
 * Resolve a name down the fallback chain. `honoured` reports whether
 * the exact request could be served ("auto"/unknown count as honoured
 * by the dispatch default).
 */
const ComputeBackend *
resolveOrFallback(const std::string &name, bool *honoured)
{
    bool named = false, exact = true;
    for (const Isa &isa : kIsas) {
        named = named || name == isa.name;
        if (!named)
            continue;
        if (const ComputeBackend *backend = usable(isa)) {
            if (honoured)
                *honoured = exact;
            return backend;
        }
        exact = false;
    }
    if (honoured)
        *honoured = true;
    return bestBackend();
}

std::atomic<const ComputeBackend *> &
activeSlot()
{
    static std::atomic<const ComputeBackend *> slot{nullptr};
    return slot;
}

std::string &
requestedSlot()
{
    static std::string requested;
    return requested;
}

std::once_flag &
initFlag()
{
    static std::once_flag flag;
    return flag;
}

void
initDispatch()
{
    const char *env = std::getenv("GEYSER_BACKEND");
    const std::string name = env && *env ? env : "auto";
    requestedSlot() = name;
    activeSlot().store(resolveOrFallback(name, nullptr),
                       std::memory_order_release);
}

void
ensureInit()
{
    std::call_once(initFlag(), initDispatch);
}

}  // namespace

const ComputeBackend &
active()
{
    ensureInit();
    return *activeSlot().load(std::memory_order_acquire);
}

const char *
activeName()
{
    return active().name;
}

const std::string &
requestedName()
{
    ensureInit();
    return requestedSlot();
}

const ComputeBackend &
resolveBackend(const std::string &name)
{
    return *resolveOrFallback(name, nullptr);
}

bool
setActive(const std::string &name)
{
    ensureInit();
    bool honoured = false;
    const ComputeBackend *backend = resolveOrFallback(name, &honoured);
    activeSlot().store(backend, std::memory_order_release);
    return honoured;
}

std::vector<BackendInfo>
availableBackends()
{
    std::vector<BackendInfo> out;
    for (const Isa &isa : kIsas) {
        BackendInfo info;
        info.name = isa.name;
        info.compiled = isa.backend != nullptr;
        info.supported = info.compiled && isa.hostSupports();
        info.backend = usable(isa);
        out.push_back(info);
    }
    return out;
}

ScopedBackend::ScopedBackend(const std::string &name)
    : previous_(&active()), honoured_(setActive(name))
{
}

ScopedBackend::~ScopedBackend()
{
    activeSlot().store(previous_, std::memory_order_release);
}

}  // namespace kernels
}  // namespace geyser
