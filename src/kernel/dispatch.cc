#include "kernel/dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mbi::kernel {
namespace {

constexpr KernelOps kScalarOps = {Isa::kScalar, "scalar", MatchRowsScalar,
                                  BoundsBatchScalar, SummaryBoundsScalar};
#if MBI_KERNEL_BUILD_AVX2
constexpr KernelOps kAvx2Ops = {Isa::kAvx2, "avx2", MatchRowsAvx2,
                                BoundsBatchAvx2, SummaryBoundsAvx2};
#endif
#if MBI_KERNEL_BUILD_AVX512
constexpr KernelOps kAvx512Ops = {Isa::kAvx512, "avx512", MatchRowsAvx512,
                                  BoundsBatchAvx512, SummaryBoundsAvx512};
#endif
#if MBI_KERNEL_BUILD_NEON
constexpr KernelOps kNeonOps = {Isa::kNeon, "neon", MatchRowsNeon,
                                BoundsBatchNeon, SummaryBoundsNeon};
#endif

bool CpuSupports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if MBI_KERNEL_BUILD_AVX2
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#endif
#if MBI_KERNEL_BUILD_AVX512
    case Isa::kAvx512:
      // The 512-bit match kernel leans on VPOPCNTDQ and the summary bound
      // kernel on AVX-512BW byte arithmetic; hosts without both fall back
      // to the AVX2 family instead of a slower emulation.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
#endif
#if MBI_KERNEL_BUILD_NEON
    case Isa::kNeon:
      return true;  // Architectural baseline on AArch64.
#endif
    default:
      return false;
  }
}

/// The chosen-ISA table, or the widest supported fallback when the request
/// cannot run on this build/host.
const KernelOps* OpsForClamped(Isa isa);

const KernelOps* OpsFor(Isa isa) {
  if (!CpuSupports(isa)) return nullptr;
  switch (isa) {
    case Isa::kScalar:
      return &kScalarOps;
#if MBI_KERNEL_BUILD_AVX2
    case Isa::kAvx2:
      return &kAvx2Ops;
#endif
#if MBI_KERNEL_BUILD_AVX512
    case Isa::kAvx512:
      return &kAvx512Ops;
#endif
#if MBI_KERNEL_BUILD_NEON
    case Isa::kNeon:
      return &kNeonOps;
#endif
    default:
      return nullptr;
  }
}

const KernelOps* OpsForClamped(Isa isa) {
  const KernelOps* ops = OpsFor(isa);
  if (ops == nullptr) ops = OpsFor(WidestSupportedIsa());
  return ops != nullptr ? ops : &kScalarOps;
}

/// cpuid default, narrowed by MBI_FORCE_ISA when set (unknown values are
/// reported once and ignored; unsupported requests clamp to the widest
/// supported path so a forced-ISA CI sweep runs everywhere).
const KernelOps* Resolve() {
  Isa isa = WidestSupportedIsa();
  const char* env = std::getenv("MBI_FORCE_ISA");
  if (env != nullptr && *env != '\0') {
    Isa forced;
    if (ParseIsaName(env, &forced)) {
      isa = OpsForClamped(forced)->isa;
    } else {
      std::fprintf(stderr,
                   "mbi: ignoring unknown MBI_FORCE_ISA=%s "
                   "(want scalar|avx2|avx512|neon)\n",
                   env);
    }
  }
  return OpsForClamped(isa);
}

std::atomic<const KernelOps*> g_active{nullptr};

}  // namespace

const KernelOps& ActiveKernels() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // Benign race: concurrent first calls resolve to the same table.
    ops = Resolve();
    g_active.store(ops, std::memory_order_release);
  }
  return *ops;
}

Isa ActiveIsa() { return ActiveKernels().isa; }

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

bool IsaSupported(Isa isa) { return OpsFor(isa) != nullptr; }

Isa WidestSupportedIsa() {
#if MBI_KERNEL_BUILD_AVX512
  if (CpuSupports(Isa::kAvx512)) return Isa::kAvx512;
#endif
#if MBI_KERNEL_BUILD_AVX2
  if (CpuSupports(Isa::kAvx2)) return Isa::kAvx2;
#endif
#if MBI_KERNEL_BUILD_NEON
  if (CpuSupports(Isa::kNeon)) return Isa::kNeon;
#endif
  return Isa::kScalar;
}

const KernelOps* KernelsFor(Isa isa) { return OpsFor(isa); }

bool ParseIsaName(const char* name, Isa* out) {
  if (name == nullptr || out == nullptr) return false;
  auto equals_ci = [](const char* a, const char* b) {
    for (; *a != '\0' && *b != '\0'; ++a, ++b) {
      if ((*a | 0x20) != (*b | 0x20)) return false;
    }
    return *a == '\0' && *b == '\0';
  };
  if (equals_ci(name, "scalar")) {
    *out = Isa::kScalar;
  } else if (equals_ci(name, "avx2")) {
    *out = Isa::kAvx2;
  } else if (equals_ci(name, "avx512")) {
    *out = Isa::kAvx512;
  } else if (equals_ci(name, "neon")) {
    *out = Isa::kNeon;
  } else {
    return false;
  }
  return true;
}

Isa ForceIsa(Isa isa) {
  const KernelOps* ops = OpsForClamped(isa);
  g_active.store(ops, std::memory_order_release);
  return ops->isa;
}

void ResetIsaForTesting() {
  g_active.store(Resolve(), std::memory_order_release);
}

}  // namespace mbi::kernel
