// Build identity: version string, runtime-selected SIMD backend, default
// seed schema. One definition feeds the `version` service verb, the
// `--version` flag on both front ends, and the serve startup banner, so
// they can never disagree about what binary is running.

#ifndef UOCQA_BASE_VERSION_H_
#define UOCQA_BASE_VERSION_H_

#include <string>

namespace uocqa {

/// The FPRAS seed schema — the trial RNG layout the estimator implements
/// (union seeds keyed by cell and group, one stream per trial, see
/// docs/ARCHITECTURE.md). Reported by the version line and named by
/// FprasConfig and Request, so recorded runs say which layout produced
/// them.
inline constexpr int kDefaultSeedSchema = 3;

/// The bare semantic version, e.g. "0.1.0" (from the CMake project
/// version; "unknown" if the build did not inject one).
std::string VersionString();

/// Protocol-payload form: `version=<v> simd=<backend> seed_schema=<n>`.
/// The SIMD backend is the one `simd::Active()` selected at startup —
/// reported here because it is otherwise chosen silently.
std::string VersionFields();

/// Human-oriented one-line banner for startup logs, e.g.
/// `uocqa 0.1.0 (simd=avx2, seed_schema=3)`.
std::string VersionBanner();

}  // namespace uocqa

#endif  // UOCQA_BASE_VERSION_H_
