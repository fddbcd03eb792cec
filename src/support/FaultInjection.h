//===- support/FaultInjection.h - Named, armable failure points --*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the serving runtime's failure paths.
///
/// Production code guards a risky operation with a *named* fault point:
///
/// \code
///   if (support::faults::shouldFail("snapshot_write"))
///     return false; // The injected failure, shaped like the real one.
/// \endcode
///
/// Points are disarmed by default and the guard then costs a single
/// relaxed atomic load — no lock, no lookup, no RNG draw — so shipping
/// the checks in release builds is free. Tests (and operators doing game
/// days) arm points programmatically with arm(), or through the
/// environment:
///
/// \code
///   PROM_FAULTS=snapshot_write:0.5,refresh_throw ./server
///   PROM_FAULTS_SEED=42 ...
/// \endcode
///
/// where each comma-separated entry is `point[:probability]` (probability
/// defaults to 1.0). Firing decisions come from one seeded xoshiro
/// stream, so a run with a fixed seed replays the exact same failure
/// pattern — fault-injection tests are deterministic, not flaky.
///
/// The fault-point catalog (names are plain strings; the catalog is the
/// set of call sites, enforced by FaultInjectionTest):
///
///   snapshot_write    ByteWriter::writeFile fails outright (no file).
///   snapshot_truncate ByteWriter::writeFile writes a torn prefix of the
///                     file yet reports success (a power-loss torn write
///                     the process never saw; the checksummed load is
///                     what catches it).
///   snapshot_corrupt  ByteWriter::writeFile flips one payload byte after
///                     checksumming (silent media corruption).
///   snapshot_rename   commitLatestPointer's atomic rename fails; the
///                     previous `latest` pointer survives.
///   snapshot_load     ByteReader::loadFile fails as if the file were
///                     unreadable/corrupt, so loadLatestSnapshot moves on
///                     to the next older generation. Every load reads its
///                     file once, so armed at probability 0 the point's
///                     drawCount() counts file reads.
///   refresh_throw     RecalibrationController's refresh attempt throws
///                     before touching the engine.
///   refresh_stall     RecalibrationController's refresh attempt sleeps
///                     ~50ms first (a stalled refresh; serving continues).
///   batcher_stall     AssessmentService's batcher sleeps ~2ms before the
///                     engine call (a slow engine; overload control must
///                     shed instead of queueing without bound).
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_FAULTINJECTION_H
#define PROM_SUPPORT_FAULTINJECTION_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace prom {
namespace support {
namespace faults {

namespace detail {
/// True while at least one point is armed; the whole fast path.
extern std::atomic<bool> AnyArmed;
/// Registry lookup + seeded probability draw; only reached while armed.
bool shouldFailSlow(const char *Point);
} // namespace detail

/// Decides whether the fault point \p Point fires at this call site.
/// Disarmed (the default, and the production state): one relaxed atomic
/// load, no side effects. Armed: draws from the seeded stream and counts
/// the decision.
inline bool shouldFail(const char *Point) {
  if (!detail::AnyArmed.load(std::memory_order_relaxed))
    return false;
  return detail::shouldFailSlow(Point);
}

/// Arms \p Point to fire with \p Probability in [0, 1] (clamped; 1 fires
/// every time without consuming a draw, so prob-1 points are exactly
/// deterministic regardless of seed).
void arm(const std::string &Point, double Probability = 1.0);

/// Disarms \p Point (no-op when not armed).
void disarm(const std::string &Point);

/// Disarms every point and resets all counters; the fast path goes back
/// to its single-load cost. Tests call this in teardown.
void disarmAll();

/// Reseeds the shared decision stream (also clears the cached state of
/// the previous seed). Armed probabilities and counters are untouched.
void seed(uint64_t Seed);

/// Parses PROM_FAULTS / PROM_FAULTS_SEED from the environment and arms
/// accordingly (run automatically at startup). Returns how many points
/// the variable armed; a missing/empty variable arms nothing.
size_t armFromEnv();

/// Times \p Point fired (0 when never armed or never hit).
uint64_t fireCount(const std::string &Point);

/// Times \p Point was consulted while armed.
uint64_t drawCount(const std::string &Point);

/// The currently armed points and their probabilities.
std::vector<std::pair<std::string, double>> armedPoints();

} // namespace faults
} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_FAULTINJECTION_H
