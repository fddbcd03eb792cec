//===- serve/DetectorRegistry.h - Multi-tenant detector fleet ----*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant detector fleet: many (task, model) detectors behind
/// one process, loaded and evicted as capacity demands.
///
/// A registry entry ("tenant") pairs an externally owned underlying model
/// with a PromConfig and a snapshot rotation directory. The tenant's
/// calibrated PromClassifier is *managed state*: it enters the registry
/// either via installDetector() (first boot, freshly calibrated) or by
/// snapshot-backed lazy load on first acquire() — loadLatestSnapshot()
/// over the tenant's rotation directory, exactly what a restarting
/// single-tenant server does. Under a configured memory budget the
/// registry evicts least-recently-used, unpinned tenants: each eviction
/// rotates a fresh snapshot generation first (rotateSnapshot(), which
/// also numbers the tenant controller's generations), so the evict ->
/// reload cycle round-trips through the checksummed snapshot format and
/// the reloaded detector serves bit-identical verdicts (the snapshot
/// contract, fleet-level — test-enforced by FleetTest).
///
/// acquire() hands out RAII leases that pin a tenant in memory; the
/// AssessmentService's tenant-grouped batcher holds one lease per batch,
/// so a tenant is never evicted mid-assessment. Tenants may additionally
/// carry their own WindowedDriftMonitor + RecalibrationController
/// (enableRecalibration()), created at load and shut down before each
/// eviction; every controller funnels its refresh work through the one
/// global support::ThreadPool, so N tenants do not mean N thread pools.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SERVE_DETECTORREGISTRY_H
#define PROM_SERVE_DETECTORREGISTRY_H

#include "core/Detector.h"
#include "serve/RecalibrationController.h"
#include "serve/WindowedDriftMonitor.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace prom {
namespace serve {

/// What a tenant is made of (the managed detector is derived state).
struct TenantSpec {
  /// The tenant's underlying trained model; externally owned and must
  /// outlive the registry. Distinct tenants may share one model.
  const ml::Classifier *Model = nullptr;
  /// Detector knobs used when (re)constructing the tenant's engine.
  PromConfig Cfg;
  /// Snapshot rotation directory (snapshot.N.bin + `latest`). Lazy loads
  /// resolve from here and evictions rotate into here. Empty disables
  /// persistence — the tenant then can never be evicted, only destroyed
  /// with the registry.
  std::string SnapshotDir;
};

/// Fleet-level knobs.
struct RegistryConfig {
  /// Budget over the summed memoryBytes() of loaded detectors; exceeding
  /// it evicts LRU unpinned snapshot-backed tenants until the fleet fits
  /// (or nothing evictable remains). 0 = unbounded.
  size_t MemoryBudgetBytes = 0;
};

/// Monotonic counters of the fleet (consistent snapshot).
struct RegistryStats {
  uint64_t Hits = 0;          ///< acquire() served an already-loaded tenant.
  uint64_t Loads = 0;         ///< Snapshot-backed lazy loads.
  uint64_t LoadFailures = 0;  ///< acquire() found no loadable snapshot.
  uint64_t Installs = 0;      ///< Freshly calibrated detectors handed in.
  uint64_t Evictions = 0;     ///< Detectors unloaded under the budget.
  uint64_t EvictionSaveFailures = 0; ///< Evictions skipped: rotation failed.
  uint64_t SnapshotsSaved = 0;       ///< Generations rotated (evict/save()).
  size_t RegisteredTenants = 0;      ///< Known tenant ids.
  size_t LoadedTenants = 0;          ///< Tenants currently in memory.
  size_t MemoryBytes = 0;            ///< Summed loaded-detector estimate.
};

/// The multi-tenant fleet; see the file comment.
class DetectorRegistry {
  struct Entry;

public:
  /// Constructs an empty fleet under \p Cfg.
  explicit DetectorRegistry(RegistryConfig Cfg = RegistryConfig());
  ~DetectorRegistry(); ///< Shuts down every tenant controller.

  DetectorRegistry(const DetectorRegistry &) = delete; ///< Owns tenants.
  /// Non-copyable: owns the tenant fleet.
  DetectorRegistry &operator=(const DetectorRegistry &) = delete;

  /// RAII pin on a loaded tenant: while any lease is live the tenant
  /// cannot be evicted. Obtained from acquire(); an empty lease (operator
  /// bool false) means the tenant is unknown or could not be loaded.
  class Lease {
  public:
    Lease() = default; ///< Empty (no tenant pinned).
    ~Lease();          ///< Unpins.
    Lease(Lease &&O) noexcept;            ///< Transfers the pin.
    Lease &operator=(Lease &&O) noexcept; ///< Transfers the pin.
    Lease(const Lease &) = delete;        ///< Pins are move-only.
    /// Pins are move-only.
    Lease &operator=(const Lease &) = delete;

    /// True when a tenant is pinned.
    explicit operator bool() const { return E != nullptr; }
    /// The pinned tenant's engine (null on an empty lease).
    PromClassifier *engine() const;
    /// The pinned tenant's drift monitor (null without recalibration).
    WindowedDriftMonitor *monitor() const;
    /// The pinned tenant's recalibration controller (null without
    /// recalibration).
    RecalibrationController *controller() const;
    /// The pinned tenant id ("" on an empty lease).
    const std::string &tenant() const;
    /// Unpins early (before destruction); the lease becomes empty. No-op
    /// on an empty lease.
    void release();

  private:
    friend class DetectorRegistry;
    Lease(DetectorRegistry *R, std::shared_ptr<Entry> E)
        : R(R), E(std::move(E)) {}

    DetectorRegistry *R = nullptr;
    std::shared_ptr<Entry> E;
  };

  /// Registers tenant \p Id with \p Spec (cold — nothing is loaded yet).
  /// Returns false on a duplicate id or a null model.
  bool registerTenant(const std::string &Id, TenantSpec Spec);

  /// Hands the registry a freshly calibrated detector for registered
  /// tenant \p Id (the first-boot path, before any snapshot exists). The
  /// detector must wrap the tenant's registered model. Returns false for
  /// an unknown id, an already-loaded tenant, or an uncalibrated
  /// detector — \p Detector is only moved from on success, so a failed
  /// install leaves the caller owning it. May evict other tenants to fit
  /// the budget.
  bool installDetector(const std::string &Id,
                       std::unique_ptr<PromClassifier> &&Detector);

  /// Arms per-tenant self-recalibration: at every (re)load the tenant
  /// gets its own WindowedDriftMonitor (under \p MonitorCfg) and
  /// RecalibrationController (under \p RecalCfg; an empty
  /// RecalCfg.SnapshotDir inherits the tenant's rotation directory), torn
  /// down again before eviction. All controllers share the one global
  /// ThreadPool through the refresh path. Returns false for an unknown
  /// id. Takes effect immediately when the tenant is already loaded.
  bool enableRecalibration(const std::string &Id,
                           DriftWindowConfig MonitorCfg = DriftWindowConfig(),
                           RecalibrationConfig RecalCfg = RecalibrationConfig());

  /// Pins tenant \p Id, lazily loading it from its latest snapshot
  /// generation when cold (the restart path, per tenant). Returns an
  /// empty lease for an unknown id or when no snapshot loads. May evict
  /// other tenants to fit the budget.
  Lease acquire(const std::string &Id);

  /// Rotates a snapshot generation for loaded tenant \p Id now (the
  /// manual durability point; evictions do this implicitly). Returns
  /// false for an unknown/cold tenant, a persistence-disabled tenant, or
  /// an I/O failure.
  bool save(const std::string &Id);

  /// Saves and unloads tenant \p Id (controller shut down first, snapshot
  /// rotated, engine destroyed). Returns false for an unknown or cold
  /// tenant, a pinned tenant, or when the snapshot rotation fails (the
  /// detector then stays loaded — eviction never discards unsaved state).
  bool evict(const std::string &Id);

  /// Buffers one relabeled sample with tenant \p Id's recalibration
  /// controller. Returns false for an unknown/cold tenant or one without
  /// enableRecalibration().
  bool submitLabeled(const std::string &Id, data::Sample S);

  /// True while tenant \p Id's detector is in memory.
  bool isLoaded(const std::string &Id) const;

  /// Registered tenant ids, ascending.
  std::vector<std::string> tenants() const;

  /// Summed memoryBytes() estimate of the loaded detectors.
  size_t memoryBytes() const;

  RegistryStats stats() const; ///< Consistent counter snapshot.
  const RegistryConfig &config() const { return Cfg; } ///< The knobs.

private:
  /// Loads \p E from its latest snapshot generation (caller holds Mutex).
  bool loadLocked(Entry &E);
  /// Rotates a snapshot generation for loaded \p E (caller holds Mutex).
  bool saveLocked(Entry &E);
  /// Shuts down \p E's controller and destroys its loaded state (caller
  /// holds Mutex; the entry must be unpinned and already saved).
  void unloadLocked(Entry &E);
  /// Creates \p E's monitor + controller when armed (caller holds Mutex,
  /// E loaded).
  void armRecalibrationLocked(Entry &E);
  /// Evicts LRU unpinned snapshot-backed tenants until the budget fits,
  /// never touching \p Keep (caller holds Mutex).
  void enforceBudgetLocked(const Entry *Keep);
  /// Recomputes \p E's memory estimate (caller holds Mutex, E loaded).
  void remeasureLocked(Entry &E);
  size_t totalBytesLocked() const;
  void releaseEntry(Entry &E); ///< Lease unpin.

  RegistryConfig Cfg;
  mutable std::mutex Mutex;
  std::map<std::string, std::shared_ptr<Entry>> Tenants;
  uint64_t LruClock = 0;
  RegistryStats Stats;
};

} // namespace serve
} // namespace prom

#endif // PROM_SERVE_DETECTORREGISTRY_H
