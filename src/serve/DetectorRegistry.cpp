//===- serve/DetectorRegistry.cpp - Multi-tenant detector fleet -------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/DetectorRegistry.h"

#include "support/Serialize.h"

#include <algorithm>
#include <cassert>

using namespace prom;
using namespace prom::serve;

/// A tenant slot. Lifecycle state (Engine/Monitor/Controller, pins, LRU
/// stamp) is guarded by the registry mutex; entries never move once
/// created, so leases can hold shared_ptrs across lock releases.
struct DetectorRegistry::Entry {
  std::string Id;
  TenantSpec Spec;

  // Loaded state (all null/zero while cold). Destruction order on
  // unload: Controller first (joins its worker and unsubscribes from
  // Monitor), then Monitor, then Engine.
  std::unique_ptr<PromClassifier> Engine;
  std::unique_ptr<WindowedDriftMonitor> Monitor;
  std::unique_ptr<RecalibrationController> Controller;

  // Recalibration arming (applies at every load while set).
  bool RecalArmed = false;
  DriftWindowConfig MonitorCfg;
  RecalibrationConfig RecalCfg;

  size_t Pins = 0;        ///< Live leases.
  uint64_t LastUsed = 0;  ///< Registry LRU clock stamp.
  size_t MemBytes = 0;    ///< Estimate while loaded.
};

//===----------------------------------------------------------------------===//
// Lease
//===----------------------------------------------------------------------===//

DetectorRegistry::Lease::~Lease() { release(); }

DetectorRegistry::Lease::Lease(Lease &&O) noexcept : R(O.R), E(std::move(O.E)) {
  O.R = nullptr;
  O.E = nullptr;
}

DetectorRegistry::Lease &DetectorRegistry::Lease::operator=(Lease &&O) noexcept {
  if (this != &O) {
    release();
    R = O.R;
    E = std::move(O.E);
    O.R = nullptr;
    O.E = nullptr;
  }
  return *this;
}

void DetectorRegistry::Lease::release() {
  if (R && E)
    R->releaseEntry(*E);
  R = nullptr;
  E = nullptr;
}

PromClassifier *DetectorRegistry::Lease::engine() const {
  return E ? E->Engine.get() : nullptr;
}

WindowedDriftMonitor *DetectorRegistry::Lease::monitor() const {
  return E ? E->Monitor.get() : nullptr;
}

RecalibrationController *DetectorRegistry::Lease::controller() const {
  return E ? E->Controller.get() : nullptr;
}

const std::string &DetectorRegistry::Lease::tenant() const {
  static const std::string Empty;
  return E ? E->Id : Empty;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

DetectorRegistry::DetectorRegistry(RegistryConfig Cfg) : Cfg(Cfg) {}

DetectorRegistry::~DetectorRegistry() {
  // Controllers own threads that touch their tenant's engine + monitor;
  // join them all before any engine is destroyed. No lock: leases must
  // not outlive the registry, so no concurrent access remains.
  for (auto &KV : Tenants) {
    Entry &E = *KV.second;
    E.Controller.reset();
    E.Monitor.reset();
    E.Engine.reset();
  }
}

bool DetectorRegistry::registerTenant(const std::string &Id, TenantSpec Spec) {
  if (Id.empty() || !Spec.Model)
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Tenants.find(Id);
  if (It != Tenants.end())
    return false;
  auto E = std::make_shared<Entry>();
  E->Id = Id;
  E->Spec = std::move(Spec);
  Tenants.emplace(Id, std::move(E));
  return true;
}

bool DetectorRegistry::installDetector(
    const std::string &Id, std::unique_ptr<PromClassifier> &&Detector) {
  if (!Detector || !Detector->isCalibrated())
    return false;
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Tenants.find(Id);
  if (It == Tenants.end() || It->second->Engine)
    return false;
  Entry &E = *It->second;
  E.Engine = std::move(Detector);
  remeasureLocked(E);
  armRecalibrationLocked(E);
  E.LastUsed = ++LruClock;
  ++Stats.Installs;
  enforceBudgetLocked(&E);
  return true;
}

bool DetectorRegistry::enableRecalibration(const std::string &Id,
                                           DriftWindowConfig MonitorCfg,
                                           RecalibrationConfig RecalCfg) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Tenants.find(Id);
  if (It == Tenants.end())
    return false;
  Entry &E = *It->second;
  E.RecalArmed = true;
  E.MonitorCfg = MonitorCfg;
  E.RecalCfg = std::move(RecalCfg);
  if (E.RecalCfg.SnapshotDir.empty())
    E.RecalCfg.SnapshotDir = E.Spec.SnapshotDir;
  if (E.Engine && !E.Controller)
    armRecalibrationLocked(E);
  return true;
}

DetectorRegistry::Lease DetectorRegistry::acquire(const std::string &Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Tenants.find(Id);
  if (It == Tenants.end())
    return Lease();
  std::shared_ptr<Entry> E = It->second;
  if (E->Engine) {
    ++Stats.Hits;
  } else {
    if (!loadLocked(*E)) {
      ++Stats.LoadFailures;
      return Lease();
    }
    ++Stats.Loads;
    enforceBudgetLocked(E.get());
  }
  ++E->Pins;
  E->LastUsed = ++LruClock;
  return Lease(this, std::move(E));
}

bool DetectorRegistry::save(const std::string &Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Tenants.find(Id);
  if (It == Tenants.end() || !It->second->Engine)
    return false;
  return saveLocked(*It->second);
}

bool DetectorRegistry::evict(const std::string &Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Tenants.find(Id);
  if (It == Tenants.end())
    return false;
  Entry &E = *It->second;
  if (!E.Engine || E.Pins > 0)
    return false;
  if (!saveLocked(E)) {
    ++Stats.EvictionSaveFailures;
    return false;
  }
  unloadLocked(E);
  ++Stats.Evictions;
  return true;
}

bool DetectorRegistry::submitLabeled(const std::string &Id, data::Sample S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Tenants.find(Id);
  if (It == Tenants.end() || !It->second->Controller)
    return false;
  It->second->Controller->submitLabeled(std::move(S));
  return true;
}

bool DetectorRegistry::isLoaded(const std::string &Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Tenants.find(Id);
  return It != Tenants.end() && It->second->Engine != nullptr;
}

std::vector<std::string> DetectorRegistry::tenants() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<std::string> Ids;
  Ids.reserve(Tenants.size());
  for (const auto &KV : Tenants)
    Ids.push_back(KV.first);
  return Ids;
}

size_t DetectorRegistry::memoryBytes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return totalBytesLocked();
}

RegistryStats DetectorRegistry::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  RegistryStats S = Stats;
  S.RegisteredTenants = Tenants.size();
  S.LoadedTenants = 0;
  for (const auto &KV : Tenants)
    if (KV.second->Engine)
      ++S.LoadedTenants;
  S.MemoryBytes = totalBytesLocked();
  return S;
}

//===----------------------------------------------------------------------===//
// Locked internals
//===----------------------------------------------------------------------===//

bool DetectorRegistry::loadLocked(Entry &E) {
  assert(!E.Engine && "tenant already loaded");
  if (E.Spec.SnapshotDir.empty())
    return false;
  auto Engine = std::unique_ptr<PromClassifier>(
      new PromClassifier(*E.Spec.Model, E.Spec.Cfg));
  if (!support::loadLatestSnapshot(
          E.Spec.SnapshotDir, [&Engine](const std::string &Path) {
            return Engine->loadSnapshot(Path);
          }))
    return false;
  E.Engine = std::move(Engine);
  remeasureLocked(E);
  armRecalibrationLocked(E);
  return true;
}

bool DetectorRegistry::saveLocked(Entry &E) {
  assert(E.Engine && "saving a cold tenant");
  if (E.Spec.SnapshotDir.empty() ||
      !support::rotateSnapshot(E.Spec.SnapshotDir,
                               [&E](const std::string &Path) {
                                 return E.Engine->saveSnapshot(Path);
                               }))
    return false;
  ++Stats.SnapshotsSaved;
  return true;
}

void DetectorRegistry::unloadLocked(Entry &E) {
  assert(E.Pins == 0 && "unloading a pinned tenant");
  // Join the controller's worker before the engine/monitor it references
  // disappear; shutdown() also unsubscribes the monitor alert hook.
  E.Controller.reset();
  E.Monitor.reset();
  E.Engine.reset();
  E.MemBytes = 0;
}

void DetectorRegistry::armRecalibrationLocked(Entry &E) {
  assert(E.Engine && "arming a cold tenant");
  if (!E.RecalArmed || E.Controller)
    return;
  E.Monitor.reset(new WindowedDriftMonitor(E.MonitorCfg));
  E.Controller.reset(
      new RecalibrationController(*E.Engine, *E.Monitor, E.RecalCfg));
}

void DetectorRegistry::enforceBudgetLocked(const Entry *Keep) {
  if (Cfg.MemoryBudgetBytes == 0)
    return;
  // Refresh the estimates before deciding: refreshes grow stores behind
  // our back, and the walk is O(calibration entries) on a rare path.
  for (auto &KV : Tenants)
    if (KV.second->Engine)
      remeasureLocked(*KV.second);
  std::vector<const Entry *> SaveFailed;
  while (totalBytesLocked() > Cfg.MemoryBudgetBytes) {
    Entry *Victim = nullptr;
    for (auto &KV : Tenants) {
      Entry &C = *KV.second;
      if (!C.Engine || C.Pins > 0 || &C == Keep || C.Spec.SnapshotDir.empty())
        continue;
      if (std::find(SaveFailed.begin(), SaveFailed.end(), &C) !=
          SaveFailed.end())
        continue;
      if (!Victim || C.LastUsed < Victim->LastUsed)
        Victim = &C;
    }
    if (!Victim)
      return; // Nothing evictable; run over budget rather than lose state.
    if (!saveLocked(*Victim)) {
      // Can't persist it, so we must not drop it: take it out of this
      // pass's candidate set and keep looking for another victim.
      ++Stats.EvictionSaveFailures;
      SaveFailed.push_back(Victim);
      continue;
    }
    unloadLocked(*Victim);
    ++Stats.Evictions;
  }
}

void DetectorRegistry::remeasureLocked(Entry &E) {
  assert(E.Engine);
  E.MemBytes = E.Engine->memoryBytes();
}

size_t DetectorRegistry::totalBytesLocked() const {
  size_t Total = 0;
  for (const auto &KV : Tenants)
    Total += KV.second->MemBytes;
  return Total;
}

void DetectorRegistry::releaseEntry(Entry &E) {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(E.Pins > 0 && "unbalanced lease release");
  --E.Pins;
}
