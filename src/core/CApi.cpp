//===- core/CApi.cpp - C ABI for non-C++ integration --------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The C handles are thin owners over the C++ detector stack: a
// prom_detector pairs a HostOutputClassifier (the adapter that unpacks
// host-supplied model outputs) with a PromClassifier over it, and a
// prom_fleet wraps a serve::DetectorRegistry plus the per-tenant adapter
// models it needs to keep alive. Everything observable through the ABI —
// verdicts, credibility/confidence, snapshot bytes — is produced by the
// same code paths the C++ API uses, which is what makes the
// C-vs-PromClassifier bit-identity tests possible.
//
//===----------------------------------------------------------------------===//

#include "core/CApi.h"

#include "core/Detector.h"
#include "ml/HostModel.h"
#include "serve/DetectorRegistry.h"
#include "support/Matrix.h"
#include "support/Serialize.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace prom;

namespace {

/// Validates the shared (num_classes, feature_dim, epsilon) triple and
/// resolves the effective epsilon. 0 means "use the default"; any other
/// out-of-range value is an error.
bool validLayout(int NumClasses, int FeatureDim, double Epsilon) {
  if (NumClasses < 2 || FeatureDim < 1)
    return false;
  return Epsilon == 0.0 || (Epsilon > 0.0 && Epsilon < 1.0);
}

PromConfig configFor(double Epsilon) {
  PromConfig Cfg;
  if (Epsilon != 0.0)
    Cfg.Epsilon = Epsilon;
  return Cfg;
}

} // namespace

/// The C-side detector: the host-output adapter plus a PromClassifier
/// over it. Calibration rows are buffered packed until prom_finalize()
/// runs the real calibrate().
struct prom_detector {
  std::unique_ptr<ml::HostOutputClassifier> Model;
  std::unique_ptr<PromClassifier> Engine;
  data::Dataset Calib;
  bool Finalized = false;

  int numClasses() const { return Model->numClasses(); }
  int featureDim() const { return Model->featureDim(); }
};

/// The C-side fleet: the registry plus the adapter models the registered
/// TenantSpecs point at. Installed detectors' adapters retire here too —
/// their engines reference them for as long as the engine lives.
struct prom_fleet {
  explicit prom_fleet(serve::RegistryConfig Cfg) : Registry(Cfg) {}

  serve::DetectorRegistry Registry;
  std::mutex Mutex; ///< Guards the two maps below.
  /// Per-tenant adapter named by the TenantSpec (layout source of truth).
  std::map<std::string, std::unique_ptr<ml::HostOutputClassifier>> Models;
  /// Adapters of installed detectors, kept alive for their engines.
  std::vector<std::unique_ptr<ml::HostOutputClassifier>> Retired;
};

//===----------------------------------------------------------------------===//
// Single-detector lifecycle
//===----------------------------------------------------------------------===//

prom_detector *prom_create(int num_classes, int feature_dim,
                           double epsilon) {
  if (!validLayout(num_classes, feature_dim, epsilon))
    return nullptr;
  auto *D = new prom_detector();
  D->Model.reset(new ml::HostOutputClassifier(num_classes, feature_dim));
  D->Engine.reset(new PromClassifier(*D->Model, configFor(epsilon)));
  return D;
}

prom_detector *prom_open(int num_classes, int feature_dim, double epsilon,
                         const char *snapshot_dir) {
  if (!snapshot_dir)
    return nullptr;
  prom_detector *D = prom_create(num_classes, feature_dim, epsilon);
  if (!D)
    return nullptr;
  if (!support::loadLatestSnapshot(snapshot_dir, [D](const std::string &Path) {
        return D->Engine->loadSnapshot(Path);
      })) {
    prom_destroy(D);
    return nullptr;
  }
  D->Finalized = true;
  return D;
}

int prom_add_calibration(prom_detector *d, const double *probabilities,
                         const double *features, int label) {
  if (!d || !probabilities || !features || d->Finalized)
    return -1;
  if (label < 0 || label >= d->numClasses())
    return -1;
  d->Calib.add(ml::HostOutputClassifier::pack(
      probabilities, features, d->numClasses(), d->featureDim(), label));
  return 0;
}

int prom_finalize(prom_detector *d) {
  if (!d)
    return -1;
  if (d->Finalized)
    return 0; // Defined no-op: the calibrated state is already live.
  if (d->Calib.size() < 4)
    return -1;
  d->Engine->calibrate(d->Calib);
  d->Calib = data::Dataset(); // The store owns the state now.
  d->Finalized = true;
  return 0;
}

int prom_should_reject(const prom_detector *d, const double *probabilities,
                       const double *features, double *credibility_out,
                       double *confidence_out) {
  int Reject;
  int Rc = prom_assess_batch(d, 1, probabilities, features, &Reject,
                             credibility_out, confidence_out);
  return Rc != 0 ? Rc : Reject;
}

int prom_assess_batch(const prom_detector *d, size_t n,
                      const double *probabilities, const double *features,
                      int *reject_out, double *credibility_out,
                      double *confidence_out) {
  if (!d || !probabilities || !features || !reject_out || !d->Finalized)
    return -1;
  data::Dataset Batch;
  Batch.reserve(n);
  for (size_t I = 0; I < n; ++I)
    Batch.add(ml::HostOutputClassifier::pack(
        probabilities + I * static_cast<size_t>(d->numClasses()),
        features + I * static_cast<size_t>(d->featureDim()), d->numClasses(),
        d->featureDim()));
  std::vector<Verdict> Verdicts = d->Engine->assessBatch(Batch);
  for (size_t I = 0; I < Verdicts.size(); ++I) {
    reject_out[I] = Verdicts[I].Drifted ? 1 : 0;
    if (credibility_out)
      credibility_out[I] = Verdicts[I].meanCredibility();
    if (confidence_out)
      confidence_out[I] = Verdicts[I].meanConfidence();
  }
  return 0;
}

int prom_save(const prom_detector *d, const char *snapshot_dir) {
  if (!d || !snapshot_dir || !d->Finalized)
    return -1;
  bool Rotated = support::rotateSnapshot(
      snapshot_dir,
      [d](const std::string &Path) { return d->Engine->saveSnapshot(Path); });
  return Rotated ? 0 : -1;
}

int prom_predicted_label(const prom_detector *d,
                         const double *probabilities) {
  if (!d || !probabilities)
    return -1;
  std::vector<double> Probs(probabilities,
                            probabilities + d->numClasses());
  return static_cast<int>(support::argmax(Probs));
}

void prom_destroy(prom_detector *d) { delete d; }

//===----------------------------------------------------------------------===//
// Multi-tenant fleet
//===----------------------------------------------------------------------===//

prom_fleet *prom_fleet_create(size_t memory_budget_bytes) {
  serve::RegistryConfig Cfg;
  Cfg.MemoryBudgetBytes = memory_budget_bytes;
  return new prom_fleet(Cfg);
}

int prom_fleet_register(prom_fleet *f, const char *tenant, int num_classes,
                        int feature_dim, double epsilon,
                        const char *snapshot_dir) {
  if (!f || !tenant || !*tenant ||
      !validLayout(num_classes, feature_dim, epsilon))
    return -1;
  auto Model = std::unique_ptr<ml::HostOutputClassifier>(
      new ml::HostOutputClassifier(num_classes, feature_dim));
  serve::TenantSpec Spec;
  Spec.Model = Model.get();
  Spec.Cfg = configFor(epsilon);
  Spec.SnapshotDir = snapshot_dir ? snapshot_dir : "";
  if (!f->Registry.registerTenant(tenant, std::move(Spec)))
    return -1;
  std::lock_guard<std::mutex> Lock(f->Mutex);
  f->Models.emplace(tenant, std::move(Model));
  return 0;
}

int prom_fleet_install(prom_fleet *f, const char *tenant, prom_detector *d) {
  if (!f || !tenant || !d || !d->Finalized)
    return -1;
  {
    std::lock_guard<std::mutex> Lock(f->Mutex);
    auto It = f->Models.find(tenant);
    if (It == f->Models.end() ||
        It->second->numClasses() != d->numClasses() ||
        It->second->featureDim() != d->featureDim())
      return -1;
  }
  if (!f->Registry.installDetector(tenant, std::move(d->Engine)))
    return -1;
  // The installed engine references the handle's adapter model; retire
  // the adapter into the fleet and consume the handle.
  {
    std::lock_guard<std::mutex> Lock(f->Mutex);
    f->Retired.push_back(std::move(d->Model));
  }
  prom_destroy(d);
  return 0;
}

int prom_fleet_assess(prom_fleet *f, const char *tenant,
                      const double *probabilities, const double *features,
                      double *credibility_out, double *confidence_out) {
  int Reject;
  int Rc = prom_fleet_assess_batch(f, tenant, 1, probabilities, features,
                                   &Reject, credibility_out, confidence_out);
  return Rc != 0 ? Rc : Reject;
}

int prom_fleet_assess_batch(prom_fleet *f, const char *tenant, size_t n,
                            const double *probabilities,
                            const double *features, int *reject_out,
                            double *credibility_out, double *confidence_out) {
  if (!f || !tenant || !probabilities || !features || !reject_out)
    return -1;
  ml::HostOutputClassifier *Model;
  {
    std::lock_guard<std::mutex> Lock(f->Mutex);
    auto It = f->Models.find(tenant);
    if (It == f->Models.end())
      return -1;
    Model = It->second.get();
  }
  serve::DetectorRegistry::Lease Lease = f->Registry.acquire(tenant);
  if (!Lease)
    return -1;
  data::Dataset Batch;
  Batch.reserve(n);
  for (size_t I = 0; I < n; ++I)
    Batch.add(ml::HostOutputClassifier::pack(
        probabilities + I * static_cast<size_t>(Model->numClasses()),
        features + I * static_cast<size_t>(Model->featureDim()),
        Model->numClasses(), Model->featureDim()));
  std::vector<Verdict> Verdicts = Lease.engine()->assessBatch(Batch);
  for (size_t I = 0; I < Verdicts.size(); ++I) {
    reject_out[I] = Verdicts[I].Drifted ? 1 : 0;
    if (credibility_out)
      credibility_out[I] = Verdicts[I].meanCredibility();
    if (confidence_out)
      confidence_out[I] = Verdicts[I].meanConfidence();
  }
  return 0;
}

int prom_fleet_save(prom_fleet *f, const char *tenant) {
  if (!f || !tenant)
    return -1;
  return f->Registry.save(tenant) ? 0 : -1;
}

int prom_fleet_evict(prom_fleet *f, const char *tenant) {
  if (!f || !tenant)
    return -1;
  return f->Registry.evict(tenant) ? 0 : -1;
}

int prom_fleet_is_loaded(prom_fleet *f, const char *tenant) {
  return f && tenant && f->Registry.isLoaded(tenant) ? 1 : 0;
}

size_t prom_fleet_memory_bytes(prom_fleet *f) {
  return f ? f->Registry.memoryBytes() : 0;
}

void prom_fleet_destroy(prom_fleet *f) { delete f; }
