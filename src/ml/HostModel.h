//===- ml/HostModel.h - Host-supplied-output classifier ----------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model adapter behind the C ABI (core/CApi.h).
///
/// The paper's Sec. 8 integration story is host-agnostic: the host keeps
/// its own model and hands PROM only the model's *outputs* — a probability
/// vector and a feature/embedding vector per input. HostOutputClassifier
/// turns those outputs back into an ml::Classifier so the entire detector
/// stack (PromClassifier, CalibrationStore, snapshots, AssessmentService,
/// DetectorRegistry) runs unchanged over them: a sample's Features array
/// is the packed concatenation [probabilities..., embedding...], and the
/// "forward pass" is a pure unpack. Because the unpack is bit-exact and
/// per-sample independent, every bit-identity contract of the stack
/// (batch/serial, thread count, served, snapshot round-trip) holds for
/// host-fed detectors exactly as for native ones.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_ML_HOSTMODEL_H
#define PROM_ML_HOSTMODEL_H

#include "ml/Model.h"

namespace prom {
namespace ml {

/// Classifier whose "forward pass" unpacks host-supplied model outputs
/// from the sample itself; see the file comment.
class HostOutputClassifier : public Classifier {
public:
  /// Adapter for \p NumClasses-way probability vectors over
  /// \p FeatureDim-dimensional host embeddings.
  HostOutputClassifier(int NumClasses, int FeatureDim);

  /// Packs one host-supplied output pair into the Sample layout the
  /// adapter unpacks: Features = [\p Probs (\p NumClasses values),
  /// \p Features (\p FeatureDim values)], Label = \p Label.
  static data::Sample pack(const double *Probs, const double *Features,
                           int NumClasses, int FeatureDim, int Label = -1);

  /// No-op: the host already trained its model.
  void fit(const data::Dataset &Train, support::Rng &R) override;

  /// The packed probability head of \p S, verbatim.
  std::vector<double> predictProba(const data::Sample &S) const override;

  /// The packed embedding tail of \p S, verbatim.
  std::vector<double> embed(const data::Sample &S) const override;

  int numClasses() const override { return Classes; } ///< Pack-layout head.
  /// Host embedding dimensionality (the pack-layout tail).
  int featureDim() const { return FeatDim; }
  std::string name() const override { return "HostOutput"; } ///< "HostOutput".

private:
  int Classes;
  int FeatDim;
};

} // namespace ml
} // namespace prom

#endif // PROM_ML_HOSTMODEL_H
