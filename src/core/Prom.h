//===- core/Prom.h - Umbrella header for the PROM library --------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella: pulls in the complete public PROM API. Downstream
/// users wrap a trained model in PromClassifier / PromRegressor, call
/// calibrate() with the held-out calibration split, and consult assess()
/// per deployment input; see examples/quickstart.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_CORE_PROM_H
#define PROM_CORE_PROM_H

#include "core/Assessment.h"
#include "core/CalibrationStore.h"
#include "core/Detector.h"
#include "core/DriftMetrics.h"
#include "core/GridSearch.h"
#include "core/IncrementalLearner.h"
#include "core/Nonconformity.h"
#include "core/PromConfig.h"

#endif // PROM_CORE_PROM_H
