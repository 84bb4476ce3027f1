//===- opt/Optimizer.h - Producer-side optimizations ----------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's producer-side optimization pipeline (§8): constant
/// propagation, common subexpression elimination, and dead code
/// elimination, run before transmission.
///
/// CSE models hidden memory dependences with the paper's `Mem` variable:
/// every store/call produces a new memory state, loads are keyed by the
/// current state, and joins conservatively produce a fresh state. The
/// mechanism lives entirely inside the pass ("used solely during the
/// optimization phase and is not part of the transmitted code").
/// Because null checks and index checks are ordinary value-producing
/// instructions on safe planes, CSE removes redundant dynamic checks in a
/// tamper-proof way — the central claim of the paper's evaluation
/// (Figure 6).
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_OPT_OPTIMIZER_H
#define SAFETSA_OPT_OPTIMIZER_H

#include "tsa/Method.h"
#include "tsa/Signature.h"

namespace safetsa {

/// Which passes to run; Figure 5's "optimized" column uses all three.
struct OptOptions {
  bool ConstantPropagation = true;
  bool CSE = true;
  bool DCE = true;
  /// Field-sensitive memory states: stores to field f only clobber loads
  /// of f (the paper's §8 outlook, "partitioning Mem by field name").
  /// Off by default to match the paper's measured configuration.
  bool FieldSensitiveMem = false;
  /// Transport checked values across phi-joins (paper §4: "it enables the
  /// transport of null-checked and index-checked values across phi-joins
  /// ... all operands of a phi-function, as well as its result, always
  /// reside on the same register plane"): when every incoming value of a
  /// reference phi has an available nullcheck certificate, build a
  /// safe-ref phi of the certificates and retire the dominated rechecks.
  bool CheckTransport = true;
};

/// Counters for the ablation benchmarks.
struct OptStats {
  unsigned FoldedConstants = 0;
  unsigned CSERemoved = 0;
  unsigned CSERemovedNullChecks = 0;
  unsigned CSERemovedIndexChecks = 0;
  unsigned DCERemoved = 0;
  unsigned DCERemovedPhis = 0;
  unsigned TransportedChecks = 0; ///< Null checks retired via safe phis.

  OptStats &operator+=(const OptStats &O) {
    FoldedConstants += O.FoldedConstants;
    CSERemoved += O.CSERemoved;
    CSERemovedNullChecks += O.CSERemovedNullChecks;
    CSERemovedIndexChecks += O.CSERemovedIndexChecks;
    DCERemoved += O.DCERemoved;
    DCERemovedPhis += O.DCERemovedPhis;
    TransportedChecks += O.TransportedChecks;
    return *this;
  }
};

/// Optimizes every method of \p Module in place and re-finalizes the
/// numbering. The module must verify beforehand; it verifies afterwards.
OptStats optimizeModule(TSAModule &Module,
                        const OptOptions &Options = OptOptions());

} // namespace safetsa

#endif // SAFETSA_OPT_OPTIMIZER_H
