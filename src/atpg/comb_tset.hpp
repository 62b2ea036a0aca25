// Compact combinational test-set generation (the paper's test set C).
//
// The DAC-2001 procedure consumes a complete, compact combinational test
// set C for the scan view of the circuit: scan-in candidates come from
// the state parts of C's tests (Phase 1), and top-off tests come from C
// itself (Phase 3).  The paper took C from minimal-test-set work [9] for
// ISCAS-89 and from random-pattern selection for ITC-99; this module
// provides both sources:
//
//   generate_comb_test_set        — deterministic PODEM with fault
//                                   dropping, then reverse-order static
//                                   compaction (the [9] substitute), and
//   generate_random_comb_test_set — greedy selection out of a large
//                                   random-pattern pool, then the same
//                                   reverse-order compaction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/sat_backend.hpp"
#include "fault/fault_sim.hpp"
#include "util/cancel.hpp"

namespace scanc::atpg {

/// One fully-specified combinational (scan) test.
struct CombTest {
  sim::Vector3 state;   ///< scan-in part c_js (flip_flops() order)
  sim::Vector3 inputs;  ///< primary-input part c_jp
};

/// A combinational test set plus coverage bookkeeping.
struct CombTestSet {
  std::vector<CombTest> tests;
  fault::FaultSet detected;       ///< classes detected by the final set
  /// Classes proven untestable (search exhausted / SAT proof).  Sized
  /// num_classes whenever `detected` is; `untestable.count()` equals
  /// `proven_untestable`.  Downstream phases may drop these classes
  /// from their fault universe: no scan test of any length detects a
  /// combinationally-redundant fault under full scan.
  fault::FaultSet untestable;
  std::size_t proven_untestable = 0;  ///< search exhausted: no test exists
  std::size_t aborted = 0;        ///< ATPG hit its backtrack/conflict limit

  /// Classes detectable as far as this generation run could prove:
  /// detected plus aborted (unresolved) classes, i.e. everything not
  /// proven untestable.
  [[nodiscard]] std::size_t num_tests() const noexcept {
    return tests.size();
  }
};

/// Static compaction applied to the generated set.
enum class TestSetCompaction : std::uint8_t {
  None,
  ReverseOrder,  ///< classic reverse-order redundancy drop
  GreedyCover,   ///< greedy set cover over per-test detection sets, then
                 ///< a reverse-order polish (default; smallest sets)
};

/// Options for test-set generation.
struct CombTestSetOptions {
  std::uint64_t seed = 1;           ///< random fill / pattern pool seed
  PodemOptions podem;               ///< PODEM search bounds
  /// Backend selection (docs/atpg.md): Podem runs PODEM alone; Sat
  /// sends every target straight to the SAT backend; Auto runs PODEM
  /// first and falls back to SAT only for targets it aborts on, so
  /// every fault ends the run Detected or proven Untestable (up to the
  /// SAT conflict limit).
  AtpgBackend backend = AtpgBackend::Podem;
  /// SAT backend bounds.  `sat.scan_mask` and `sat.cancel` are
  /// overridden with `podem.scan_mask` and `cancel` below so all
  /// engines see one scan configuration and one cancellation signal.
  SatBackendOptions sat;
  TestSetCompaction compaction = TestSetCompaction::GreedyCover;
  std::size_t random_pool = 4096;   ///< pool size for the random source
  /// N-detect: drop a fault from the target list only after this many
  /// distinct tests detect it.  N > 1 yields larger sets that catch more
  /// unmodeled defects (compaction then preserves N detections per
  /// fault).  Standard value 1.
  std::size_t n_detect = 1;
  /// Generate targets only at checkpoint faults (primary inputs and
  /// fanout branches).  By the checkpoint theorem a combinational test
  /// set detecting all checkpoint faults detects all stuck-at faults;
  /// coverage is still *measured* on every fault, so the reported
  /// `detected` set is exact.  Cuts PODEM calls substantially on wide
  /// circuits.
  bool checkpoints_only = false;
  /// Cooperative cancellation, polled between per-fault targets and by
  /// every fault-simulation query of the run.  A cancelled run returns
  /// the tests generated so far — callers that observe the raised token
  /// must discard the truncated set (the experiment runner does; see its
  /// phase checks).
  util::CancelToken cancel;
  /// Settings of the run's private fault simulator (coverage, fault
  /// dropping, compaction): the run-level --threads and --kernel.
  /// Results are bit-identical for every value.
  std::size_t num_threads = 1;
  fault::KernelMode kernel = fault::KernelMode::Auto;
};

/// Deterministic ATPG test set: one PODEM call per still-undetected
/// collapsed fault class, fault dropping after every generated test.
[[nodiscard]] CombTestSet generate_comb_test_set(
    const netlist::Circuit& circuit, const fault::FaultList& faults,
    const CombTestSetOptions& options = {});

/// Random-selection test set: draws `options.random_pool` random
/// (state, input) patterns and keeps those that detect new faults.
/// Coverage is whatever the pool achieves (no untestability proofs).
[[nodiscard]] CombTestSet generate_random_comb_test_set(
    const netlist::Circuit& circuit, const fault::FaultList& faults,
    const CombTestSetOptions& options = {});

/// Applies one combinational test as a length-one scan test and returns
/// the classes it detects among `targets`.
[[nodiscard]] fault::FaultSet detect_comb_test(
    fault::FaultSimulator& fsim, const CombTest& test,
    const fault::FaultSet* targets = nullptr);

/// Batch form of detect_comb_test: one detection set per test, in
/// order, routed through the simulator's pattern-parallel (PPSFP) path
/// — bit-identical to calling detect_comb_test on each.
[[nodiscard]] std::vector<fault::FaultSet> detect_comb_tests(
    fault::FaultSimulator& fsim, std::span<const CombTest> tests,
    const fault::FaultSet* targets = nullptr);

}  // namespace scanc::atpg
