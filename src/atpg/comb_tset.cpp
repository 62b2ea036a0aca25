#include "atpg/comb_tset.hpp"

#include <algorithm>
#include <memory>

#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace scanc::atpg {

using fault::FaultClassId;
using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;

fault::FaultSet detect_comb_test(FaultSimulator& fsim, const CombTest& test,
                                 const FaultSet* targets) {
  sim::Sequence seq;
  seq.frames.push_back(test.inputs);
  return fsim.detect_scan_test(test.state, seq, targets);
}

std::vector<fault::FaultSet> detect_comb_tests(FaultSimulator& fsim,
                                               std::span<const CombTest> tests,
                                               const FaultSet* targets) {
  std::vector<sim::Sequence> seqs(tests.size());
  std::vector<FaultSimulator::BatchTest> batch(tests.size());
  for (std::size_t j = 0; j < tests.size(); ++j) {
    seqs[j].frames.push_back(tests[j].inputs);
    batch[j] = {&tests[j].state, &seqs[j]};
  }
  return fsim.detect_batch(batch, targets);
}

namespace {

/// Fills X positions with random binary values, except at unscanned
/// flip-flop positions (partial scan), which must stay X.
void randomize_state(sim::Vector3& state, const util::Bitset& scan_mask,
                     util::Rng& rng) {
  for (std::size_t i = 0; i < state.size(); ++i) {
    const bool scanned = scan_mask.empty() || scan_mask.test(i);
    if (!scanned) {
      state[i] = sim::V3::X;
    } else if (state[i] == sim::V3::X) {
      state[i] = sim::v3_from_bool(rng.coin());
    }
  }
}

/// Per-class outstanding detection requirements.  For N-detect sets the
/// compactors must preserve min(N, achievable) detections per fault, so
/// all compaction below is count-based (N = 1 reduces to plain sets).
using Needs = std::vector<std::uint32_t>;

Needs requirement_counts(const std::vector<FaultSet>& det,
                         std::size_t num_classes, std::size_t n_detect) {
  Needs needs(num_classes, 0);
  for (const FaultSet& d : det) {
    d.for_each([&](std::size_t f) {
      if (needs[f] < n_detect) ++needs[f];
    });
  }
  return needs;
}

/// Number of outstanding requirements this test helps with.
std::size_t gain_of(const FaultSet& det, const Needs& needs) {
  std::size_t gain = 0;
  det.for_each([&](std::size_t f) { gain += needs[f] > 0 ? 1 : 0; });
  return gain;
}

void consume(const FaultSet& det, Needs& needs) {
  det.for_each([&](std::size_t f) {
    if (needs[f] > 0) --needs[f];
  });
}

/// Reverse-order static compaction: keep a test only if some fault still
/// needs it.  Preserves min(N, achievable) detections per fault.
void reverse_compact(FaultSimulator& fsim, std::vector<CombTest>& tests,
                     std::size_t num_classes, std::size_t n_detect) {
  const std::vector<FaultSet> det = detect_comb_tests(fsim, tests);
  Needs needs = requirement_counts(det, num_classes, n_detect);
  std::vector<CombTest> kept;
  for (std::size_t j = tests.size(); j-- > 0;) {
    if (gain_of(det[j], needs) > 0) {
      kept.push_back(std::move(tests[j]));
      consume(det[j], needs);
    }
  }
  std::reverse(kept.begin(), kept.end());
  tests = std::move(kept);
}

/// Greedy cover over the tests' full detection sets: repeatedly keep the
/// test satisfying the most outstanding requirements.  Produces smaller
/// sets than reverse order alone (the substitute for the minimal test
/// sets of [9]); a reverse-order pass afterwards polishes stragglers.
void greedy_cover_compact(FaultSimulator& fsim,
                          std::vector<CombTest>& tests,
                          std::size_t num_classes, std::size_t n_detect) {
  const std::vector<FaultSet> det = detect_comb_tests(fsim, tests);
  Needs needs = requirement_counts(det, num_classes, n_detect);
  std::vector<CombTest> kept;
  std::vector<char> used(tests.size(), 0);
  for (;;) {
    std::size_t best = tests.size();
    std::size_t best_gain = 0;
    for (std::size_t j = 0; j < tests.size(); ++j) {
      if (used[j]) continue;
      const std::size_t gain = gain_of(det[j], needs);
      if (gain > best_gain) {
        best = j;
        best_gain = gain;
      }
    }
    if (best == tests.size()) break;  // nothing else helps
    used[best] = 1;
    kept.push_back(tests[best]);
    consume(det[best], needs);
  }
  tests = std::move(kept);
  reverse_compact(fsim, tests, num_classes, n_detect);
}

/// The run's private simulator, configured from the options.
FaultSimulator make_simulator(const Circuit& circuit, const FaultList& faults,
                              const CombTestSetOptions& options) {
  const util::Bitset& mask = options.podem.scan_mask;
  FaultSimulator fsim(circuit, faults,
                      mask.empty()
                          ? util::Bitset(circuit.num_flip_flops(), true)
                          : mask);
  fsim.set_num_threads(options.num_threads);
  fsim.set_kernel(options.kernel);
  fsim.set_cancel(options.cancel);
  return fsim;
}

void compact(FaultSimulator& fsim, std::vector<CombTest>& tests,
             std::size_t num_classes, const CombTestSetOptions& options) {
  switch (options.compaction) {
    case TestSetCompaction::None:
      break;
    case TestSetCompaction::ReverseOrder:
      reverse_compact(fsim, tests, num_classes,
                      std::max<std::size_t>(options.n_detect, 1));
      break;
    case TestSetCompaction::GreedyCover:
      greedy_cover_compact(fsim, tests, num_classes,
                           std::max<std::size_t>(options.n_detect, 1));
      break;
  }
}

/// True if the representative fault of `id` is a checkpoint fault in the
/// scan view: a fanout-branch fault, or a stem fault on a primary input
/// or flip-flop output (the view's inputs).
bool is_checkpoint(const FaultList& faults, const Circuit& circuit,
                   fault::FaultClassId id) {
  const fault::Fault& f = faults.representative(id);
  if (f.pin != sim::kStemPin) return true;
  const netlist::GateType t = circuit.node(f.node).type;
  return t == netlist::GateType::Input || t == netlist::GateType::Dff;
}

}  // namespace

CombTestSet generate_comb_test_set(const Circuit& circuit,
                                   const FaultList& faults,
                                   const CombTestSetOptions& options) {
  const util::Bitset& mask = options.podem.scan_mask;
  FaultSimulator fsim = make_simulator(circuit, faults, options);
  Podem podem(circuit, options.podem);
  // The SAT backend is built lazily: under Auto it only exists once
  // PODEM aborts on some target, so the common all-easy run
  // never pays for the CNF encoding.
  std::unique_ptr<SatBackend> sat;
  const auto sat_backend = [&]() -> SatBackend& {
    if (!sat) {
      SatBackendOptions so = options.sat;
      so.scan_mask = mask;
      so.cancel = options.cancel;
      sat = std::make_unique<SatBackend>(circuit, so);
    }
    return *sat;
  };
  const auto run_engine = [&](const fault::Fault& f) {
    if (options.backend == AtpgBackend::Sat) return sat_backend().generate(f);
    PodemResult r = podem.generate(f);
    if (options.backend == AtpgBackend::Auto &&
        r.status == PodemStatus::Aborted) {
      obs::add(obs::Counter::AtpgSatFallbacks);
      r = sat_backend().generate(f);
    }
    return r;
  };
  util::Rng rng(options.seed ^ 0xc0b1ed5e7ULL);
  const std::size_t n_detect = std::max<std::size_t>(options.n_detect, 1);

  CombTestSet out;
  out.detected = FaultSet(faults.num_classes());
  out.untestable = FaultSet(faults.num_classes());
  // Outstanding detections per class and the set of classes still worth
  // simulating (need > 0).
  Needs need(faults.num_classes(), static_cast<std::uint32_t>(n_detect));
  FaultSet active(faults.num_classes());
  active.fill();
  const auto settle = [&](std::size_t f) {
    if (need[f] > 0) --need[f];
    if (need[f] == 0) active.reset(f);
  };
  // Aborted faults stay in `active` (later tests may still catch them by
  // simulation) but are not retried by PODEM.
  std::vector<char> gave_up(faults.num_classes(), 0);

  const auto target_pass = [&](bool checkpoints) {
    for (FaultClassId id = 0; id < faults.num_classes(); ++id) {
      if (options.cancel.stop_requested()) return;
      if (checkpoints && !is_checkpoint(faults, circuit, id)) continue;
      while (active.test(id) && !gave_up[id]) {
        const PodemResult r = run_engine(faults.representative(id));
        if (r.status == PodemStatus::Untestable) {
          ++out.proven_untestable;
          out.untestable.set(id);
          need[id] = 0;
          active.reset(id);
          break;
        }
        if (r.status == PodemStatus::Aborted) {
          ++out.aborted;
          gave_up[id] = 1;
          break;
        }
        CombTest t{r.cube.state, r.cube.inputs};
        randomize_state(t.state, mask, rng);
        sim::randomize_x(t.inputs, rng);
        const FaultSet det = detect_comb_test(fsim, t, &active);
        out.detected |= det;
        const bool hit = det.test(id);
        det.for_each(settle);
        out.tests.push_back(std::move(t));
        if (!hit) break;  // safety: the fill lost the target fault
      }
    }
  };

  target_pass(options.checkpoints_only);
  if (options.checkpoints_only) {
    // The checkpoint theorem covers everything in theory; sweep the
    // leftovers (redundancy interactions, partial-scan masking) exactly.
    target_pass(false);
  }

  // A cancelled run skips compaction too: the caller discards the set.
  if (options.cancel.stop_requested()) return out;
  compact(fsim, out.tests, faults.num_classes(), options);
  return out;
}

CombTestSet generate_random_comb_test_set(const Circuit& circuit,
                                          const FaultList& faults,
                                          const CombTestSetOptions& options) {
  const util::Bitset& mask = options.podem.scan_mask;
  FaultSimulator fsim = make_simulator(circuit, faults, options);
  util::Rng rng(options.seed ^ 0x9a4d03c5ULL);

  CombTestSet out;
  out.detected = FaultSet(faults.num_classes());
  out.untestable = FaultSet(faults.num_classes());
  FaultSet undetected(faults.num_classes());
  undetected.fill();

  for (std::size_t i = 0; i < options.random_pool; ++i) {
    if (undetected.none() || options.cancel.stop_requested()) break;
    CombTest t{sim::random_vector(circuit.num_flip_flops(), rng),
               sim::random_vector(circuit.num_inputs(), rng)};
    randomize_state(t.state, mask, rng);
    const FaultSet det = detect_comb_test(fsim, t, &undetected);
    if (det.none()) continue;
    out.detected |= det;
    undetected -= det;
    out.tests.push_back(std::move(t));
  }

  if (options.cancel.stop_requested()) return out;
  compact(fsim, out.tests, faults.num_classes(), options);
  return out;
}

}  // namespace scanc::atpg
