#include <gtest/gtest.h>

#include "atpg/comb_tset.hpp"
#include "atpg/podem.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "gen/suite.hpp"
#include "netlist/circuit.hpp"
#include "sim/seq_sim.hpp"
#include "util/rng.hpp"

namespace scanc::atpg {
namespace {

using fault::Fault;
using fault::FaultClassId;
using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;
using netlist::GateType;
using sim::V3;
using sim::Vector3;

// Applies a cube (with X randomly filled) as a length-1 scan test and
// checks whether it detects `fault`.
bool cube_detects(const Circuit& c, const FaultList& fl, const Fault& f,
                  const TestCube& cube, std::uint64_t seed) {
  util::Rng rng(seed);
  Vector3 state = cube.state;
  Vector3 inputs = cube.inputs;
  sim::randomize_x(state, rng);
  sim::randomize_x(inputs, rng);
  FaultSimulator fsim(c, fl);
  sim::Sequence seq;
  seq.frames.push_back(inputs);
  // Locate the class of this fault.
  for (std::size_t i = 0; i < fl.num_faults(); ++i) {
    if (fl.faults()[i] == f) {
      const FaultSet det = fsim.detect_scan_test(state, seq);
      return det.test(fl.class_of(i));
    }
  }
  ADD_FAILURE() << "fault not in list";
  return false;
}

TEST(Podem, FindsTestForSimpleAndGate) {
  netlist::CircuitBuilder b("and2");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::And, "o", {"a", "b"});
  b.mark_output("o");
  const Circuit c = b.build();
  Podem podem(c);
  // o stuck-at-0 requires a=b=1.
  const PodemResult r =
      podem.generate(Fault{c.find("o"), sim::kStemPin, false});
  ASSERT_EQ(r.status, PodemStatus::Detected);
  EXPECT_EQ(r.cube.inputs[0], V3::One);
  EXPECT_EQ(r.cube.inputs[1], V3::One);
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // o = OR(a, NOT(a)) is constant 1: o stuck-at-1 is untestable.
  netlist::CircuitBuilder b("taut");
  b.add_input("a");
  b.add_gate(GateType::Not, "na", {"a"});
  b.add_gate(GateType::Or, "o", {"a", "na"});
  b.mark_output("o");
  const Circuit c = b.build();
  Podem podem(c);
  const PodemResult r =
      podem.generate(Fault{c.find("o"), sim::kStemPin, true});
  EXPECT_EQ(r.status, PodemStatus::Untestable);
  // ... while o stuck-at-0 is detected by any input.
  const PodemResult r2 =
      podem.generate(Fault{c.find("o"), sim::kStemPin, false});
  EXPECT_EQ(r2.status, PodemStatus::Detected);
}

TEST(Podem, UsesStateInputsForFaultsBehindFlipFlops) {
  // The fault is only excitable through the flip-flop's value: PODEM must
  // assign the PPI (scan) input.
  netlist::CircuitBuilder b("ffex");
  b.add_input("a");
  b.add_gate(GateType::Dff, "q", {"d"});
  b.add_gate(GateType::And, "x", {"a", "q"});
  b.add_gate(GateType::Buf, "d", {"a"});
  b.mark_output("x");
  const Circuit c = b.build();
  Podem podem(c);
  const PodemResult r =
      podem.generate(Fault{c.find("x"), sim::kStemPin, false});
  ASSERT_EQ(r.status, PodemStatus::Detected);
  EXPECT_EQ(r.cube.state[0], V3::One);
  EXPECT_EQ(r.cube.inputs[0], V3::One);
}

TEST(Podem, ObservesThroughFlipFlopCapture) {
  // The only observation point is a D line (PPO): detection must use the
  // scan-out observation.
  netlist::CircuitBuilder b("ppo");
  b.add_input("a");
  b.add_input("en");
  b.add_gate(GateType::Dff, "q", {"d"});
  b.add_gate(GateType::And, "d", {"a", "en"});
  b.add_gate(GateType::Buf, "o", {"q"});
  b.mark_output("o");
  const Circuit c = b.build();
  Podem podem(c);
  const Fault f{c.find("d"), sim::kStemPin, false};
  const PodemResult r = podem.generate(f);
  ASSERT_EQ(r.status, PodemStatus::Detected);
  const FaultList fl = FaultList::build(c);
  EXPECT_TRUE(cube_detects(c, fl, f, r.cube, 5));
}

// Property: on random circuits, every Detected cube really detects its
// fault, and every Untestable verdict is confirmed by exhaustive
// enumeration (the circuits are small enough to brute-force).
class PodemSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemSoundness, CubesDetectAndUntestableConfirmed) {
  gen::GenParams p;
  p.name = "pod";
  p.seed = GetParam() * 13 + 1;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 3;  // 7 assignable bits -> brute force 128 patterns
  p.num_gates = 35;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  Podem podem(c);

  for (FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const Fault& f = fl.representative(id);
    const PodemResult r = podem.generate(f);
    if (r.status == PodemStatus::Detected) {
      EXPECT_TRUE(cube_detects(c, fl, f, r.cube, GetParam()))
          << fault_name(f, c);
    } else if (r.status == PodemStatus::Untestable) {
      // Exhaustive check: no (state, input) pattern detects it.
      const std::size_t bits = c.num_inputs() + c.num_flip_flops();
      ASSERT_LE(bits, 16u);
      bool detected = false;
      for (std::uint64_t pat = 0; pat < (1ull << bits) && !detected;
           ++pat) {
        Vector3 inputs(c.num_inputs());
        Vector3 state(c.num_flip_flops());
        for (std::size_t i = 0; i < c.num_inputs(); ++i) {
          inputs[i] = sim::v3_from_bool((pat >> i) & 1);
        }
        for (std::size_t i = 0; i < c.num_flip_flops(); ++i) {
          state[i] = sim::v3_from_bool((pat >> (c.num_inputs() + i)) & 1);
        }
        sim::Sequence seq;
        seq.frames.push_back(inputs);
        detected = fsim.detect_scan_test(state, seq).test(id);
      }
      EXPECT_FALSE(detected)
          << fault_name(f, c) << " claimed untestable but a test exists";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemSoundness,
                         ::testing::Range<std::uint64_t>(1, 9));

// Golden PODEM digests: every collapsed class of a suite circuit is run
// through one Podem instance, and (class, status, backtracks, cube) is
// folded into an FNV-1a hash.  The search is deterministic, so any
// change to implication, the X-path check, the D-frontier order or
// backtrace shows up here as a different digest.  The expected values
// were captured from the reference (whole-circuit scan) implementation.
std::uint64_t podem_digest(const Circuit& c, const PodemOptions& opt) {
  const FaultList fl = FaultList::build(c);
  Podem podem(c, opt);
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const PodemResult r = podem.generate(fl.representative(id));
    mix(id);
    mix(static_cast<std::uint64_t>(r.status));
    mix(r.backtracks);
    for (const V3 v : r.cube.state) mix(static_cast<std::uint64_t>(v));
    for (const V3 v : r.cube.inputs) mix(static_cast<std::uint64_t>(v));
  }
  return h;
}

Circuit suite_circuit(const char* name) {
  const auto entry = gen::find_suite_entry(name);
  EXPECT_TRUE(entry.has_value()) << name;
  return gen::build_suite_circuit(*entry);
}

TEST(PodemGolden, FullScanDigestsMatchReference) {
  const std::pair<const char*, std::uint64_t> cases[] = {
      {"s298", 5817450444772142164ULL},
      {"s641", 4309429003933380887ULL},
      {"s1423", 14106937164869134436ULL},
  };
  for (const auto& [name, expected] : cases) {
    EXPECT_EQ(podem_digest(suite_circuit(name), {}), expected) << name;
  }
}

TEST(PodemGolden, PartialScanDigestMatchesReference) {
  // s641 under a fixed partial-scan mask: every third flip-flop and the
  // flip-flop that is also a primary output stay off the chain.  That
  // flip-flop's Q is then a permanently-X primary output, so the X-path
  // check's base mark on a source node (and the path it opens from the
  // flip-flop's D driver) is exercised.
  const Circuit c = suite_circuit("s641");
  const auto ffs = c.flip_flops();
  util::Bitset mask(ffs.size(), true);
  std::size_t unscanned_po_ffs = 0;
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (c.is_primary_output(ffs[i])) {
      mask.reset(i);
      ++unscanned_po_ffs;
    } else if (i % 3 == 0) {
      mask.reset(i);
    }
  }
  ASSERT_GE(unscanned_po_ffs, 1u);
  PodemOptions opt;
  opt.scan_mask = mask;
  opt.backtrack_limit = 200;  // most classes abort here; keep it quick
  EXPECT_EQ(podem_digest(c, opt), 15410180156522563031ULL);
}

TEST(CombTestSet, CoversS27Completely) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  const CombTestSet ts = generate_comb_test_set(c, fl, {});
  EXPECT_EQ(ts.aborted, 0u);
  // All of s27's 32 collapsed faults are combinationally testable.
  EXPECT_EQ(ts.proven_untestable, 0u);
  EXPECT_EQ(ts.detected.count(), fl.num_classes());
  EXPECT_GE(ts.tests.size(), 4u);
  EXPECT_LE(ts.tests.size(), 12u);
  // Tests are fully specified (random-filled).
  for (const CombTest& t : ts.tests) {
    EXPECT_TRUE(sim::fully_specified(t.state));
    EXPECT_TRUE(sim::fully_specified(t.inputs));
  }
}

// generate_comb_test_set under the Auto backend leaves no fault
// unresolved on a circuit PODEM aborts on: with a backtrack limit of one
// PODEM gives up on some classes (redundant ones need an exhausted
// search), and Auto's SAT fallback turns each into a test or a proof.
TEST(CombTestSet, AutoBackendResolvesEveryPodemAbort) {
  gen::GenParams p;
  p.name = "aborts";
  p.seed = 99;
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_flip_flops = 8;
  p.num_gates = 120;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  CombTestSetOptions opt;
  opt.podem.backtrack_limit = 1;
  const CombTestSet structural = generate_comb_test_set(c, fl, opt);
  ASSERT_GT(structural.aborted, 0u);  // the gap --atpg=auto closes
  opt.backend = AtpgBackend::Auto;
  const CombTestSet resolved = generate_comb_test_set(c, fl, opt);
  EXPECT_EQ(resolved.aborted, 0u);
  EXPECT_EQ(resolved.detected.count() + resolved.proven_untestable,
            fl.num_classes());
  EXPECT_EQ(resolved.untestable.count(), resolved.proven_untestable);
}

TEST(CombTestSet, ReverseCompactionPreservesCoverage) {
  gen::GenParams p;
  p.name = "rc";
  p.seed = 99;
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_flip_flops = 8;
  p.num_gates = 120;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  CombTestSetOptions opt;
  opt.compaction = TestSetCompaction::None;
  const CombTestSet raw = generate_comb_test_set(c, fl, opt);
  opt.compaction = TestSetCompaction::ReverseOrder;
  const CombTestSet reverse = generate_comb_test_set(c, fl, opt);
  opt.compaction = TestSetCompaction::GreedyCover;
  const CombTestSet compacted = generate_comb_test_set(c, fl, opt);
  EXPECT_EQ(reverse.detected, raw.detected);
  EXPECT_LE(reverse.tests.size(), raw.tests.size());
  EXPECT_LE(compacted.tests.size(), reverse.tests.size());
  EXPECT_EQ(compacted.detected, raw.detected);
  EXPECT_LE(compacted.tests.size(), raw.tests.size());

  // Re-simulating the compacted set reproduces exactly its claimed
  // coverage.
  FaultSimulator fsim(c, fl);
  FaultSet redetected(fl.num_classes());
  for (const CombTest& t : compacted.tests) {
    redetected |= detect_comb_test(fsim, t);
  }
  EXPECT_TRUE(redetected.contains(compacted.detected));
}

TEST(CombTestSet, RandomSourceCoversMostFaults) {
  gen::GenParams p;
  p.name = "rnd";
  p.seed = 7;
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_flip_flops = 6;
  p.num_gates = 100;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  const CombTestSet ts = generate_random_comb_test_set(c, fl, {});
  // Random patterns typically reach the bulk of the faults quickly.
  EXPECT_GE(ts.detected.count(), fl.num_classes() * 3 / 4);
  EXPECT_EQ(ts.proven_untestable, 0u);
}

TEST(CombTestSet, NDetectProvidesRepeatedDetections) {
  gen::GenParams p;
  p.name = "nd";
  p.seed = 55;
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_flip_flops = 6;
  p.num_gates = 80;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);

  CombTestSetOptions one;
  const CombTestSet t1 = generate_comb_test_set(c, fl, one);
  CombTestSetOptions three = one;
  three.n_detect = 3;
  const CombTestSet t3 = generate_comb_test_set(c, fl, three);

  // Same single-detection coverage, more tests overall.
  EXPECT_EQ(t3.detected, t1.detected);
  EXPECT_GE(t3.tests.size(), t1.tests.size());

  // Every detected fault is caught by min(3, achievable-by-set) distinct
  // tests; verify >= 2 detections for most (a strict per-fault bound of
  // "achievable" would need an exhaustive test enumeration).
  FaultSimulator fsim(c, fl);
  std::vector<int> hits(fl.num_classes(), 0);
  for (const CombTest& t : t3.tests) {
    detect_comb_test(fsim, t).for_each([&](std::size_t f) { ++hits[f]; });
  }
  std::size_t multi = 0;
  std::size_t detected = 0;
  t3.detected.for_each([&](std::size_t f) {
    ++detected;
    if (hits[f] >= 2) ++multi;
  });
  EXPECT_GE(multi * 10, detected * 7) << "most faults multiply detected";
}

TEST(CombTestSet, CheckpointTargetingKeepsExactCoverage) {
  gen::GenParams p;
  p.name = "cp";
  p.seed = 66;
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_flip_flops = 8;
  p.num_gates = 110;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);

  CombTestSetOptions full;
  const CombTestSet a = generate_comb_test_set(c, fl, full);
  CombTestSetOptions cps = full;
  cps.checkpoints_only = true;
  const CombTestSet b = generate_comb_test_set(c, fl, cps);

  // The fallback pass makes checkpoint targeting coverage-exact.
  EXPECT_EQ(b.detected.count(), a.detected.count());
  EXPECT_EQ(b.proven_untestable + b.aborted,
            a.proven_untestable + a.aborted);
}

TEST(CombTestSet, AtpgCoverageAtLeastRandomCoverage) {
  gen::GenParams p;
  p.name = "cmp";
  p.seed = 21;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 6;
  p.num_gates = 90;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  const CombTestSet atpg = generate_comb_test_set(c, fl, {});
  const CombTestSet rnd = generate_random_comb_test_set(c, fl, {});
  EXPECT_GE(atpg.detected.count(), rnd.detected.count());
}

}  // namespace
}  // namespace scanc::atpg
