#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/group_worker.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "netlist/circuit.hpp"
#include "sim/node_trace.hpp"
#include "test_util.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace scanc::fault {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;
using sim::Sequence;
using sim::Vector3;

Circuit make_and_chain() {
  netlist::CircuitBuilder b("andchain");
  b.add_input("a");
  b.add_input("b");
  b.add_input("c");
  b.add_gate(GateType::And, "x", {"a", "b"});
  b.add_gate(GateType::And, "y", {"x", "c"});
  b.mark_output("y");
  return b.build();
}

TEST(FaultList, EnumeratesStemsAndFanoutBranches) {
  // a feeds both gates -> fanout 2 -> branch faults exist for each sink.
  netlist::CircuitBuilder b("fan");
  b.add_input("a");
  b.add_gate(GateType::Not, "n1", {"a"});
  b.add_gate(GateType::Not, "n2", {"a"});
  b.mark_output("n1");
  b.mark_output("n2");
  const Circuit c = b.build();
  const FaultList fl = FaultList::build(c);
  // Stems: 3 nodes * 2 = 6.  Branches: two sinks of 'a' * 2 = 4.
  EXPECT_EQ(fl.num_faults(), 10u);
}

TEST(FaultList, NoBranchFaultsWithoutFanout) {
  const Circuit c = make_and_chain();
  const FaultList fl = FaultList::build(c);
  // 5 nodes, no stem has fanout > 1 -> stems only.
  EXPECT_EQ(fl.num_faults(), 10u);
  for (const Fault& f : fl.faults()) {
    EXPECT_EQ(f.pin, sim::kStemPin);
  }
}

TEST(FaultList, AndGateCollapsing) {
  const Circuit c = make_and_chain();
  const FaultList fl = FaultList::build(c);
  // AND input SA0 == output SA0: {a0,b0,x0} collapse, {x0(in),c0,y0}
  // collapse; the two classes share x0 so all five join one class.
  // Classes: {a/0,b/0,x/0,c/0,y/0}, {a/1},{b/1},{c/1},{x/1},{y/1}
  EXPECT_EQ(fl.num_classes(), 6u);
}

TEST(FaultList, NotGateCollapsesWithInversion) {
  netlist::CircuitBuilder b("inv");
  b.add_input("a");
  b.add_gate(GateType::Not, "n", {"a"});
  b.mark_output("n");
  const Circuit c = b.build();
  const FaultList fl = FaultList::build(c);
  // a/0 == n/1 and a/1 == n/0: 4 faults -> 2 classes.
  EXPECT_EQ(fl.num_faults(), 4u);
  EXPECT_EQ(fl.num_classes(), 2u);
}

TEST(FaultList, XorGateDoesNotCollapse) {
  netlist::CircuitBuilder b("x");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::Xor, "o", {"a", "b"});
  b.mark_output("o");
  const FaultList fl = FaultList::build(b.build());
  EXPECT_EQ(fl.num_classes(), fl.num_faults());
}

TEST(FaultList, DffBoundaryNotCollapsed) {
  netlist::CircuitBuilder b("ff");
  b.add_input("a");
  b.add_gate(GateType::Dff, "q", {"d"});
  b.add_gate(GateType::Buf, "d", {"a"});
  b.mark_output("q");
  const FaultList fl = FaultList::build(b.build());
  // a and d collapse through the BUF; q does not collapse with d.
  EXPECT_EQ(fl.num_classes(), 4u);
}

TEST(FaultList, S27FaultCounts) {
  const FaultList fl = FaultList::build(gen::make_s27());
  // 17 nodes * 2 stems = 34; fanout stems: G14(2), G8(2), G11(3), G12(2)
  // contribute 2+2+3+2 = 9 sinks * 2 = 18 branch faults.
  EXPECT_EQ(fl.num_faults(), 52u);
  // Collapsed count: hand-derived equivalences leave 32 classes.
  EXPECT_EQ(fl.num_classes(), 32u);
  // Every class id maps back to itself through its representative.
  for (FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const Fault& rep = fl.representative(id);
    bool found = false;
    for (std::size_t i = 0; i < fl.num_faults(); ++i) {
      if (fl.faults()[i] == rep) {
        EXPECT_EQ(fl.class_of(i), id);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(FaultName, FormatsStemAndBranch) {
  const Circuit c = gen::make_s27();
  const Fault stem{c.find("G17"), sim::kStemPin, false};
  EXPECT_EQ(fault_name(stem, c), "G17/SA0");
  const Fault branch{c.find("G8"), 1, true};
  EXPECT_EQ(fault_name(branch, c), "G8.in1/SA1");
}

TEST(FaultSim, DetectsStuckOutputOnS27) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  Sequence seq;
  seq.frames.push_back(sim::vector3_from_string("1111"));
  // Fault-free PO (G17) is 1; G17/SA0 must be caught immediately.
  const FaultSet det = fsim.detect_no_scan(seq);
  bool g17_sa0_detected = false;
  for (FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const Fault& rep = fl.representative(id);
    if (rep.node == c.find("G17") && rep.pin == sim::kStemPin &&
        !rep.value) {
      g17_sa0_detected = det.test(id);
    }
  }
  EXPECT_TRUE(g17_sa0_detected);
  EXPECT_GT(det.count(), 0u);
  EXPECT_LT(det.count(), fl.num_classes());
}

TEST(FaultSim, ScanObservationDetectsMoreThanPoObservation) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(11);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 6, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  const FaultSet po_only = fsim.detect_no_scan(seq);
  const FaultSet with_scan = fsim.detect_scan_test(si, seq);
  // Scan adds controllability and observability; on s27 it must not lose
  // detections and generally gains some.
  EXPECT_GE(with_scan.count(), po_only.count());
}

TEST(FaultSim, TargetRestrictionLimitsWork) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(12);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 8, rng);
  const FaultSet all = fsim.detect_no_scan(seq);

  FaultSet targets(fl.num_classes());
  targets.set(0);
  targets.set(fl.num_classes() - 1);
  const FaultSet restricted = fsim.detect_no_scan(seq, &targets);
  EXPECT_TRUE(targets.contains(restricted));
  EXPECT_EQ(restricted.test(0), all.test(0));
  EXPECT_EQ(restricted.test(fl.num_classes() - 1),
            all.test(fl.num_classes() - 1));
}

TEST(FaultSim, DetectsAllAgreesWithDetectSet) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(13);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 10, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  const FaultSet det = fsim.detect_scan_test(si, seq);
  EXPECT_TRUE(fsim.detects_all(si, seq, det));
  // Requiring one extra undetected fault must fail.
  FaultSet more = det;
  bool extended = false;
  for (FaultClassId id = 0; id < fl.num_classes() && !extended; ++id) {
    if (!more.test(id)) {
      more.set(id);
      extended = true;
    }
  }
  if (extended) {
    EXPECT_FALSE(fsim.detects_all(si, seq, more));
  }
}

TEST(FaultSim, DetectionTimesPrefixSemantics) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(14);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 12, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  FaultSet all(fl.num_classes());
  all.fill();
  const auto times = fsim.detection_times(si, seq, all);

  // The record's prefix coverage must equal an explicit simulation of the
  // truncated test, for every prefix length.
  for (std::size_t u = 0; u < seq.length(); ++u) {
    const Sequence prefix = seq.subsequence(0, u);
    const FaultSet det = fsim.detect_scan_test(si, prefix);
    for (std::size_t k = 0; k < times.targets.size(); ++k) {
      EXPECT_EQ(times.detected_by_prefix(k, u), det.test(times.targets[k]))
          << "fault " << fault_name(fl.representative(times.targets[k]), c)
          << " prefix " << u;
    }
  }
}

// Property: detection-time records reproduce explicit prefix simulation
// on generated circuits (s27 version above; this sweeps random ones).
class DetectionTimesProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectionTimesProperty, PrefixSemanticsOnRandomCircuits) {
  gen::GenParams p;
  p.name = "dt";
  p.seed = GetParam() * 41 + 9;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 5;
  p.num_gates = 40;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(GetParam() * 13 + 1);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 9, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  FaultSet all = fsim.all_faults();
  const auto times = fsim.detection_times(si, seq, all);
  // Check a few prefixes exhaustively.
  for (const std::size_t u : {2u, 5u, 8u}) {
    const FaultSet det = fsim.detect_scan_test(si, seq.subsequence(0, u));
    for (std::size_t k = 0; k < times.targets.size(); ++k) {
      EXPECT_EQ(times.detected_by_prefix(k, u), det.test(times.targets[k]))
          << "prefix " << u;
    }
  }
  // prefix_detection agrees with detect_scan_test on the full test.
  const auto light = fsim.prefix_detection(si, seq, all);
  EXPECT_EQ(light.detected, fsim.detect_scan_test(si, seq));
  // first_po times agree between the light and full records.
  for (std::size_t k = 0; k < times.targets.size(); ++k) {
    EXPECT_EQ(light.first_po[k], times.first_po[k]) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectionTimesProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

// Regression: PrefixDetection::all_detected() must check the targets
// actually simulated.  `detected` is indexed per *class* while `targets`
// is the simulated subset, so a count()-vs-size comparison breaks as
// soon as `detected` carries class bits outside that subset.
TEST(FaultSim, PrefixAllDetectedChecksSimulatedTargets) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(23);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 12, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);

  // Non-trivial targets filter: exactly the classes the test covers.
  const FaultSet covered = fsim.detect_scan_test(si, seq);
  ASSERT_FALSE(covered.none());
  auto result = fsim.prefix_detection(si, seq, covered);
  EXPECT_TRUE(result.all_detected());

  // Merging unrelated per-class coverage into `detected` (count now
  // exceeds targets.size()) must not flip the answer.
  FaultSet extra(fl.num_classes());
  for (std::size_t i = 0; i < extra.size(); ++i) {
    if (!covered.test(i)) extra.set(i);
  }
  result.detected |= extra;
  EXPECT_TRUE(result.all_detected());

  // A targets filter containing an uncovered class must report false
  // even though other classes push the detected count past size().
  if (!extra.none()) {
    FaultSet with_missing = covered;
    with_missing.set(extra.find_first());
    const auto miss = fsim.prefix_detection(si, seq, with_missing);
    EXPECT_FALSE(miss.all_detected());
  }

  // Hand-built record pinning the per-class semantics.
  FaultSimulator::PrefixDetection pd;
  pd.targets = {0, 1};
  pd.first_po = {-1, -1};
  pd.detected = FaultSet(fl.num_classes());
  pd.detected.set(0);
  pd.detected.set(2);  // stray non-target class bits
  pd.detected.set(3);
  EXPECT_FALSE(pd.all_detected());  // target 1 missing
  pd.detected.set(1);
  EXPECT_TRUE(pd.all_detected());   // count() == 4 > targets.size() == 2
}

TEST(Session, LatchedEffectsCountsBinaryDifferences) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  FaultSet targets = fsim.all_faults();
  FaultSimulator::Session session(fsim, targets);
  EXPECT_EQ(session.latched_effects(), 0u);  // all-X start: no effects
  util::Rng rng(4);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 6, rng);
  std::size_t effects = 0;
  for (const auto& v : seq.frames) {
    (void)session.step(v);
    effects = std::max(effects, session.latched_effects());
  }
  EXPECT_GT(effects, 0u);  // some fault effect reaches the state
}

// Property: the parallel-fault simulator agrees with the independent
// serial single-fault golden model on random circuits.
class ParallelVsSerial : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelVsSerial, DetectionAgrees) {
  gen::GenParams p;
  p.name = "pv";
  p.seed = GetParam() * 31 + 5;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 5;
  p.num_gates = 40;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);

  util::Rng rng(GetParam() * 101 + 7);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 10, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);

  const FaultSet no_scan = fsim.detect_no_scan(seq);
  const FaultSet scan = fsim.detect_scan_test(si, seq);
  for (FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const Fault& rep = fl.representative(id);
    EXPECT_EQ(no_scan.test(id),
              test::serial_detects(c, rep, nullptr, seq, false))
        << "no-scan " << fault_name(rep, c);
    EXPECT_EQ(scan.test(id), test::serial_detects(c, rep, &si, seq, true))
        << "scan " << fault_name(rep, c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelVsSerial,
                         ::testing::Range<std::uint64_t>(1, 13));

// Property: all members of a collapsed class behave identically.
class CollapseSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CollapseSoundness, ClassMembersIndistinguishable) {
  gen::GenParams p;
  p.name = "cs";
  p.seed = GetParam() * 77 + 3;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 4;
  p.num_gates = 30;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);

  util::Rng rng(GetParam() * 997 + 1);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 8, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);

  // Every fault must be detected iff its representative is detected.
  for (std::size_t i = 0; i < fl.num_faults(); ++i) {
    const Fault& f = fl.faults()[i];
    const Fault& rep = fl.representative(fl.class_of(i));
    EXPECT_EQ(test::serial_detects(c, f, &si, seq, true),
              test::serial_detects(c, rep, &si, seq, true))
        << fault_name(f, c) << " vs " << fault_name(rep, c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapseSoundness,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------
// GroupWorker golden work: every pass under every (scan mask, fault
// model, kernel) combination, on one generated circuit.  Each row pins
// a digest of the pass results over every group and the kernel
// counters the passes added, so any change to what a pass returns or to
// how many frames it simulates, skips or activates shows up here.

namespace golden {

struct Row {
  std::string name;  // "<scan>/<model>/<kernel>/<pass>"
  std::uint64_t digest;
  std::uint64_t frames_simulated;
  std::uint64_t frames_skipped;
  std::uint64_t tdf_activations;
  std::uint64_t tdf_frames_skipped;
  std::uint64_t full_passes;
  std::uint64_t cone_passes;
};

struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

// Observed responses for the consistency pass: the fault-free response
// with every seventh PO value unknown and the first scan-out position
// flipped, so detected faults mismatch during the test and every
// machine mismatches at scan-out.
void make_observation(const Circuit& c, const sim::NodeTrace& trace,
                      std::vector<Vector3>& pos, Vector3& scan_out) {
  const auto po_ids = c.primary_outputs();
  pos.clear();
  std::size_t k = 0;
  for (std::size_t t = 0; t < trace.length(); ++t) {
    Vector3 v(po_ids.size(), sim::V3::X);
    for (std::size_t i = 0; i < po_ids.size(); ++i, ++k) {
      if (k % 7 != 3) v[i] = trace.value(t, po_ids[i]);
    }
    pos.push_back(std::move(v));
  }
  scan_out = trace.state_at_start(trace.length());
  if (sim::is_binary(scan_out[0])) {
    scan_out[0] = scan_out[0] == sim::V3::One ? sim::V3::Zero : sim::V3::One;
  }
}

std::vector<Row> run_all() {
  const Circuit c = gen::tiled_circuit(2);
  util::Rng rng(2024);
  const Vector3 scan_in = sim::random_vector(c.num_flip_flops(), rng);
  // Inputs held for three frames at a time: quiet stretches let the
  // cone kernel skip frames.
  Sequence seq;
  for (std::size_t t = 0; t < 24; ++t) {
    seq.frames.push_back(t % 3 == 0 ? sim::random_vector(c.num_inputs(), rng)
                                    : seq.frames.back());
  }
  util::Bitset partial(c.num_flip_flops(), true);
  for (std::size_t i = 0; i < partial.size(); i += 3) partial.reset(i);

  std::vector<Row> rows;
  for (const bool full_scan : {true, false}) {
    const util::Bitset mask =
        full_scan ? util::Bitset(c.num_flip_flops(), true) : partial;
    Vector3 masked = scan_in;
    for (std::size_t i = 0; i < masked.size(); ++i) {
      if (!mask.test(i)) masked[i] = sim::V3::X;
    }
    sim::NodeTrace trace(c, &masked);
    trace.extend(seq.frames);
    sim::NodeTrace no_scan_trace(c, nullptr);
    no_scan_trace.extend(seq.frames);
    std::vector<Vector3> obs_pos;
    Vector3 obs_scan_out;
    make_observation(c, trace, obs_pos, obs_scan_out);

    for (const FaultModel* model :
         {&FaultModel::stuck_at(), &FaultModel::transition()}) {
      const FaultList faults = FaultList::build(c, *model);
      // Group sizes cycle through 63, 1, 7 and 2: small groups are the
      // ones whose cones go quiet.
      std::vector<std::vector<FaultClassId>> groups;
      const std::size_t sizes[] = {63, 1, 7, 2};
      for (FaultClassId id = 0; id < faults.num_classes(); ++id) {
        if (groups.empty() ||
            groups.back().size() == sizes[(groups.size() - 1) % 4]) {
          groups.emplace_back();
        }
        groups.back().push_back(id);
      }
      for (const bool cone : {false, true}) {
        GroupWorker w(c, faults, mask);
        const KernelChoice kc{&trace, cone};
        const KernelChoice no_scan_kc{&no_scan_trace, cone};
        for (const char* pass : {"detect", "times", "prefix", "consistency"}) {
          const std::string p = pass;
          Digest d;
          const obs::CounterSnapshot before = obs::snapshot_counters();
          for (const auto& g : groups) {
            const std::uint64_t slots = group_slot_mask(g.size());
            std::vector<std::int64_t> first_po(g.size(), -1);
            if (p == "detect") {
              d.add(w.run_detect(&scan_in, seq, g, true, false, nullptr,
                                 nullptr, kc));
              d.add(w.run_detect(&scan_in, seq, g, true, true, nullptr,
                                 nullptr, kc));
              d.add(w.run_detect(nullptr, seq, g, false, true, nullptr,
                                 nullptr, no_scan_kc));
            } else if (p == "times") {
              std::vector<util::Bitset> state_diff(g.size(),
                                                   util::Bitset(seq.length()));
              w.run_times(scan_in, seq, g, first_po, state_diff, nullptr, kc);
              for (std::size_t j = 0; j < g.size(); ++j) {
                d.add(static_cast<std::uint64_t>(first_po[j]));
                for (std::size_t t = 0; t < seq.length(); ++t) {
                  if (state_diff[j].test(t)) d.add(t);
                }
                d.add(~0ULL);
              }
            } else if (p == "prefix") {
              d.add(w.run_prefix(scan_in, seq, g, first_po, nullptr, kc));
              for (const std::int64_t f : first_po) {
                d.add(static_cast<std::uint64_t>(f));
              }
            } else {
              d.add(w.run_consistency(scan_in, seq, obs_pos, obs_scan_out, g,
                                      nullptr, kc) &
                    slots);
            }
          }
          const obs::CounterSnapshot delta =
              obs::counter_delta(obs::snapshot_counters(), before);
          const auto at = [&delta](obs::Counter x) {
            return delta[static_cast<std::size_t>(x)];
          };
          rows.push_back(Row{std::string(full_scan ? "full" : "partial") +
                                 "/" + (model->frame_gated() ? "tdf" : "sa") +
                                 "/" + (cone ? "cone" : "full") + "/" + p,
                             d.h,
                             at(obs::Counter::FramesSimulated),
                             at(obs::Counter::FramesSkipped),
                             at(obs::Counter::TdfActivations),
                             at(obs::Counter::TdfFramesSkipped),
                             at(obs::Counter::FullPasses),
                             at(obs::Counter::ConePasses)});
        }
      }
    }
  }
  return rows;
}

}  // namespace golden

TEST(GroupWorkerGolden, EveryPassMatchesReferenceWork) {
  const golden::Row expected[] = {
      {"full/sa/full/detect", 337494412111756093ULL,
       13845, 0, 0, 0, 645, 0},
      {"full/sa/full/times", 5358195476393144316ULL,
       5160, 0, 0, 0, 215, 0},
      {"full/sa/full/prefix", 480446917816867930ULL,
       4259, 0, 0, 0, 215, 0},
      {"full/sa/full/consistency", 3126162984987563549ULL,
       4284, 0, 0, 0, 215, 0},
      {"full/sa/cone/detect", 337494412111756093ULL,
       11542, 2303, 0, 0, 0, 645},
      {"full/sa/cone/times", 5358195476393144316ULL,
       4232, 928, 0, 0, 0, 215},
      {"full/sa/cone/prefix", 480446917816867930ULL,
       3571, 688, 0, 0, 0, 215},
      {"full/sa/cone/consistency", 3126162984987563549ULL,
       3590, 694, 0, 0, 0, 215},
      {"full/tdf/full/detect", 17151011716677580691ULL,
       3227, 0, 12661, 5009, 363, 0},
      {"full/tdf/full/times", 2720046848179937765ULL,
       1173, 0, 4600, 1731, 121, 0},
      {"full/tdf/full/prefix", 2293990727201517979ULL,
       1079, 0, 4252, 1551, 121, 0},
      {"full/tdf/full/consistency", 12440968289629962426ULL,
       1094, 0, 4318, 1575, 121, 0},
      {"full/tdf/cone/detect", 17151011716677580691ULL,
       3227, 0, 12661, 5009, 0, 363},
      {"full/tdf/cone/times", 2720046848179937765ULL,
       1173, 0, 4600, 1731, 0, 121},
      {"full/tdf/cone/prefix", 2293990727201517979ULL,
       1079, 0, 4252, 1551, 0, 121},
      {"full/tdf/cone/consistency", 12440968289629962426ULL,
       1094, 0, 4318, 1575, 0, 121},
      {"partial/sa/full/detect", 6414643933253609257ULL,
       14011, 0, 0, 0, 645, 0},
      {"partial/sa/full/times", 2964136977368007780ULL,
       5160, 0, 0, 0, 215, 0},
      {"partial/sa/full/prefix", 9169315587871855275ULL,
       4425, 0, 0, 0, 215, 0},
      {"partial/sa/full/consistency", 15833453266091544059ULL,
       4450, 0, 0, 0, 215, 0},
      {"partial/sa/cone/detect", 6414643933253609257ULL,
       11726, 2285, 0, 0, 0, 645},
      {"partial/sa/cone/times", 2964136977368007780ULL,
       4262, 898, 0, 0, 0, 215},
      {"partial/sa/cone/prefix", 9169315587871855275ULL,
       3725, 700, 0, 0, 0, 215},
      {"partial/sa/cone/consistency", 15833453266091544059ULL,
       3745, 705, 0, 0, 0, 215},
      {"partial/tdf/full/detect", 3882663656569675683ULL,
       3089, 0, 11911, 5219, 363, 0},
      {"partial/tdf/full/times", 5805993721895101653ULL,
       1093, 0, 4195, 1811, 121, 0},
      {"partial/tdf/full/prefix", 17757536764832312851ULL,
       1021, 0, 3907, 1681, 121, 0},
      {"partial/tdf/full/consistency", 18395021426437981364ULL,
       1031, 0, 3942, 1688, 121, 0},
      {"partial/tdf/cone/detect", 3882663656569675683ULL,
       3089, 0, 11911, 5219, 0, 363},
      {"partial/tdf/cone/times", 5805993721895101653ULL,
       1093, 0, 4195, 1811, 0, 121},
      {"partial/tdf/cone/prefix", 17757536764832312851ULL,
       1021, 0, 3907, 1681, 0, 121},
      {"partial/tdf/cone/consistency", 18395021426437981364ULL,
       1031, 0, 3942, 1688, 0, 121},
  };
  const std::vector<golden::Row> got = golden::run_all();
  ASSERT_EQ(got.size(), std::size(expected)) << [&] {
    std::string s;
    for (const golden::Row& r : got) {
      s += "      {\"" + r.name + "\", " +
           std::to_string(r.digest) + "ULL, " +
           std::to_string(r.frames_simulated) + ", " +
           std::to_string(r.frames_skipped) + ", " +
           std::to_string(r.tdf_activations) + ", " +
           std::to_string(r.tdf_frames_skipped) + ", " +
           std::to_string(r.full_passes) + ", " +
           std::to_string(r.cone_passes) + "},\n";
    }
    return s;
  }();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const golden::Row& e = expected[i];
    const golden::Row& g = got[i];
    SCOPED_TRACE(g.name);
    EXPECT_EQ(g.name, e.name);
    EXPECT_EQ(g.digest, e.digest);
    EXPECT_EQ(g.frames_simulated, e.frames_simulated);
    EXPECT_EQ(g.frames_skipped, e.frames_skipped);
    EXPECT_EQ(g.tdf_activations, e.tdf_activations);
    EXPECT_EQ(g.tdf_frames_skipped, e.tdf_frames_skipped);
    EXPECT_EQ(g.full_passes, e.full_passes);
    EXPECT_EQ(g.cone_passes, e.cone_passes);
  }
}

}  // namespace
}  // namespace scanc::fault
