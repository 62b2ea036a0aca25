// Unit tests for the flat simulation kernel substrate: the CSR/levelized
// schedule (netlist/csr.hpp), the shared fault-free NodeTrace and its
// prefix-aware cache (sim/node_trace.hpp, sim/trace_cache.hpp), and the
// per-group cone precomputation (sim/cone_kernel.hpp).  The end-to-end
// cone-vs-full equivalence sweeps live in parallel_equiv_test.cpp; these
// tests pin the structural invariants each layer promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/group_worker.hpp"
#include "gen/circuit_gen.hpp"
#include "netlist/circuit.hpp"
#include "netlist/csr.hpp"
#include "sim/cone_kernel.hpp"
#include "sim/node_trace.hpp"
#include "sim/seq_sim.hpp"
#include "sim/trace_cache.hpp"
#include "tgen/random_seq.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace scanc {
namespace {

using netlist::CsrSchedule;
using netlist::GateType;
using netlist::NodeId;
using sim::Sequence;
using sim::V3;
using sim::Vector3;

netlist::Circuit make_circuit(std::uint64_t seed, std::size_t gates = 180) {
  gen::GenParams p;
  p.name = "csr";
  p.seed = seed;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 9;
  p.num_gates = gates;
  return gen::generate_circuit(p);
}

// --- CsrSchedule ------------------------------------------------------

TEST(CsrSchedule, MirrorsNodeConnectivity) {
  const netlist::Circuit c = make_circuit(11);
  const CsrSchedule& csr = c.csr();
  ASSERT_EQ(csr.num_nodes(), c.num_nodes());
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    const netlist::Node& n = c.node(id);
    EXPECT_EQ(csr.types[id], n.type);
    const std::span<const NodeId> fi = csr.fanins(id);
    ASSERT_EQ(fi.size(), n.fanins.size());
    EXPECT_TRUE(std::equal(fi.begin(), fi.end(), n.fanins.begin()));
    const std::span<const NodeId> fo = csr.fanouts(id);
    ASSERT_EQ(fo.size(), n.fanouts.size());
    EXPECT_TRUE(std::equal(fo.begin(), fo.end(), n.fanouts.begin()));
  }
}

TEST(CsrSchedule, OrderIsLevelMajorAndComplete) {
  const netlist::Circuit c = make_circuit(12);
  const CsrSchedule& csr = c.csr();
  ASSERT_EQ(csr.order.size(), c.num_gates());

  // Every combinational gate appears exactly once; sources never do.
  std::set<NodeId> seen(csr.order.begin(), csr.order.end());
  ASSERT_EQ(seen.size(), csr.order.size());
  for (const NodeId id : csr.order) {
    EXPECT_TRUE(netlist::is_combinational(c.node(id).type));
  }

  // Level-major, ascending NodeId within a level, topologically valid.
  for (std::size_t i = 0; i + 1 < csr.order.size(); ++i) {
    const std::uint32_t la = c.node(csr.order[i]).level;
    const std::uint32_t lb = c.node(csr.order[i + 1]).level;
    EXPECT_LE(la, lb);
    if (la == lb) {
      EXPECT_LT(csr.order[i], csr.order[i + 1]);
    }
  }
  for (const NodeId id : csr.order) {
    for (const NodeId f : csr.fanins(id)) {
      EXPECT_LT(c.node(f).level, c.node(id).level);
    }
  }
}

TEST(CsrSchedule, LevelOffsetsSliceTheOrder) {
  const netlist::Circuit c = make_circuit(13);
  const CsrSchedule& csr = c.csr();
  ASSERT_EQ(csr.level_offsets.size(), c.depth() + 1);
  EXPECT_EQ(csr.level_offsets.front(), 0u);
  EXPECT_EQ(csr.level_offsets.back(), csr.order.size());
  for (std::uint32_t l = 1; l <= c.depth(); ++l) {
    for (std::uint32_t i = csr.level_offsets[l - 1];
         i < csr.level_offsets[l]; ++i) {
      EXPECT_EQ(c.node(csr.order[i]).level, l);
    }
  }
}

TEST(CsrSchedule, RankInvertsTheOrder) {
  const netlist::Circuit c = make_circuit(14);
  const CsrSchedule& csr = c.csr();
  ASSERT_EQ(csr.rank.size(), c.num_nodes());
  for (std::size_t i = 0; i < csr.order.size(); ++i) {
    EXPECT_EQ(csr.rank[csr.order[i]], i);
  }
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    if (netlist::is_source(c.node(id).type)) {
      EXPECT_EQ(csr.rank[id], netlist::kNoRank);
    }
  }
}

// --- NodeTrace --------------------------------------------------------

TEST(NodeTrace, MatchesReferenceSimulators) {
  const netlist::Circuit c = make_circuit(21);
  util::Rng rng(99);
  const Vector3 scan_in = sim::random_vector(c.num_flip_flops(), rng);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 17, rng);

  sim::NodeTrace trace(c, &scan_in);
  trace.extend(seq.frames);
  ASSERT_EQ(trace.length(), seq.length());

  const sim::Trace packed = sim::simulate_fault_free(c, &scan_in, seq);
  const sim::Trace scalar =
      sim::simulate_fault_free_scalar(c, &scan_in, seq);
  for (std::size_t t = 0; t < seq.length(); ++t) {
    const std::span<const NodeId> pos = c.primary_outputs();
    for (std::size_t j = 0; j < pos.size(); ++j) {
      EXPECT_EQ(trace.value(t, pos[j]), packed.po_frames[t][j]);
      EXPECT_EQ(trace.value(t, pos[j]), scalar.po_frames[t][j]);
    }
    // state_at_start(t + 1) is the state after latching frame t.
    const Vector3 st = trace.state_at_start(t + 1);
    EXPECT_EQ(st, packed.states[t]);
    EXPECT_EQ(st, scalar.states[t]);
  }
  EXPECT_EQ(trace.state_at_start(0), scan_in);
  EXPECT_EQ(trace.initial_state(), scan_in);
}

TEST(NodeTrace, ExtendsIncrementally) {
  const netlist::Circuit c = make_circuit(22);
  util::Rng rng(7);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 12, rng);

  // One shot vs two extends vs a prefix copy + extend: identical frames.
  sim::NodeTrace whole(c, nullptr);
  whole.extend(seq.frames);
  sim::NodeTrace stepped(c, nullptr);
  stepped.extend(std::span<const Vector3>(seq.frames).first(5));
  sim::NodeTrace copied(stepped, 5);
  stepped.extend(std::span<const Vector3>(seq.frames).subspan(5));
  copied.extend(std::span<const Vector3>(seq.frames).subspan(5));
  ASSERT_EQ(stepped.length(), seq.length());
  ASSERT_EQ(copied.length(), seq.length());
  for (std::size_t t = 0; t < seq.length(); ++t) {
    const std::span<const V3> a = whole.frame(t);
    const std::span<const V3> b = stepped.frame(t);
    const std::span<const V3> d = copied.frame(t);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    EXPECT_TRUE(std::equal(a.begin(), a.end(), d.begin()));
  }
}

// --- TraceCache -------------------------------------------------------

TEST(TraceCache, HitExtendAndPartialReuse) {
  const netlist::Circuit c = make_circuit(31);
  util::Rng rng(5);
  const Vector3 scan_in = sim::random_vector(c.num_flip_flops(), rng);
  Sequence seq = sim::random_sequence(c.num_inputs(), 10, rng);

  sim::TraceCache cache(c);
  const auto t1 = cache.get(&scan_in, seq);
  EXPECT_EQ(cache.misses(), 1u);
  ASSERT_GE(t1->length(), seq.length());

  // Exact repeat: same trace object, no new work.
  const auto t2 = cache.get(&scan_in, seq);
  EXPECT_EQ(t2.get(), t1.get());
  EXPECT_EQ(cache.hits(), 1u);

  // Prefix query: the longer cached trace serves it unchanged.
  Sequence shorter = seq;
  shorter.frames.resize(6);
  const auto t3 = cache.get(&scan_in, shorter);
  EXPECT_EQ(t3.get(), t1.get());
  EXPECT_EQ(cache.hits(), 2u);

  // Extension: cached trace is a prefix of the query.  The outstanding
  // shared_ptrs must keep seeing the old frames (copy-on-write).
  Sequence longer = seq;
  util::Rng rng2(6);
  for (int i = 0; i < 4; ++i) {
    longer.frames.push_back(sim::random_vector(c.num_inputs(), rng2));
  }
  const auto t4 = cache.get(&scan_in, longer);
  EXPECT_EQ(cache.extensions(), 1u);
  ASSERT_GE(t4->length(), longer.length());
  EXPECT_EQ(t1->length(), seq.length());

  // Partial overlap: same first 6 frames, divergent tail -> the common
  // prefix is copied, only the tail is re-simulated.
  Sequence branched = seq;
  branched.frames.resize(6);
  for (int i = 0; i < 5; ++i) {
    branched.frames.push_back(sim::random_vector(c.num_inputs(), rng2));
  }
  const auto t5 = cache.get(&scan_in, branched);
  EXPECT_EQ(cache.partial_reuses(), 1u);
  const sim::Trace ref = sim::simulate_fault_free(c, &scan_in, branched);
  const std::span<const NodeId> pos = c.primary_outputs();
  for (std::size_t t = 0; t < branched.length(); ++t) {
    for (std::size_t j = 0; j < pos.size(); ++j) {
      EXPECT_EQ(t5->value(t, pos[j]), ref.po_frames[t][j]);
    }
  }
}

TEST(TraceCache, DistinguishesScanStates) {
  const netlist::Circuit c = make_circuit(32);
  util::Rng rng(8);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 8, rng);
  Vector3 a = sim::random_vector(c.num_flip_flops(), rng);
  Vector3 b = a;
  b[0] = b[0] == V3::One ? V3::Zero : V3::One;

  sim::TraceCache cache(c);
  const auto ta = cache.get(&a, seq);
  const auto tb = cache.get(&b, seq);
  const auto tn = cache.get(nullptr, seq);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_NE(ta.get(), tb.get());
  EXPECT_NE(ta.get(), tn.get());
  EXPECT_EQ(ta->initial_state(), a);
  EXPECT_EQ(tb->initial_state(), b);
}

TEST(TraceCache, EvictsLeastRecentlyUsed) {
  const netlist::Circuit c = make_circuit(33);
  util::Rng rng(9);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 4, rng);
  std::vector<Vector3> keys;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(sim::random_vector(c.num_flip_flops(), rng));
  }

  sim::TraceCache cache(c, /*capacity=*/2);
  (void)cache.get(&keys[0], seq);
  (void)cache.get(&keys[1], seq);
  (void)cache.get(&keys[0], seq);  // refresh key 0
  (void)cache.get(&keys[2], seq);  // evicts key 1
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get(&keys[0], seq);
  EXPECT_EQ(cache.hits(), 2u);
  (void)cache.get(&keys[1], seq);  // was evicted -> miss
  EXPECT_EQ(cache.misses(), 4u);
}

// --- ConePlan ---------------------------------------------------------

std::vector<sim::ConeSite> sites_of(const fault::FaultList& faults,
                                    std::span<const fault::FaultClassId> ids) {
  std::vector<sim::ConeSite> sites;
  for (const fault::FaultClassId id : ids) {
    const fault::Fault& f = faults.representative(id);
    sites.push_back(sim::ConeSite{f.node, f.pin, f.value});
  }
  return sites;
}

TEST(ConePlan, ClosureScheduleAndBoundary) {
  const netlist::Circuit c = make_circuit(41, 240);
  const fault::FaultList faults = fault::FaultList::build(c);
  const CsrSchedule& csr = c.csr();

  // A few groups of different sizes, spread across the class list.
  util::Rng rng(41);
  for (const std::size_t group_size : {1u, 7u, 63u}) {
    std::vector<fault::FaultClassId> ids;
    for (std::size_t j = 0; j < group_size; ++j) {
      ids.push_back(static_cast<fault::FaultClassId>(
          rng.below(faults.num_classes())));
    }
    const std::vector<sim::ConeSite> sites = sites_of(faults, ids);
    sim::ConePlan plan;
    plan.build(c, sites);

    // Sequential closure: every fanout of an in-cone node is in-cone
    // (divergence propagates through gates *and* flip-flops).
    for (NodeId id = 0; id < c.num_nodes(); ++id) {
      if (!plan.in_cone(id)) continue;
      for (const NodeId out : csr.fanouts(id)) {
        EXPECT_TRUE(plan.in_cone(out)) << "fanout " << out << " of " << id;
      }
    }
    for (const sim::ConeSite& s : sites) EXPECT_TRUE(plan.in_cone(s.node));

    // eval() is exactly the in-cone combinational gates, in strictly
    // increasing CSR rank (level-major sub-order of csr.order).
    std::size_t in_cone_gates = 0;
    for (const NodeId id : csr.order) {
      if (plan.in_cone(id)) ++in_cone_gates;
    }
    ASSERT_EQ(plan.eval().size(), in_cone_gates);
    for (std::size_t i = 0; i < plan.eval().size(); ++i) {
      EXPECT_TRUE(plan.in_cone(plan.eval()[i]));
      EXPECT_TRUE(netlist::is_combinational(c.node(plan.eval()[i]).type));
      if (i > 0) {
        EXPECT_LT(csr.rank[plan.eval()[i - 1]], csr.rank[plan.eval()[i]]);
      }
    }

    // Boundary completeness: every value the cone evaluation reads is
    // either produced inside the cone or seeded from the trace.
    std::vector<char> produced(c.num_nodes(), 0);
    for (const NodeId id : plan.eval()) produced[id] = 1;
    for (const NodeId ff : plan.cone_ffs()) produced[ff] = 1;
    std::vector<char> seeded(c.num_nodes(), 0);
    for (const NodeId id : plan.boundary()) seeded[id] = 1;
    const auto covered = [&](NodeId id) {
      return produced[id] != 0 || seeded[id] != 0;
    };
    for (const NodeId id : plan.eval()) {
      for (const NodeId f : csr.fanins(id)) {
        EXPECT_TRUE(covered(f)) << "fanin " << f << " of gate " << id;
      }
    }
    for (const NodeId ff : plan.cone_ffs()) {
      EXPECT_TRUE(covered(csr.fanins(ff)[0])) << "D fanin of FF " << ff;
    }

    // FF/PO membership mirrors in_cone over the declaration lists.
    const std::span<const NodeId> ffs = c.flip_flops();
    std::size_t k = 0;
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      if (!plan.in_cone(ffs[i])) continue;
      ASSERT_LT(k, plan.cone_ffs().size());
      EXPECT_EQ(plan.cone_ffs()[k], ffs[i]);
      EXPECT_EQ(plan.cone_ff_pos()[k], i);
      ++k;
    }
    EXPECT_EQ(k, plan.cone_ffs().size());
    for (const NodeId po : plan.cone_pos()) EXPECT_TRUE(plan.in_cone(po));

    // Activation lines: one per site; the stem line is the site node,
    // a branch line is the driving fanin.
    ASSERT_EQ(plan.act_lines().size(), sites.size());
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const sim::ConeSite& s = sites[i];
      const NodeId expect_line =
          s.pin == sim::kStemPin
              ? s.node
              : csr.fanins(s.node)[static_cast<std::size_t>(s.pin)];
      EXPECT_EQ(plan.act_lines()[i], expect_line);
      EXPECT_EQ(plan.act_stuck_one()[i] != 0, s.stuck_one);
    }
  }
}

// Direct worker-level check: one group, forced cone vs full kernel.
TEST(ConeKernel, WorkerDetectMasksMatchFullKernel) {
  const netlist::Circuit c = make_circuit(42, 260);
  const fault::FaultList faults = fault::FaultList::build(c);
  util::Rng rng(55);
  const Vector3 scan_in = sim::random_vector(c.num_flip_flops(), rng);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 24, rng);

  sim::NodeTrace trace(c, &scan_in);
  trace.extend(seq.frames);

  const util::Bitset scan_mask(c.num_flip_flops(), true);
  fault::GroupWorker full_w(c, faults, scan_mask);
  fault::GroupWorker cone_w(c, faults, scan_mask);
  std::vector<fault::FaultClassId> group;
  for (fault::FaultClassId id = 0;
       id < std::min<std::size_t>(faults.num_classes(), 63); ++id) {
    group.push_back(id);
  }
  const std::uint64_t full_mask = full_w.run_detect(
      &scan_in, seq, group, /*observe_scan_out=*/true, /*early_exit=*/false);
  const fault::KernelChoice kc{&trace, /*cone=*/true};
  const std::uint64_t cone_mask = cone_w.run_detect(
      &scan_in, seq, group, /*observe_scan_out=*/true, /*early_exit=*/false,
      nullptr, nullptr, kc);
  EXPECT_EQ(full_mask, cone_mask);
}

// Auto decides cone vs full from structure before any fault-free trace
// is built.  On BM_KernelCone's largest (16-block) tiled circuit a
// group's union cone is a small slice of the chip, so Auto must still
// take the cone — with one trace for the query and results equal to the
// full kernel's.
TEST(ConeKernel, AutoStillPicksConeOnTiledCircuit) {
  const netlist::Circuit c = gen::tiled_circuit(16);
  const fault::FaultList faults = fault::FaultList::build(c);
  const Sequence seq = tgen::random_test_sequence(c, 32, 11);
  util::Rng rng(3);
  const Vector3 scan_in = sim::random_vector(c.num_flip_flops(), rng);

  fault::FaultSimulator auto_sim(c, faults);
  const obs::CounterSnapshot before = obs::snapshot_counters();
  const fault::FaultSet got = auto_sim.detect_scan_test(scan_in, seq);
  const obs::CounterSnapshot d =
      obs::counter_delta(obs::snapshot_counters(), before);
  const auto at = [&d](obs::Counter x) {
    return d[static_cast<std::size_t>(x)];
  };
  EXPECT_GT(at(obs::Counter::ConePasses), 0u);
  EXPECT_EQ(at(obs::Counter::TraceCacheMisses), 1u);

  fault::FaultSimulator full_sim(c, faults);
  full_sim.set_kernel(fault::KernelMode::Full);
  EXPECT_EQ(got, full_sim.detect_scan_test(scan_in, seq));
}

}  // namespace
}  // namespace scanc
