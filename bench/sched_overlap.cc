// Scheduler overlap benchmark (the dataflow scheduler's headline number):
// sequential blocking-pipelined execution vs tile-task dataflow-scheduled
// execution of the two multi-wavefront applications, under the paper's
// T3E-like calibration.
//
//   * SWEEP3D: all 8 octants x all angles, both sides one lowered graph.
//     Sequentially (one phi slot on static FIFO, what sweep3d_spmd runs)
//     each (octant, angle) instance sweeps to completion before the next
//     starts; the scheduler keeps several instances in flight over four
//     slots so opposite octants fill each other's pipeline bubbles.
//   * Alternating sweep (ADI-style): the scheduler pipelines the
//     horizontal G/H statements against the vertical wavefront instead of
//     bulk-synchronizing between phases. The best block size differs
//     between the two executions (the scheduler's extra per-chunk
//     messages favour larger blocks), so both sides are swept over block
//     sizes and the best of each is compared — the same methodology the
//     paper uses for choosing b.
//
// On exit the binary always writes BENCH_sched.json with the
// sequential-vs-overlapped comparison at p in {2, 4, 8}. Virtual times
// are deterministic (the scheduler runs in its default adaptive mode, but
// under the default earliest-vtime fiber schedule arrival order is a pure
// function of the cost model), so the report is exactly reproducible and
// CI gates on it: overlapped must never lose, and must cut >= 10% off
// SWEEP3D at p = 8.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "apps/alt_sweep.hh"
#include "apps/sweep3d.hh"
#include "bench_util.hh"

using namespace wavepipe;

namespace {

struct Point {
  int p = 0;
  Coord block_seq = 0;    // chosen block, sequential side
  Coord block_sched = 0;  // chosen block, scheduled side
  double vtime_seq = 0.0;
  double vtime_sched = 0.0;
  bool identical = true;  // results byte-identical across every run
  std::size_t tasks = 0;
  std::size_t overtakes = 0;
  double reduction_pct() const {
    return 100.0 * (vtime_seq - vtime_sched) / vtime_seq;
  }
};

struct SweepResult {
  double vtime = 0.0;
  Real value = 0.0;  // flux or residual
  Real checksum = 0.0;
};

Point sweep3d_point(int p, const CostModel& costs, const Sweep3dConfig& cfg,
                    const WaveOptions& opts, const SchedOptions& sched) {
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
  Point pt;
  pt.p = p;
  pt.block_seq = pt.block_sched = opts.block;

  SweepResult seq;
  pt.vtime_seq =
      Machine::run(p, costs,
                   [&](Communicator& comm) {
                     Sweep3d app(cfg, grid, comm.rank());
                     const Real f = app.sweep_all_scheduled(
                         comm, opts, SchedOptions{.adaptive = false}, nullptr,
                         1);
                     const Real cs = app.checksum(comm);
                     if (comm.rank() == 0) {
                       seq.value = f;
                       seq.checksum = cs;
                     }
                   })
          .vtime_max;

  SweepResult sch;
  SchedReport rep;
  pt.vtime_sched =
      Machine::run(p, costs,
                   [&](Communicator& comm) {
                     Sweep3d app(cfg, grid, comm.rank());
                     SchedReport mine;  // ranks may run concurrently
                     const Real f = app.sweep_all_scheduled(comm, opts, sched,
                                                            &mine);
                     const Real cs = app.checksum(comm);
                     if (comm.rank() == 0) {
                       sch.value = f;
                       sch.checksum = cs;
                       rep = mine;
                     }
                   })
          .vtime_max;
  pt.identical = seq.value == sch.value && seq.checksum == sch.checksum;
  pt.tasks = rep.tasks;
  pt.overtakes = rep.overtakes;
  return pt;
}

SweepResult alt_run(int p, const CostModel& costs, const AltSweepConfig& cfg,
                    Coord block, bool scheduled, const SchedOptions& sched) {
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
  WaveOptions opts;
  opts.block = block;
  opts.overlap = true;
  SweepResult out;
  out.vtime =
      Machine::run(p, costs,
                   [&](Communicator& comm) {
                     AltSweep app(cfg, grid, comm.rank());
                     if (scheduled) {
                       app.iterate_scheduled(comm, cfg.iterations, opts, sched);
                     } else {
                       for (int it = 0; it < cfg.iterations; ++it)
                         app.iterate(comm, VerticalStrategy::kPipelined, opts);
                     }
                     const Real r = app.residual_norm(comm);
                     const Real cs = app.checksum(comm);
                     if (comm.rank() == 0) {
                       out.value = r;
                       out.checksum = cs;
                     }
                   })
          .vtime_max;
  return out;
}

Point alt_point(int p, const CostModel& costs, const AltSweepConfig& cfg,
                const std::vector<Coord>& blocks, const SchedOptions& sched) {
  Point pt;
  pt.p = p;
  bool have_ref = false;
  SweepResult ref;
  for (const Coord b : blocks) {
    const SweepResult seq = alt_run(p, costs, cfg, b, false, sched);
    const SweepResult sch = alt_run(p, costs, cfg, b, true, sched);
    if (!have_ref) {
      ref = seq;
      have_ref = true;
    }
    // Pipelining and scheduling reorder execution, never arithmetic: every
    // run at every block size must produce the same bytes.
    pt.identical = pt.identical && seq.value == ref.value &&
                   seq.checksum == ref.checksum && sch.value == ref.value &&
                   sch.checksum == ref.checksum;
    if (pt.block_seq == 0 || seq.vtime < pt.vtime_seq) {
      pt.block_seq = b;
      pt.vtime_seq = seq.vtime;
    }
    if (pt.block_sched == 0 || sch.vtime < pt.vtime_sched) {
      pt.block_sched = b;
      pt.vtime_sched = sch.vtime;
    }
  }
  return pt;
}

void write_json(const std::string& path, const MachinePreset& machine,
                const Sweep3dConfig& s3cfg, Coord s3block,
                const std::vector<Point>& s3, const AltSweepConfig& altcfg,
                const std::vector<Point>& alt) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  const auto write_points = [&](const std::vector<Point>& pts) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const Point& pt = pts[i];
      os << "      {\"p\": " << pt.p << ", \"block_sequential\": "
         << pt.block_seq << ", \"block_scheduled\": " << pt.block_sched
         << ", \"vtime_sequential\": " << pt.vtime_seq
         << ", \"vtime_scheduled\": " << pt.vtime_sched
         << ", \"reduction_pct\": " << pt.reduction_pct()
         << ", \"identical\": " << (pt.identical ? "true" : "false") << "}"
         << (i + 1 < pts.size() ? ",\n" : "\n");
    }
  };
  os << "{\n  \"machine\": \"" << machine.name << "\",\n  \"apps\": {\n";
  os << "    \"sweep3d\": {\n      \"n\": " << s3cfg.n
     << ", \"angles\": " << s3cfg.angles << ", \"block\": " << s3block
     << ",\n      \"points\": [\n";
  write_points(s3);
  os << "    ]},\n";
  os << "    \"alt_sweep\": {\n      \"n\": " << altcfg.n
     << ", \"iterations\": " << altcfg.iterations << ",\n      \"points\": [\n";
  write_points(alt);
  os << "    ]}\n  }\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const MachinePreset machine = t3e_like();
  // Default off-env so a stray WAVEPIPE_SCHED_ADAPTIVE=0 in the caller's
  // environment cannot turn the CI gate into a static-mode comparison.
  SchedOptions sched;
  sched.adaptive = true;

  Sweep3dConfig s3cfg;
  s3cfg.n = opts.get_int("n3", 16);
  s3cfg.angles = static_cast<int>(opts.get_int("angles", 2));
  WaveOptions s3opts;
  s3opts.block = opts.get_int("block3", 2);
  s3opts.overlap = true;

  AltSweepConfig altcfg;
  altcfg.n = opts.get_int("n2", 64);
  altcfg.iterations = static_cast<int>(opts.get_int("iterations", 4));
  const std::vector<Coord> alt_blocks = {4, 8, 16, 31, 62};

  std::vector<Point> s3, alt;
  for (const int p : {2, 4, 8}) {
    s3.push_back(sweep3d_point(p, machine.costs, s3cfg, s3opts, sched));
    alt.push_back(alt_point(p, machine.costs, altcfg, alt_blocks, sched));
  }

  Table t3("SWEEP3D: sequential octants vs dataflow-scheduled (" +
           std::string(machine.name) + ", n=" + std::to_string(s3cfg.n) +
           ", angles=" + std::to_string(s3cfg.angles) +
           ", b=" + std::to_string(s3opts.block) + ")");
  t3.set_header({"p", "sequential vtime", "scheduled vtime", "reduction",
                 "tasks", "overtakes", "identical"});
  for (const Point& pt : s3)
    t3.add_row({std::to_string(pt.p), fmt(pt.vtime_seq, 6),
                fmt(pt.vtime_sched, 6), fmt(pt.reduction_pct(), 2) + "%",
                std::to_string(pt.tasks), std::to_string(pt.overtakes),
                pt.identical ? "yes" : "NO"});
  t3.add_note(
      "8 octants x angles in flight at once; flux accumulation serialized "
      "by edges, so the result is bit-identical to sequential sweeps.");
  t3.print(std::cout);

  Table ta("Alternating sweep: bulk-synchronous vs dataflow-scheduled (" +
           std::string(machine.name) + ", n=" + std::to_string(altcfg.n) +
           ", iterations=" + std::to_string(altcfg.iterations) + ")");
  ta.set_header({"p", "best b (seq)", "sequential vtime", "best b (sched)",
                 "scheduled vtime", "reduction", "identical"});
  for (const Point& pt : alt)
    ta.add_row({std::to_string(pt.p), std::to_string(pt.block_seq),
                fmt(pt.vtime_seq, 6), std::to_string(pt.block_sched),
                fmt(pt.vtime_sched, 6), fmt(pt.reduction_pct(), 2) + "%",
                pt.identical ? "yes" : "NO"});
  ta.add_note(
      "each side reports its best block size: the scheduler's extra "
      "per-chunk messages shift its optimum toward larger b.");
  ta.print(std::cout);

  write_json("BENCH_sched.json", machine, s3cfg, s3opts.block, s3, altcfg,
             alt);

  bool ok = true;
  for (const Point& pt : s3) ok = ok && pt.identical;
  for (const Point& pt : alt) ok = ok && pt.identical;
  if (!ok) std::cerr << "byte-identity violated\n";
  return ok ? 0 : 1;
}
