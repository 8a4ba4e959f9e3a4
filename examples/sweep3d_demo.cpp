// SWEEP3D demo: discrete-ordinates transport sweeps over all 8 octants,
// showing the per-octant wavefront plans and the pipelining win.
//
//   ./build/examples/sweep3d_demo [--n=16] [--p=4] [--block=4]
#include <iostream>

#include "apps/sweep3d.hh"
#include "model/machines.hh"
#include "support/options.hh"
#include "support/table.hh"

using namespace wavepipe;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const Coord n = opts.get_int("n", 16);
  const int p = static_cast<int>(opts.get_int("p", 4));
  const Coord block = opts.get_int("block", 4);

  std::cout << "SWEEP3D-like Sn transport sweep, " << n << "^3 cells\n\n";

  // Show the wavefront structure of two opposite octants: one angle over
  // 8 phi slots leaves octant o's angular flux in slot o.
  {
    Sweep3dConfig cfg;
    cfg.n = n;
    Sweep3d app(cfg, ProcGrid<3>({1, 1, 1}), 0);
    Machine::run(1, {}, [&](Communicator& comm) {
      const Real flux =
          app.sweep_all_scheduled(comm, {}, SchedOptions{}, nullptr, 8);
      for (const int o : {0, 7}) {
        Real s = 0.0;
        const DenseArray<Real, 3>& phi = app.slot_phi(o);
        for_each(app.cells(), [&](const Idx<3>& i) { s += phi(i); });
        std::cout << "octant " << o << (o == 0 ? " (+++" : " (---")
                  << " travel): angular flux sum " << fmt(s, 6) << "\n";
      }
      std::cout << "flux after all 8 octants: " << fmt(flux, 6) << "\n\n";
    });
  }

  // Full source iteration under the T3E model, naive vs pipelined.
  const MachinePreset machine = t3e_like();
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
  Sweep3dConfig cfg;
  cfg.n = n;

  auto run_with = [&](Coord b) {
    double flux = 0.0;
    auto res = Machine::run(p, machine.costs, [&](Communicator& comm) {
      WaveOptions wopts;
      wopts.block = b;
      const Real f = sweep3d_spmd(comm, cfg, grid, wopts);
      if (comm.rank() == 0) flux = f;
    });
    return std::pair<double, double>(res.vtime_max, flux);
  };
  const auto [naive_t, naive_flux] = run_with(0);
  const auto [pipe_t, pipe_flux] = run_with(block);

  Table t("8-octant sweep (" + std::string(machine.name) + ", p=" +
          std::to_string(p) + ", block=" + std::to_string(block) + ")");
  t.set_header({"schedule", "virtual time", "total flux"});
  t.add_row({"naive", fmt(naive_t, 6), fmt(naive_flux, 8)});
  t.add_row({"pipelined", fmt(pipe_t, 6), fmt(pipe_flux, 8)});
  t.add_note("speedup: " + fmt_speedup(naive_t / pipe_t));
  t.print(std::cout);
  return 0;
}
