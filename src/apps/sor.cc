#include "apps/sor.hh"

#include <cmath>

#include "array/axis_table.hh"

namespace wavepipe {

Sor::Sor(const SorConfig& cfg, const ProcGrid<2>& grid, int rank)
    : cfg_(cfg),
      grid_(grid),
      rank_(rank),
      global_({{0, 0}}, {{cfg.n - 1, cfg.n - 1}}),
      interior_({{1, 1}}, {{cfg.n - 2, cfg.n - 2}}),
      layout_(global_, grid, Idx<2>{{1, 1}}),
      u_("u", layout_.allocated(rank), cfg.order),
      f_("f", layout_.allocated(rank), cfg.order),
      res_("res", layout_.allocated(rank), cfg.order),
      plan_(compile_sweep()) {
  require(cfg.n >= 4, "SOR needs n >= 4");
  init();
}

WavefrontPlan<2> Sor::compile_sweep() {
  const Real w = cfg_.omega;
  // h^2 is folded into f at init.
  return scan(interior_,
              u_ <<= (1.0 - w) * u_ +
                     (w * 0.25) * (prime(u_, kNorth) + prime(u_, kWest) +
                                   at(u_, kSouth) + at(u_, kEast) + f_))
      .compile();
}

void Sor::init() {
  const Real n = static_cast<Real>(cfg_.n - 1);
  const Real pi = 3.14159265358979323846;
  const Real h = 1.0 / n;
  u_.fill_fn([&](const Idx<2>& i) {
    // Dirichlet boundary u = x*y on the boundary of the unit square,
    // zero initial guess inside.
    const Real xx = static_cast<Real>(i.v[0]) * h;
    const Real yy = static_cast<Real>(i.v[1]) * h;
    const bool boundary = i.v[0] <= 0 || i.v[0] >= cfg_.n - 1 || i.v[1] <= 0 ||
                          i.v[1] >= cfg_.n - 1;
    return boundary ? xx * yy : 0.0;
  });
  // f = h^2 * 2 pi^2 * sin(pi x) * sin(pi y), one sine table per axis; the
  // products keep the closed form's left-to-right order (axis_table.hh).
  const Region<2>& fr = f_.region();
  auto sin_pi = [&](Coord c) {
    return std::sin(pi * (static_cast<Real>(c) * h));
  };
  const AxisTable<Real> sx(fr, 0, sin_pi), sy(fr, 1, sin_pi);
  const Real scale = h * h * 2.0 * pi * pi;
  f_.fill_fn(
      [&](const Idx<2>& i) { return scale * sx[i.v[0]] * sy[i.v[1]]; });
  res_.fill(0.0);
}

WaveReport<2> Sor::sweep(Communicator& comm, const WaveOptions& opts) {
  return run_wavefront(plan_, layout_, comm, opts);
}

Real Sor::residual_norm(Communicator& comm) {
  apply_distributed(interior_,
                    res_ <<= at(u_, kNorth) + at(u_, kSouth) + at(u_, kWest) +
                                 at(u_, kEast) - 4.0 * u_ + f_,
                    layout_, comm, /*tag_base=*/360);
  return global_max_abs(res_, interior_, layout_, comm);
}

Real Sor::checksum(Communicator& comm) {
  return global_sum(u_, interior_, layout_, comm);
}

Real sor_spmd(Communicator& comm, const SorConfig& cfg,
              const ProcGrid<2>& grid, const WaveOptions& opts) {
  Sor app(cfg, grid, comm.rank());
  for (int it = 0; it < cfg.iterations; ++it) app.sweep(comm, opts);
  return app.residual_norm(comm);
}

}  // namespace wavepipe
