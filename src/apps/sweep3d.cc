#include "apps/sweep3d.hh"

#include <cmath>
#include <string>

#include "sched/sched.hh"

namespace wavepipe {

std::vector<Ordinate> make_quadrature(int angles) {
  require(angles >= 1, "quadrature needs >= 1 angle per octant");
  std::vector<Ordinate> q;
  q.reserve(static_cast<std::size_t>(angles));
  // Deterministic cosines spread over the octant, normalized so
  // mu^2 + eta^2 + xi^2 = 1 and weights sum to 1/8 per octant.
  for (int a = 0; a < angles; ++a) {
    const Real t = (a + 0.5) / angles;                 // in (0, 1)
    const Real phi_ang = 1.3707963267948966 * t;       // (0, ~pi/2 - 0.2)
    const Real cos_theta = 0.15 + 0.7 * t;             // away from the axes
    const Real sin_theta = std::sqrt(1.0 - cos_theta * cos_theta);
    Ordinate o;
    o.mu = sin_theta * std::cos(phi_ang);
    o.eta = sin_theta * std::sin(phi_ang);
    o.xi = cos_theta;
    o.weight = 0.125 / angles;
    q.push_back(o);
  }
  return q;
}

Sweep3d::Sweep3d(const Sweep3dConfig& cfg, const ProcGrid<3>& grid, int rank)
    : cfg_(cfg),
      grid_(grid),
      rank_(rank),
      global_({{1, 1, 1}}, {{cfg.n, cfg.n, cfg.n}}),
      cells_(global_),
      layout_(global_, grid, Idx<3>{{1, 1, 1}}),
      phi_("phi", layout_.allocated(rank), cfg.order),
      flux_("flux", layout_.allocated(rank), cfg.order),
      src_("src", layout_.allocated(rank), cfg.order),
      quadrature_(make_quadrature(cfg.angles)) {
  require(cfg.n >= 2, "SWEEP3D needs n >= 2");
  plans_.reserve(8 * static_cast<std::size_t>(cfg.angles));
  for (int o = 0; o < 8; ++o)
    for (int a = 0; a < cfg.angles; ++a) {
      plans_.push_back(
          compile_octant(phi_, o, quadrature_[static_cast<std::size_t>(a)]));
      // One tag window per (octant, angle) instance, wide enough for the
      // plan's wavefront phase — the stride is derived from the plan
      // (wavefront_tag_span), not hardcoded, so instances can never
      // collide however many angles fly concurrently.
      sweep_tags_.push_back(
          tags_.alloc(wavefront_tag_span<3>(), "sweep octant " +
                                                   std::to_string(o) +
                                                   " angle " +
                                                   std::to_string(a)));
    }
  acc_tag_ = tags_.alloc(6, "flux accumulate");
  init();
}

WavefrontPlan<3> Sweep3d::compile_octant(DenseArray<Real, 3>& phi, int octant,
                                         const Ordinate& ord) {
  // Bit b set => travel along dimension b is descending; the upwind
  // neighbour then sits at +1 along that dimension.
  const Coord sx = (octant & 1) ? -1 : +1;
  const Coord sy = (octant & 2) ? -1 : +1;
  const Coord sz = (octant & 4) ? -1 : +1;
  const Direction<3> up_x{{-sx, 0, 0}};
  const Direction<3> up_y{{0, -sy, 0}};
  const Direction<3> up_z{{0, 0, -sz}};
  const Real denom = cfg_.sigt + ord.mu + ord.eta + ord.xi;
  return scan(cells_,
              phi <<= (src_ + ord.mu * prime(phi, up_x) +
                       ord.eta * prime(phi, up_y) +
                       ord.xi * prime(phi, up_z)) /
                      denom)
      .compile();
}

void Sweep3d::init() {
  const Real n = static_cast<Real>(cfg_.n);
  // Centered on the mid-point of [1..n] so the source is mirror-symmetric
  // under i <-> n+1-i (the octant-symmetry tests rely on this).
  const Real mid = 0.5 * (n + 1.0);
  src_.fill_fn([&](const Idx<3>& i) {
    const Real fx = (static_cast<Real>(i.v[0]) - mid) / n;
    const Real fy = (static_cast<Real>(i.v[1]) - mid) / n;
    const Real fz = (static_cast<Real>(i.v[2]) - mid) / n;
    return std::exp(-20.0 * (fx * fx + fy * fy + fz * fz));
  });
  phi_.fill(0.0);   // includes the vacuum inflow fluff
  flux_.fill(0.0);
}

WaveReport<3> Sweep3d::sweep_octant(int octant, Communicator& comm,
                                    const WaveOptions& opts, int angle) {
  require(octant >= 0 && octant < 8, "octant must be in [0, 8)");
  require(angle >= 0 && angle < cfg_.angles, "angle out of quadrature range");
  // Vacuum boundary: the inflow fluff must be zero. phi's fluff may hold
  // stale values from the previous sweep's wave messages, so reset it.
  fill_outside(phi_, layout_.owned(rank_), 0.0);
  WaveOptions o = opts;
  o.pre_exchange = false;  // inflow is either wave-fed or vacuum
  // The instance's allocated tag window supersedes opts.tag_base: the old
  // `tag_base + 16 * octant` stride ignored the angle entirely and guessed
  // at the per-instance span.
  o.tag_base = sweep_tags(octant, angle).base;
  return run_wavefront(plan_of(octant, angle), layout_, comm, o);
}

void Sweep3d::accumulate(Communicator& comm, int angle) {
  require(angle >= 0 && angle < cfg_.angles, "angle out of quadrature range");
  const Real w = quadrature_[static_cast<std::size_t>(angle)].weight;
  apply_distributed(cells_, flux_ <<= flux_ + w * phi_, layout_, comm,
                    acc_tag_.base);
}

Real Sweep3d::sweep_all(Communicator& comm, const WaveOptions& opts) {
  for (int o = 0; o < 8; ++o) {
    for (int a = 0; a < cfg_.angles; ++a) {
      sweep_octant(o, comm, opts, a);
      accumulate(comm, a);
    }
  }
  return total_flux(comm);
}

void Sweep3d::ensure_slots(int slots) {
  const int total = 8 * cfg_.angles;
  const int k = std::min(slots, total);
  if (static_cast<int>(slot_phi_.size()) == k) return;
  slot_plans_.clear();
  slot_phi_.clear();
  for (int s = 0; s < k; ++s)
    slot_phi_.push_back(std::make_unique<DenseArray<Real, 3>>(
        "phi_slot" + std::to_string(s), layout_.allocated(rank_), cfg_.order));
  slot_plans_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i)
    slot_plans_.push_back(
        compile_octant(*slot_phi_[static_cast<std::size_t>(i % k)],
                       i / cfg_.angles,
                       quadrature_[static_cast<std::size_t>(i % cfg_.angles)]));
}

TaskGraph Sweep3d::build_sweep_graph(const WaveOptions& opts, int slots) {
  require(slots >= 1, "the scheduled sweep needs at least one phi slot");
  ensure_slots(slots);
  const int total = 8 * cfg_.angles;
  const int k = static_cast<int>(slot_phi_.size());
  for (auto& s : slot_phi_) s->fill(0.0);

  const Region<3> owned = layout_.owned(rank_);
  const double acc_cost =
      static_cast<double>(cells_.intersect(owned).size());

  // One graph holding every (octant, angle) instance. Intra-instance order
  // is the lowered tile chain; the inter-instance constraints are:
  //   acc(i-1) -> acc(i)    flux accumulates in sweep_all's exact order,
  //                         so the reduction is bit-identical;
  //   acc(i-k) -> zero(i)   instance i reuses slot i % k: its vacuum reset
  //                         (and, transitively, its tiles' writes) must
  //                         wait until the previous tenant's cells have
  //                         been folded into the flux (WAR).
  // Everything else — up to `k` instances' tiles, in any order the policy
  // and message arrivals allow — is the recovered overlap.
  TaskGraph g;
  std::vector<TaskId> zero(static_cast<std::size_t>(total), kNoTask);
  std::vector<TaskId> acc(static_cast<std::size_t>(total), kNoTask);
  for (int i = 0; i < total; ++i) {
    const int o = i / cfg_.angles;
    const int a = i % cfg_.angles;
    const std::string suffix =
        "[o" + std::to_string(o) + ",a" + std::to_string(a) + "]";
    DenseArray<Real, 3>* slot = slot_phi_[static_cast<std::size_t>(i % k)].get();

    // Vacuum boundary: reset the slot's fluff, exactly as sweep_octant
    // does before a sequential sweep (uncharged bookkeeping).
    TaskGraph::Task z;
    z.label = "zero" + suffix;
    z.cost = 0.0;
    z.run = [slot, owned](TaskContext&) { fill_outside(*slot, owned, 0.0); };
    zero[static_cast<std::size_t>(i)] = g.add(std::move(z));

    LowerOptions lo;
    lo.block = opts.block;
    lo.charge = opts.charge;
    const auto lw = lower_wavefront(
        g, slot_plans_[static_cast<std::size_t>(i)], layout_, rank_,
        sweep_tags(o, a), "sweep" + suffix, lo);
    g.add_edge(zero[static_cast<std::size_t>(i)], lw.tiles.front());

    TaskGraph::Task t;
    t.label = "acc" + suffix;
    t.cost = acc_cost;
    const Real wgt = quadrature_[static_cast<std::size_t>(a)].weight;
    t.run = [this, slot, wgt](TaskContext& ctx) {
      apply_distributed(cells_, flux_ <<= flux_ + wgt * (*slot), layout_,
                        ctx.comm, acc_tag_.base);
    };
    acc[static_cast<std::size_t>(i)] = g.add(std::move(t));
    g.add_edge(lw.tiles.back(), acc[static_cast<std::size_t>(i)]);
    if (i > 0)
      g.add_edge(acc[static_cast<std::size_t>(i - 1)],
                 acc[static_cast<std::size_t>(i)]);
    if (i >= k)
      g.add_edge(acc[static_cast<std::size_t>(i - k)],
                 zero[static_cast<std::size_t>(i)]);
  }
  return g;
}

void Sweep3d::mirror_last_slot() {
  // sweep_all leaves the last instance's angular flux in phi_; mirror that
  // by copying the last slot's owned cells (uncharged — it models keeping
  // a pointer, not moving data), so checksum() agrees bit for bit.
  const int total = 8 * cfg_.angles;
  const int k = static_cast<int>(slot_phi_.size());
  require(k >= 1, "mirror_last_slot before any scheduled sweep");
  const DenseArray<Real, 3>& last =
      *slot_phi_[static_cast<std::size_t>((total - 1) % k)];
  phi_.copy_from(last, layout_.owned(rank_));
}

void Sweep3d::extract_owned_flux(std::span<Real> out) const {
  const auto n = static_cast<std::size_t>(cfg_.n);
  require(out.size() >= n * n * n, "extract_owned_flux: buffer too small");
  for_each(layout_.owned(rank_), [&](const Idx<3>& idx) {
    const auto i = static_cast<std::size_t>(idx.v[0] - 1);
    const auto j = static_cast<std::size_t>(idx.v[1] - 1);
    const auto l = static_cast<std::size_t>(idx.v[2] - 1);
    out[(i * n + j) * n + l] = flux_(idx);
  });
}

Real Sweep3d::sweep_all_scheduled(Communicator& comm, const WaveOptions& opts,
                                  const SchedOptions& sched,
                                  SchedReport* report, int slots) {
  require(comm.rank() == rank_,
          "sweep_all_scheduled must run on the rank this instance was "
          "built for");
  TaskGraph g = build_sweep_graph(opts, slots);
  const SchedReport rep = run_graph(g, comm, sched);
  if (report) *report = rep;
  mirror_last_slot();
  return total_flux(comm);
}

Real Sweep3d::total_flux(Communicator& comm) {
  return global_sum(flux_, cells_, layout_, comm);
}

Real Sweep3d::checksum(Communicator& comm) {
  return global_sum(flux_, cells_, layout_, comm) +
         global_sum(phi_, cells_, layout_, comm);
}

Real sweep3d_spmd(Communicator& comm, const Sweep3dConfig& cfg,
                  const ProcGrid<3>& grid, const WaveOptions& opts) {
  Sweep3d app(cfg, grid, comm.rank());
  Real flux = 0.0;
  for (int it = 0; it < cfg.iterations; ++it) flux = app.sweep_all(comm, opts);
  return flux;
}

Real sweep3d_spmd_scheduled(Communicator& comm, const Sweep3dConfig& cfg,
                            const ProcGrid<3>& grid, const WaveOptions& opts,
                            const SchedOptions& sched, int slots) {
  Sweep3d app(cfg, grid, comm.rank());
  Real flux = 0.0;
  for (int it = 0; it < cfg.iterations; ++it)
    flux = app.sweep_all_scheduled(comm, opts, sched, nullptr, slots);
  return flux;
}

}  // namespace wavepipe
