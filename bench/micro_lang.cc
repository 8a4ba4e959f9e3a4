// Microbenchmarks: the array-language execution paths (google-benchmark).
// Quantifies the cost of the DSL against a hand-written loop nest — the
// "language tax" a ZPL-style embedded language pays — and the value of the
// fused region kernel over the per-index fallback. BM_ShortPencilTile*
// track the tax where it is largest: SWEEP3D's 6-cell pencils, where the
// per-tile and per-pencil overheads of the kernel are not amortized.
#include <benchmark/benchmark.h>

#include "exec/serial.hh"
#include "exec/unfused.hh"

namespace {

using namespace wavepipe;

constexpr Coord kN = 256;

struct Arrays {
  Arrays()
      : all({{1, 1}}, {{kN, kN}}),
        reg({{2, 2}}, {{kN - 1, kN - 1}}),
        r("r", all),
        aa("aa", all),
        d("d", all),
        dd("dd", all),
        rx("rx", all) {
    aa.fill(-1.0);
    dd.fill(4.0);
    d.fill(0.25);
    rx.fill(1.0);
    r.fill(0.0);
  }
  Region<2> all, reg;
  DenseArray<Real, 2> r, aa, d, dd, rx;
};

void BM_HandWrittenLoops(benchmark::State& state) {
  Arrays a;
  for (auto _ : state) {
    // The Fortran-style fused nest, column-major order (dim 0 inner).
    for (Coord j = 2; j <= kN - 1; ++j) {
      for (Coord i = 2; i <= kN - 1; ++i) {
        const Real rr = a.aa(i, j) * a.d(i - 1, j);
        a.r(i, j) = rr;
        a.d(i, j) = 1.0 / (a.dd(i, j) - a.aa(i - 1, j) * rr);
        a.rx(i, j) = a.rx(i, j) - a.rx(i - 1, j) * rr;
      }
    }
    benchmark::DoNotOptimize(a.rx(kN - 1, kN - 1));
  }
  state.SetItemsProcessed(state.iterations() * (kN - 2) * (kN - 2));
}
BENCHMARK(BM_HandWrittenLoops)->Iterations(50);

void BM_ScanBlockFused(benchmark::State& state) {
  Arrays a;
  auto plan = scan(a.reg, a.r <<= a.aa * prime(a.d, kNorth),
                   a.d <<= 1.0 / (a.dd - at(a.aa, kNorth) * a.r),
                   a.rx <<= a.rx - prime(a.rx, kNorth) * a.r)
                  .compile();
  for (auto _ : state) {
    run_serial(plan);
    benchmark::DoNotOptimize(a.rx(kN - 1, kN - 1));
  }
  state.SetItemsProcessed(state.iterations() * (kN - 2) * (kN - 2));
}
BENCHMARK(BM_ScanBlockFused)->Iterations(50);

void BM_ScanBlockPerIndexFallback(benchmark::State& state) {
  Arrays a;
  ScanBlock<2> sb(a.reg);
  sb.add(a.r <<= a.aa * prime(a.d, kNorth));
  sb.add(a.d <<= 1.0 / (a.dd - at(a.aa, kNorth) * a.r));
  sb.add(a.rx <<= a.rx - prime(a.rx, kNorth) * a.r);
  auto plan = sb.compile();
  for (auto _ : state) {
    run_serial(plan);
    benchmark::DoNotOptimize(a.rx(kN - 1, kN - 1));
  }
  state.SetItemsProcessed(state.iterations() * (kN - 2) * (kN - 2));
}
BENCHMARK(BM_ScanBlockPerIndexFallback)->Iterations(50);

void BM_UnfusedArraySemantics(benchmark::State& state) {
  Arrays a;
  auto plan = scan(a.reg, a.r <<= a.aa * prime(a.d, kNorth),
                   a.d <<= 1.0 / (a.dd - at(a.aa, kNorth) * a.r),
                   a.rx <<= a.rx - prime(a.rx, kNorth) * a.r)
                  .compile();
  for (auto _ : state) {
    run_unfused(plan);
    benchmark::DoNotOptimize(a.rx(kN - 1, kN - 1));
  }
  state.SetItemsProcessed(state.iterations() * (kN - 2) * (kN - 2));
}
BENCHMARK(BM_UnfusedArraySemantics)->Iterations(20);

// One rank's block of the SWEEP3D benchmark (n = 24 on 4 ranks along dim
// 0): 6x24x24 owned cells inside an 8x26x26 column-major array with one
// layer of fluff, swept by octant 0 in the 12 tiles of 6x2x24 cells a
// block size of 2 cuts it into. Pencils run along dim 0: 6 cells each.
struct SweepColumn {
  SweepColumn()
      : all({{0, 0, 0}}, {{7, 25, 25}}),
        owned({{1, 1, 1}}, {{6, 24, 24}}),
        phi("phi", all),
        src("src", all) {
    src.fill_fn([](const Idx<3>& i) {
      return 1.0 / static_cast<Real>(1 + i.v[0] + i.v[1] + i.v[2]);
    });
  }
  Region<3> tile(Coord j0) const { return owned.with_dim(1, j0, j0 + 1); }

  static constexpr Real kMu = 0.3, kEta = 0.5, kXi = 0.6;
  static constexpr Real kDenom = 1.0 + kMu + kEta + kXi;
  Region<3> all, owned;
  DenseArray<Real, 3> phi, src;
};

void BM_ShortPencilTileHand(benchmark::State& state) {
  SweepColumn c;
  Real* phi = c.phi.raw().data();
  const Real* src = c.src.raw().data();
  const Coord sj = c.phi.stride(1), sk = c.phi.stride(2);
  for (auto _ : state) {
    for (Coord j0 = 1; j0 <= 24; j0 += 2) {
      for (Coord k = 1; k <= 24; ++k) {
        for (Coord j = j0; j <= j0 + 1; ++j) {
          const Coord base = j * sj + k * sk;
          Real prev = phi[base];  // i = 0: the fluff
          for (Coord i = 1; i <= 6; ++i) {
            const Coord at = base + i;
            prev = (src[at] + SweepColumn::kMu * prev +
                    SweepColumn::kEta * phi[at - sj] +
                    SweepColumn::kXi * phi[at - sk]) /
                   SweepColumn::kDenom;
            phi[at] = prev;
          }
        }
      }
    }
    benchmark::DoNotOptimize(phi);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * c.owned.size());
}
BENCHMARK(BM_ShortPencilTileHand);

void BM_ShortPencilTileFused(benchmark::State& state) {
  SweepColumn c;
  auto plan = scan(c.owned,
                   c.phi <<= (c.src + SweepColumn::kMu *
                                          prime(c.phi, Direction<3>{{-1, 0, 0}}) +
                              SweepColumn::kEta *
                                  prime(c.phi, Direction<3>{{0, -1, 0}}) +
                              SweepColumn::kXi *
                                  prime(c.phi, Direction<3>{{0, 0, -1}})) /
                             SweepColumn::kDenom)
                  .compile();
  for (auto _ : state) {
    for (Coord j0 = 1; j0 <= 24; j0 += 2) run_serial_on(plan, c.tile(j0));
    benchmark::DoNotOptimize(c.phi.raw().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * c.owned.size());
}
BENCHMARK(BM_ShortPencilTileFused);

void BM_CompilePlan(benchmark::State& state) {
  Arrays a;
  for (auto _ : state) {
    auto plan = scan(a.reg, a.r <<= a.aa * prime(a.d, kNorth),
                     a.d <<= 1.0 / (a.dd - at(a.aa, kNorth) * a.r),
                     a.rx <<= a.rx - prime(a.rx, kNorth) * a.r)
                    .compile();
    benchmark::DoNotOptimize(plan.loops);
  }
}
BENCHMARK(BM_CompilePlan)->Iterations(2000);

}  // namespace

BENCHMARK_MAIN();
