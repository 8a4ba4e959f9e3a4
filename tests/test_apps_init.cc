// Initial state of the trig-seeded apps (SOR, Tomcatv, AltSweep), and
// whole-run pins of those apps and SWEEP3D.
//
// Two guards:
//
//  * AppInit walks every allocated cell, fluff included, of the arrays
//    init() seeds from sin/cos and compares it bit for bit with the
//    per-element closed form each app once evaluated directly. Each app
//    now reads per-axis tables instead (DESIGN.md §2); the tables must
//    reproduce the closed form's operands in its left-to-right order.
//  * AppRunPin pins whole runs on the fiber oracle under the T3E-like
//    cost model: the checksum's and residual's bit patterns, a digest of
//    the final field each rank owns and a digest of every rank's virtual
//    time. The app tests' MatchesSerialExactly compare two runs that
//    share one init(), so a changed initial bit would pass them; these
//    pins would not move with it. The SWEEP3D pins also hold the total
//    messages and bytes sent; they were recorded from the sequential
//    octant-by-octant driver and stay the oracle of the one-slot graph
//    that replaced it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "apps/alt_sweep.hh"
#include "apps/sor.hh"
#include "apps/sweep3d.hh"
#include "apps/tomcatv.hh"
#include "model/machines.hh"

namespace wavepipe {
namespace {

constexpr Real kPi = 3.14159265358979323846;

std::uint64_t bits(Real v) { return std::bit_cast<std::uint64_t>(v); }

// Every allocated cell of `a` against `want(i0, i1)`, bit for bit.
template <typename Fn>
void expect_cells(const DenseArray<Real, 2>& a, Fn&& want) {
  int bad = 0;
  for_each(a.region(), [&](const Idx<2>& i) {
    const Real expect = want(i.v[0], i.v[1]);
    if (bits(a(i)) != bits(expect) && ++bad <= 3)
      ADD_FAILURE() << a.name() << to_string(i) << " = " << a(i)
                    << ", closed form " << expect;
  });
  EXPECT_EQ(bad, 0) << a.name() << " over " << to_string(a.region());
}

struct InitCase {
  const char* name;
  ProcGrid<2> grid;
  StorageOrder order;
};

std::vector<InitCase> init_cases() {
  std::vector<InitCase> out;
  for (const StorageOrder order :
       {StorageOrder::kColMajor, StorageOrder::kRowMajor}) {
    const bool col = order == StorageOrder::kColMajor;
    out.push_back({col ? "line0/col" : "line0/row",
                   ProcGrid<2>::along_dim(3, 0), order});
    out.push_back({col ? "line1/col" : "line1/row",
                   ProcGrid<2>::along_dim(3, 1), order});
    out.push_back({col ? "grid2x2/col" : "grid2x2/row", ProcGrid<2>({2, 2}),
                   order});
  }
  return out;
}

TEST(AppInit, SorMatchesClosedForm) {
  for (const Coord n : {Coord{21}, Coord{32}}) {
    for (const InitCase& c : init_cases()) {
      SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n));
      SorConfig cfg;
      cfg.n = n;
      cfg.order = c.order;
      const Real h = 1.0 / static_cast<Real>(n - 1);
      for (int r = 0; r < c.grid.size(); ++r) {
        Sor app(cfg, c.grid, r);
        expect_cells(app.u(), [&](Coord i0, Coord i1) {
          const Real xx = static_cast<Real>(i0) * h;
          const Real yy = static_cast<Real>(i1) * h;
          const bool boundary =
              i0 <= 0 || i0 >= n - 1 || i1 <= 0 || i1 >= n - 1;
          return boundary ? xx * yy : 0.0;
        });
        expect_cells(app.f(), [&](Coord i0, Coord i1) {
          const Real xx = static_cast<Real>(i0) * h;
          const Real yy = static_cast<Real>(i1) * h;
          return h * h * 2.0 * kPi * kPi * std::sin(kPi * xx) *
                 std::sin(kPi * yy);
        });
      }
    }
  }
}

TEST(AppInit, TomcatvMatchesClosedForm) {
  for (const Coord n : {Coord{21}, Coord{32}}) {
    for (const InitCase& c : init_cases()) {
      SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n));
      TomcatvConfig cfg;
      cfg.n = n;
      cfg.order = c.order;
      for (int r = 0; r < c.grid.size(); ++r) {
        Tomcatv app(cfg, c.grid, r);
        expect_cells(app.x(), [](Coord i0, Coord i1) {
          const Real fi = static_cast<Real>(i0);
          const Real fj = static_cast<Real>(i1);
          return fj + 0.25 * std::sin(2.7 * fi) * std::sin(2.9 * fj);
        });
        expect_cells(app.y(), [](Coord i0, Coord i1) {
          const Real fi = static_cast<Real>(i0);
          const Real fj = static_cast<Real>(i1);
          return fi + 0.25 * std::cos(2.6 * fi) * std::sin(2.8 * fj);
        });
      }
    }
  }
}

TEST(AppInit, AltSweepMatchesClosedForm) {
  for (const Coord n : {Coord{21}, Coord{32}}) {
    for (const InitCase& c : init_cases()) {
      SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n));
      AltSweepConfig cfg;
      cfg.n = n;
      cfg.order = c.order;
      const Real h = 1.0 / static_cast<Real>(n - 1);
      auto u0 = [&](Coord i0, Coord i1) {
        const bool bdry = i0 <= 0 || i0 >= n - 1 || i1 <= 0 || i1 >= n - 1;
        return bdry ? static_cast<Real>(i0) * h + static_cast<Real>(i1) * h
                    : 0.0;
      };
      auto f0 = [&](Coord i0, Coord i1) {
        const Real xx = static_cast<Real>(i0) * h;
        const Real yy = static_cast<Real>(i1) * h;
        return h * h * 5.0 * kPi * kPi * std::sin(kPi * xx) *
               std::sin(2.0 * kPi * yy);
      };
      for (int r = 0; r < c.grid.size(); ++r) {
        AltSweep app(cfg, c.grid, r);
        expect_cells(app.u().local(), u0);
        expect_cells(app.f().local(), f0);
        expect_cells(app.ut().local(),
                     [&](Coord i0, Coord i1) { return u0(i1, i0); });
        expect_cells(app.ft().local(),
                     [&](Coord i0, Coord i1) { return f0(i1, i0); });
      }
    }
  }
}

// --- whole-run pins ---

enum class Kind { kSor, kTomcatv, kAltPipelined, kAltTranspose, kSweep3d };

struct RunPin {
  Kind kind;
  int p;       // ranks
  int pc;      // ranks along dim 1: 1 is a rank line along dim 0
  Coord block;
  StorageOrder order;
  bool overlap;
  std::uint64_t checksum;  // bit patterns of rank 0's results
  std::uint64_t residual;  // SWEEP3D: the total scalar flux
  std::uint64_t field;   // FNV-1a over every rank's owned final field
  std::uint64_t clocks;  // FNV-1a over every rank's vtime
  // SWEEP3D only (checked for it alone): messages and bytes sent in total.
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSor: return "Sor";
    case Kind::kTomcatv: return "Tomcatv";
    case Kind::kAltPipelined: return "AltPipelined";
    case Kind::kAltTranspose: return "AltTranspose";
    case Kind::kSweep3d: return "Sweep3d";
  }
  return "?";
}

std::string pin_name(const RunPin& c) {
  // Appends only: GCC 12 reports -Wrestrict for "lit" + std::string&&.
  std::string s = kind_name(c.kind);
  s += "_p";
  s += std::to_string(c.p);
  if (c.pc != 1) {
    s += "x";
    s += std::to_string(c.pc);
  }
  s += "_b";
  s += std::to_string(c.block);
  s += c.order == StorageOrder::kColMajor ? "_Col" : "_Row";
  if (c.overlap) s += "_Overlap";
  return s;
}

void PrintTo(const RunPin& c, std::ostream* os) { *os << pin_name(c); }

std::uint64_t fnv(const std::vector<double>& vs) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double d : vs) {
    const std::uint64_t v = bits(d);
    for (int k = 0; k < 8; ++k) {
      h ^= (v >> (8 * k)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

class AppRunPin : public ::testing::TestWithParam<RunPin> {};

TEST_P(AppRunPin, BitsAndClocksUnchanged) {
  const RunPin& c = GetParam();
  const ProcGrid<2> grid = c.pc == 1 ? ProcGrid<2>::along_dim(c.p, 0)
                                     : ProcGrid<2>({c.p / c.pc, c.pc});
  WaveOptions opts;
  opts.block = c.block;
  opts.overlap = c.overlap;
  EngineConfig ec;
  ec.kind = EngineKind::kFibers;
  Real checksum = 0.0, residual = 0.0;
  std::vector<std::vector<Real>> fields(static_cast<std::size_t>(c.p));
  const RunResult r =
      Machine::run(c.p, t3e_like().costs, ec, [&](Communicator& comm) {
        Real cs = 0.0, res = 0.0;
        auto& field = fields[static_cast<std::size_t>(comm.rank())];
        auto take = [&](const DenseArray<Real, 2>& a, const Region<2>& owned) {
          for_each(owned, [&](const Idx<2>& i) { field.push_back(a(i)); });
        };
        switch (c.kind) {
          case Kind::kSor: {
            SorConfig cfg;
            cfg.n = 29;
            cfg.iterations = 3;
            cfg.order = c.order;
            Sor app(cfg, grid, comm.rank());
            for (int it = 0; it < cfg.iterations; ++it) app.sweep(comm, opts);
            cs = app.checksum(comm);
            res = app.residual_norm(comm);
            take(app.u(), app.layout().owned(comm.rank()));
            break;
          }
          case Kind::kTomcatv: {
            TomcatvConfig cfg;
            cfg.n = 27;
            cfg.iterations = 3;
            cfg.order = c.order;
            Tomcatv app(cfg, grid, comm.rank());
            for (int it = 0; it < cfg.iterations; ++it) app.iterate(comm, opts);
            cs = app.checksum(comm);
            res = app.residual_norm(comm);
            take(app.x(), app.layout().owned(comm.rank()));
            take(app.y(), app.layout().owned(comm.rank()));
            break;
          }
          case Kind::kAltPipelined:
          case Kind::kAltTranspose: {
            AltSweepConfig cfg;
            cfg.n = 25;
            cfg.iterations = 2;
            cfg.order = c.order;
            AltSweep app(cfg, grid, comm.rank());
            const VerticalStrategy s = c.kind == Kind::kAltPipelined
                                           ? VerticalStrategy::kPipelined
                                           : VerticalStrategy::kTranspose;
            for (int it = 0; it < cfg.iterations; ++it)
              app.iterate(comm, s, opts);
            cs = app.checksum(comm);
            res = app.residual_norm(comm);
            take(app.u().local(), app.u().owned());
            break;
          }
          case Kind::kSweep3d: {
            // Rank lines and pc-column 2D frontiers of a 3D grid.
            Sweep3dConfig cfg;
            cfg.n = c.pc == 1 ? 12 : 13;
            cfg.angles = c.pc == 1 ? 2 : 3;
            cfg.iterations = 2;
            cfg.order = c.order;
            const ProcGrid<3> g3 = c.pc == 1
                                       ? ProcGrid<3>::along_dim(c.p, 0)
                                       : ProcGrid<3>({c.p / c.pc, c.pc, 1});
            Sweep3d app(cfg, g3, comm.rank());
            // The sequential sweep: one slot on static FIFO, as
            // sweep3d_spmd runs it.
            for (int it = 0; it < cfg.iterations; ++it)
              res = app.sweep_all_scheduled(
                  comm, opts, SchedOptions{.adaptive = false}, nullptr, 1);
            cs = app.checksum(comm);
            for_each(app.layout().owned(comm.rank()),
                     [&](const Idx<3>& i) { field.push_back(app.flux()(i)); });
            break;
          }
        }
        if (comm.rank() == 0) {
          checksum = cs;
          residual = res;
        }
      });
  std::vector<Real> all;
  for (const auto& f : fields) all.insert(all.end(), f.begin(), f.end());
  const std::uint64_t field = fnv(all);
  const std::uint64_t clocks = fnv(r.vtime);
  char actual[192];
  std::snprintf(actual, sizeof actual,
                "actual {0x%016llxull, 0x%016llxull, 0x%016llxull, "
                "0x%016llxull, %llu, %llu}",
                static_cast<unsigned long long>(bits(checksum)),
                static_cast<unsigned long long>(bits(residual)),
                static_cast<unsigned long long>(field),
                static_cast<unsigned long long>(clocks),
                static_cast<unsigned long long>(r.total.messages_sent),
                static_cast<unsigned long long>(r.total.bytes_sent));
  EXPECT_EQ(bits(checksum), c.checksum) << actual;
  EXPECT_EQ(bits(residual), c.residual) << actual;
  EXPECT_EQ(field, c.field) << actual;
  EXPECT_EQ(clocks, c.clocks) << actual;
  if (c.kind == Kind::kSweep3d) {
    EXPECT_EQ(r.total.messages_sent, c.messages) << actual;
    EXPECT_EQ(r.total.bytes_sent, c.bytes) << actual;
  }
}

constexpr StorageOrder kCol = StorageOrder::kColMajor;
constexpr StorageOrder kRow = StorageOrder::kRowMajor;

// clang-format off
INSTANTIATE_TEST_SUITE_P(Pinned, AppRunPin, ::testing::Values(
  RunPin{Kind::kSor, 1, 1, 0, kCol, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0xd713c17d4d3edbfdull},
  RunPin{Kind::kSor, 1, 1, 3, kCol, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0xd713c17d4d3edbfdull},
  RunPin{Kind::kSor, 2, 1, 0, kCol, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0x844c455a68f5ed23ull},
  RunPin{Kind::kSor, 2, 1, 3, kCol, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0x842b4c564be6b373ull},
  RunPin{Kind::kSor, 3, 1, 0, kCol, false,
         0x405148cd1f2abf84ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0xf2ba1f417605e200ull},
  RunPin{Kind::kSor, 3, 1, 3, kCol, false,
         0x405148cd1f2abf84ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0x918c5292c0a17aa9ull},
  RunPin{Kind::kSor, 4, 1, 0, kCol, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0xda36f0085b2fac83ull},
  RunPin{Kind::kSor, 4, 1, 3, kCol, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0xcc07f712ba86e583ull},
  RunPin{Kind::kSor, 1, 1, 0, kRow, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0xd713c17d4d3edbfdull},
  RunPin{Kind::kSor, 1, 1, 3, kRow, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0xd713c17d4d3edbfdull},
  RunPin{Kind::kSor, 2, 1, 0, kRow, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0x844c455a68f5ed23ull},
  RunPin{Kind::kSor, 2, 1, 3, kRow, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0x842b4c564be6b373ull},
  RunPin{Kind::kSor, 3, 1, 0, kRow, false,
         0x405148cd1f2abf84ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0xf2ba1f417605e200ull},
  RunPin{Kind::kSor, 3, 1, 3, kRow, false,
         0x405148cd1f2abf84ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0x918c5292c0a17aa9ull},
  RunPin{Kind::kSor, 4, 1, 0, kRow, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0xda36f0085b2fac83ull},
  RunPin{Kind::kSor, 4, 1, 3, kRow, false,
         0x405148cd1f2abf86ull, 0x3fe1e6a7071d705dull,
         0x507b3fa0b335395dull, 0xcc07f712ba86e583ull},
  RunPin{Kind::kSor, 4, 2, 0, kCol, false,
         0x405148cd1f2abf85ull, 0x3fe1e6a7071d705dull,
         0x23735cb19c336a7dull, 0x9ec4cad0f7116b83ull},
  RunPin{Kind::kSor, 4, 2, 3, kCol, false,
         0x405148cd1f2abf85ull, 0x3fe1e6a7071d705dull,
         0x23735cb19c336a7dull, 0x2d77013fdd5a4d43ull},
  RunPin{Kind::kTomcatv, 1, 1, 0, kCol, false,
         0x40d117023970ff6aull, 0x3f889275274535c8ull,
         0x86a015ae5198f24bull, 0x4297087cf8cb463dull},
  RunPin{Kind::kTomcatv, 1, 1, 3, kCol, false,
         0x40d117023970ff6aull, 0x3f889275274535c8ull,
         0x86a015ae5198f24bull, 0x4297087cf8cb463dull},
  RunPin{Kind::kTomcatv, 2, 1, 0, kCol, false,
         0x40d117023970ff69ull, 0x3f889275274535c8ull,
         0x4e82611140e2085full, 0x646519edc250355bull},
  RunPin{Kind::kTomcatv, 2, 1, 3, kCol, false,
         0x40d117023970ff69ull, 0x3f889275274535c8ull,
         0x4e82611140e2085full, 0x4173fa878eaca14bull},
  RunPin{Kind::kTomcatv, 3, 1, 0, kCol, false,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0x9aebcf2814f03bfbull, 0x9cd1f6912c37cba7ull},
  RunPin{Kind::kTomcatv, 3, 1, 3, kCol, false,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0x9aebcf2814f03bfbull, 0xd507eade82e08e14ull},
  RunPin{Kind::kTomcatv, 4, 1, 0, kCol, false,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0xfcd069a98f5ab7a3ull, 0xef2d8dc6680ac903ull},
  RunPin{Kind::kTomcatv, 4, 1, 3, kCol, false,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0xfcd069a98f5ab7a3ull, 0x892b2f232939b90bull},
  RunPin{Kind::kTomcatv, 1, 1, 0, kRow, false,
         0x40d117023970ff6aull, 0x3f889275274535c8ull,
         0x86a015ae5198f24bull, 0x4297087cf8cb463dull},
  RunPin{Kind::kTomcatv, 1, 1, 3, kRow, false,
         0x40d117023970ff6aull, 0x3f889275274535c8ull,
         0x86a015ae5198f24bull, 0x4297087cf8cb463dull},
  RunPin{Kind::kTomcatv, 2, 1, 0, kRow, false,
         0x40d117023970ff69ull, 0x3f889275274535c8ull,
         0x4e82611140e2085full, 0x646519edc250355bull},
  RunPin{Kind::kTomcatv, 2, 1, 3, kRow, false,
         0x40d117023970ff69ull, 0x3f889275274535c8ull,
         0x4e82611140e2085full, 0x4173fa878eaca14bull},
  RunPin{Kind::kTomcatv, 3, 1, 0, kRow, false,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0x9aebcf2814f03bfbull, 0x9cd1f6912c37cba7ull},
  RunPin{Kind::kTomcatv, 3, 1, 3, kRow, false,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0x9aebcf2814f03bfbull, 0xd507eade82e08e14ull},
  RunPin{Kind::kTomcatv, 4, 1, 0, kRow, false,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0xfcd069a98f5ab7a3ull, 0xef2d8dc6680ac903ull},
  RunPin{Kind::kTomcatv, 4, 1, 3, kRow, false,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0xfcd069a98f5ab7a3ull, 0x892b2f232939b90bull},
  RunPin{Kind::kTomcatv, 2, 1, 3, kCol, true,
         0x40d117023970ff69ull, 0x3f889275274535c8ull,
         0x4e82611140e2085full, 0x190d09162cf9fc03ull},
  RunPin{Kind::kTomcatv, 3, 1, 3, kCol, true,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0x9aebcf2814f03bfbull, 0x2ebb6153f40c7c0bull},
  RunPin{Kind::kTomcatv, 4, 1, 3, kCol, true,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0xfcd069a98f5ab7a3ull, 0x4bebbb77826d2353ull},
  RunPin{Kind::kTomcatv, 2, 1, 3, kRow, true,
         0x40d117023970ff69ull, 0x3f889275274535c8ull,
         0x4e82611140e2085full, 0x190d09162cf9fc03ull},
  RunPin{Kind::kTomcatv, 3, 1, 3, kRow, true,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0x9aebcf2814f03bfbull, 0x2ebb6153f40c7c0bull},
  RunPin{Kind::kTomcatv, 4, 1, 3, kRow, true,
         0x40d117023970ff68ull, 0x3f889275274535c8ull,
         0xfcd069a98f5ab7a3ull, 0x4bebbb77826d2353ull},
  RunPin{Kind::kTomcatv, 4, 2, 0, kCol, false,
         0x40d117023970ff69ull, 0x3f889275274535c8ull,
         0x956eb1222bbdf8d3ull, 0x3847ef8677dffbbbull},
  RunPin{Kind::kTomcatv, 4, 2, 3, kCol, false,
         0x40d117023970ff69ull, 0x3f889275274535c8ull,
         0x956eb1222bbdf8d3ull, 0xf81cb0c671340463ull},
  RunPin{Kind::kAltPipelined, 1, 1, 0, kCol, false,
         0x40532e051b757adfull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x2e6cd67c5ca8eab2ull},
  RunPin{Kind::kAltPipelined, 1, 1, 3, kCol, false,
         0x40532e051b757adfull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x2e6cd67c5ca8eab2ull},
  RunPin{Kind::kAltPipelined, 2, 1, 0, kCol, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xfb2e65bf11a3d987ull},
  RunPin{Kind::kAltPipelined, 2, 1, 3, kCol, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x3226d86b587df217ull},
  RunPin{Kind::kAltPipelined, 3, 1, 0, kCol, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xfacdc64ba67dd374ull},
  RunPin{Kind::kAltPipelined, 3, 1, 3, kCol, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xe72b093b58d16d1dull},
  RunPin{Kind::kAltPipelined, 4, 1, 0, kCol, false,
         0x40532e051b757addull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xc5efeee3f258bd3bull},
  RunPin{Kind::kAltPipelined, 4, 1, 3, kCol, false,
         0x40532e051b757addull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x8eddc00a7fb07c4bull},
  RunPin{Kind::kAltPipelined, 1, 1, 0, kRow, false,
         0x40532e051b757adfull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x2e6cd67c5ca8eab2ull},
  RunPin{Kind::kAltPipelined, 1, 1, 3, kRow, false,
         0x40532e051b757adfull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x2e6cd67c5ca8eab2ull},
  RunPin{Kind::kAltPipelined, 2, 1, 0, kRow, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xfb2e65bf11a3d987ull},
  RunPin{Kind::kAltPipelined, 2, 1, 3, kRow, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x3226d86b587df217ull},
  RunPin{Kind::kAltPipelined, 3, 1, 0, kRow, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xfacdc64ba67dd374ull},
  RunPin{Kind::kAltPipelined, 3, 1, 3, kRow, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xe72b093b58d16d1dull},
  RunPin{Kind::kAltPipelined, 4, 1, 0, kRow, false,
         0x40532e051b757addull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xc5efeee3f258bd3bull},
  RunPin{Kind::kAltPipelined, 4, 1, 3, kRow, false,
         0x40532e051b757addull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x8eddc00a7fb07c4bull},
  RunPin{Kind::kAltTranspose, 1, 1, 0, kCol, false,
         0x40532e051b757adfull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x2e6cd67c5ca8eab2ull},
  RunPin{Kind::kAltTranspose, 1, 1, 3, kCol, false,
         0x40532e051b757adfull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x2e6cd67c5ca8eab2ull},
  RunPin{Kind::kAltTranspose, 2, 1, 0, kCol, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x32152e9c14829fcbull},
  RunPin{Kind::kAltTranspose, 2, 1, 3, kCol, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x32152e9c14829fcbull},
  RunPin{Kind::kAltTranspose, 3, 1, 0, kCol, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xa19ad18b1572154full},
  RunPin{Kind::kAltTranspose, 3, 1, 3, kCol, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xa19ad18b1572154full},
  RunPin{Kind::kAltTranspose, 4, 1, 0, kCol, false,
         0x40532e051b757addull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x4483b6994dd58d7bull},
  RunPin{Kind::kAltTranspose, 4, 1, 3, kCol, false,
         0x40532e051b757addull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x4483b6994dd58d7bull},
  RunPin{Kind::kAltTranspose, 1, 1, 0, kRow, false,
         0x40532e051b757adfull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x2e6cd67c5ca8eab2ull},
  RunPin{Kind::kAltTranspose, 1, 1, 3, kRow, false,
         0x40532e051b757adfull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x2e6cd67c5ca8eab2ull},
  RunPin{Kind::kAltTranspose, 2, 1, 0, kRow, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x32152e9c14829fcbull},
  RunPin{Kind::kAltTranspose, 2, 1, 3, kRow, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x32152e9c14829fcbull},
  RunPin{Kind::kAltTranspose, 3, 1, 0, kRow, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xa19ad18b1572154full},
  RunPin{Kind::kAltTranspose, 3, 1, 3, kRow, false,
         0x40532e051b757adeull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0xa19ad18b1572154full},
  RunPin{Kind::kAltTranspose, 4, 1, 0, kRow, false,
         0x40532e051b757addull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x4483b6994dd58d7bull},
  RunPin{Kind::kAltTranspose, 4, 1, 3, kRow, false,
         0x40532e051b757addull, 0x3fdb778622455ecfull,
         0xdc672dfe8248a65bull, 0x4483b6994dd58d7bull},
  RunPin{Kind::kSweep3d, 1, 1, 0, kCol, false,
         0x40739cbe7dfd98f0ull, 0x406a24df2b876ed5ull,
         0x85aad97d95bd4ea6ull, 0x4a2e8b7eb16a4e90ull, 0, 0},
  RunPin{Kind::kSweep3d, 1, 1, 2, kCol, false,
         0x40739cbe7dfd98f0ull, 0x406a24df2b876ed5ull,
         0x85aad97d95bd4ea6ull, 0x4a2e8b7eb16a4e90ull, 0, 0},
  RunPin{Kind::kSweep3d, 1, 1, 4, kCol, false,
         0x40739cbe7dfd98f0ull, 0x406a24df2b876ed5ull,
         0x85aad97d95bd4ea6ull, 0x4a2e8b7eb16a4e90ull, 0, 0},
  RunPin{Kind::kSweep3d, 2, 1, 0, kCol, false,
         0x40739cbe7dfd98e5ull, 0x406a24df2b876ec4ull,
         0x85aad97d95bd4ea6ull, 0xbf584f7f8418b7abull, 40, 36928},
  RunPin{Kind::kSweep3d, 2, 1, 2, kCol, false,
         0x40739cbe7dfd98e5ull, 0x406a24df2b876ec4ull,
         0x85aad97d95bd4ea6ull, 0x09e03f993e6ac7ffull, 200, 36928},
  RunPin{Kind::kSweep3d, 2, 1, 4, kCol, false,
         0x40739cbe7dfd98e5ull, 0x406a24df2b876ec4ull,
         0x85aad97d95bd4ea6ull, 0x709a6585152f91b3ull, 104, 36928},
  RunPin{Kind::kSweep3d, 4, 1, 0, kCol, false,
         0x40739cbe7dfd98e6ull, 0x406a24df2b876ec9ull,
         0x85aad97d95bd4ea6ull, 0xacdef3e3e8d3a41bull, 120, 110784},
  RunPin{Kind::kSweep3d, 4, 1, 2, kCol, false,
         0x40739cbe7dfd98e6ull, 0x406a24df2b876ec9ull,
         0x85aad97d95bd4ea6ull, 0x0f77694c49806c43ull, 600, 110784},
  RunPin{Kind::kSweep3d, 4, 1, 4, kCol, false,
         0x40739cbe7dfd98e6ull, 0x406a24df2b876ec9ull,
         0x85aad97d95bd4ea6ull, 0x715a7c86f29266ebull, 312, 110784},
  RunPin{Kind::kSweep3d, 4, 2, 0, kCol, false,
         0x40790bb313cd930eull, 0x4070b1ff5d4390f0ull,
         0x9d4b66c90662b11full, 0xdcfd06a7dbec4bcbull, 216, 134976},
  RunPin{Kind::kSweep3d, 4, 2, 3, kCol, false,
         0x40790bb313cd930eull, 0x4070b1ff5d4390f0ull,
         0x9d4b66c90662b11full, 0x77b2c2e1a8e2751bull, 360, 134976},
  RunPin{Kind::kSweep3d, 6, 2, 0, kCol, false,
         0x40790bb313cd9310ull, 0x4070b1ff5d4390f1ull,
         0x1bf4ece8b63f7783ull, 0xd77cd025cdec4143ull, 376, 204992},
  RunPin{Kind::kSweep3d, 6, 2, 3, kCol, false,
         0x40790bb313cd9310ull, 0x4070b1ff5d4390f1ull,
         0x1bf4ece8b63f7783ull, 0xcd24b56bfab0b00bull, 664, 204992},
  RunPin{Kind::kSweep3d, 1, 1, 0, kCol, true,
         0x40739cbe7dfd98f0ull, 0x406a24df2b876ed5ull,
         0x85aad97d95bd4ea6ull, 0x4a2e8b7eb16a4e90ull, 0, 0},
  RunPin{Kind::kSweep3d, 1, 1, 2, kCol, true,
         0x40739cbe7dfd98f0ull, 0x406a24df2b876ed5ull,
         0x85aad97d95bd4ea6ull, 0x4a2e8b7eb16a4e90ull, 0, 0},
  RunPin{Kind::kSweep3d, 1, 1, 4, kCol, true,
         0x40739cbe7dfd98f0ull, 0x406a24df2b876ed5ull,
         0x85aad97d95bd4ea6ull, 0x4a2e8b7eb16a4e90ull, 0, 0},
  RunPin{Kind::kSweep3d, 2, 1, 0, kCol, true,
         0x40739cbe7dfd98e5ull, 0x406a24df2b876ec4ull,
         0x85aad97d95bd4ea6ull, 0xbf584f7f8418b7abull, 40, 36928},
  RunPin{Kind::kSweep3d, 2, 1, 2, kCol, true,
         0x40739cbe7dfd98e5ull, 0x406a24df2b876ec4ull,
         0x85aad97d95bd4ea6ull, 0xd61abc1424c4998bull, 200, 36928},
  RunPin{Kind::kSweep3d, 2, 1, 4, kCol, true,
         0x40739cbe7dfd98e5ull, 0x406a24df2b876ec4ull,
         0x85aad97d95bd4ea6ull, 0x73ddc71fe4fb6c6bull, 104, 36928},
  RunPin{Kind::kSweep3d, 4, 1, 0, kCol, true,
         0x40739cbe7dfd98e6ull, 0x406a24df2b876ec9ull,
         0x85aad97d95bd4ea6ull, 0xacdef3e3e8d3a41bull, 120, 110784},
  RunPin{Kind::kSweep3d, 4, 1, 2, kCol, true,
         0x40739cbe7dfd98e6ull, 0x406a24df2b876ec9ull,
         0x85aad97d95bd4ea6ull, 0x61ae7f316ffe7f83ull, 600, 110784},
  RunPin{Kind::kSweep3d, 4, 1, 4, kCol, true,
         0x40739cbe7dfd98e6ull, 0x406a24df2b876ec9ull,
         0x85aad97d95bd4ea6ull, 0xdfcc245629b4bbe3ull, 312, 110784},
  RunPin{Kind::kSweep3d, 4, 2, 0, kCol, true,
         0x40790bb313cd930eull, 0x4070b1ff5d4390f0ull,
         0x9d4b66c90662b11full, 0xdcfd06a7dbec4bcbull, 216, 134976},
  RunPin{Kind::kSweep3d, 4, 2, 3, kCol, true,
         0x40790bb313cd930eull, 0x4070b1ff5d4390f0ull,
         0x9d4b66c90662b11full, 0x812627546b284243ull, 360, 134976},
  RunPin{Kind::kSweep3d, 6, 2, 0, kCol, true,
         0x40790bb313cd9310ull, 0x4070b1ff5d4390f1ull,
         0x1bf4ece8b63f7783ull, 0xd77cd025cdec4143ull, 376, 204992},
  RunPin{Kind::kSweep3d, 6, 2, 3, kCol, true,
         0x40790bb313cd9310ull, 0x4070b1ff5d4390f1ull,
         0x1bf4ece8b63f7783ull, 0xc56ce17ffb318513ull, 664, 204992}
), [](const ::testing::TestParamInfo<RunPin>& info) {
  return pin_name(info.param);
});
// clang-format on

}  // namespace
}  // namespace wavepipe
