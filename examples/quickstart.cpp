// Quickstart: the wavepipe array language in five minutes.
//
// Reproduces the paper's Fig 3 semantics demonstration — the same statement
// with and without the prime operator — then compiles and runs the Tomcatv
// scan block of Fig 2(b), serially and pipelined on a 4-processor machine.
//
// Build and run:  ./build/examples/quickstart
#include <iostream>

#include "wavepipe.hh"

using namespace wavepipe;

namespace {

void fig3_semantics() {
  std::cout << "--- Fig 3: the prime operator ---\n\n";
  const Coord n = 5;
  const Region<2> all({{1, 1}}, {{n, n}});
  const Region<2> reg({{2, 1}}, {{n, n}});  // [2..n, 1..n]

  // (a) a := 2 * a@north — ordinary array semantics: every element reads
  // the OLD value of its northern neighbour.
  DenseArray<Real, 2> a("a", all);
  a.fill(1.0);
  auto plan_a = scan(reg, a <<= 2.0 * at(a, kNorth)).compile();
  std::cout << "unprimed plan: " << plan_a.describe();
  run_serial(plan_a);
  print_matrix(std::cout, a, 6, 3);

  // (d) a := 2 * a'@north — the prime operator: each row doubles the NEW
  // value written one row above, creating a north-to-south wavefront.
  DenseArray<Real, 2> b("a'", all);
  b.fill(1.0);
  auto plan_b = scan(reg, b <<= 2.0 * prime(b, kNorth)).compile();
  std::cout << "\nprimed plan: " << plan_b.describe();
  run_serial(plan_b);
  print_matrix(std::cout, b, 6, 3);
}

void legality_examples() {
  std::cout << "\n--- The paper's legality examples ---\n\n";
  struct Case {
    const char* label;
    std::vector<Direction<2>> dirs;
  };
  const Case cases[] = {
      {"Example 1: d1=d2=(-1,0)", {{{-1, 0}}, {{-1, 0}}}},
      {"Example 2: d1=(-1,0), d2=(0,-1)", {{{-1, 0}}, {{0, -1}}}},
      {"Example 3: d1=(-1,0), d2=(1,1)", {{{-1, 0}}, {{1, 1}}}},
      {"Example 4: d1=(0,-1), d2=(0,1)", {{{0, -1}}, {{0, 1}}}},
  };
  for (const auto& c : cases) {
    const auto check = check_wavefront<2>(c.dirs);
    std::cout << c.label << ": WSV " << to_string(check.wsv) << " -> "
              << (check.legal ? "legal" : "ILLEGAL (" + check.reason + ")");
    if (check.legal && check.analysis.wavefront_dim)
      std::cout << ", wavefront along dim " << *check.analysis.wavefront_dim;
    std::cout << "\n";
  }
}

void tomcatv_block() {
  std::cout << "\n--- Fig 2(b): the Tomcatv scan block, serial and "
               "pipelined ---\n\n";
  const Coord n = 64;
  const Region<2> global({{1, 1}}, {{n, n}});
  const Region<2> reg({{2, 2}}, {{n - 1, n - 2}});  // [2..n-1, 2..n-2]

  // Serial reference on one processor.
  DenseArray<Real, 2> aa("aa", global), dd("dd", global), d("d", global),
      r("r", global), rx("rx", global), ry("ry", global);
  auto init_all = [&](auto& set) {
    set(aa, -1.0);
    set(dd, 4.0);
    set(d, 0.0);
    set(r, 0.0);
    set(rx, 1.0);
    set(ry, 2.0);
  };
  auto fill_const = [](DenseArray<Real, 2>& arr, Real v) { arr.fill(v); };
  init_all(fill_const);

  auto plan = scan(reg,
                   r <<= aa * prime(d, kNorth),
                   d <<= 1.0 / (dd - at(aa, kNorth) * r),
                   rx <<= rx - prime(rx, kNorth) * r,
                   ry <<= ry - prime(ry, kNorth) * r)
                  .compile();
  std::cout << plan.describe();
  run_serial(plan);
  const Real serial_sum = [&] {
    Real s = 0;
    for_each(reg, [&](const Idx<2>& i) { s += rx(i); });
    return s;
  }();
  std::cout << "serial   sum(rx) = " << serial_sum << "\n";

  // The same block on 4 processors with pipelining, block size 8.
  const int p = 4;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
  auto result = Machine::run(p, CostModel{}, [&](Communicator& comm) {
    const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
    DistArray<Real, 2> daa("aa", layout, comm.rank());
    DistArray<Real, 2> ddd("dd", layout, comm.rank());
    DistArray<Real, 2> dd2("d", layout, comm.rank());
    DistArray<Real, 2> dr("r", layout, comm.rank());
    DistArray<Real, 2> drx("rx", layout, comm.rank());
    DistArray<Real, 2> dry("ry", layout, comm.rank());
    daa.local().fill(-1.0);
    ddd.local().fill(4.0);
    dd2.local().fill(0.0);
    dr.local().fill(0.0);
    drx.local().fill(1.0);
    dry.local().fill(2.0);

    auto dplan = scan(reg,
                      dr.local() <<= daa.local() * prime(dd2.local(), kNorth),
                      dd2.local() <<= 1.0 / (ddd.local() -
                                             at(daa.local(), kNorth) *
                                                 dr.local()),
                      drx.local() <<= drx.local() -
                                      prime(drx.local(), kNorth) * dr.local(),
                      dry.local() <<= dry.local() -
                                      prime(dry.local(), kNorth) * dr.local())
                     .compile();
    const auto report = run_pipelined(dplan, layout, comm, /*block=*/8);
    const Real local_sum = [&] {
      Real s = 0;
      for_each(reg.intersect(layout.owned(comm.rank())),
               [&](const Idx<2>& i) { s += drx(i); });
      return s;
    }();
    const Real total = comm.allreduce_sum(local_sum);
    if (comm.rank() == 0) {
      std::cout << "pipelined sum(rx) = " << total << "   ("
                << report.tasks.size() << " tile tasks of " << report.block
                << " along dim " << report.tile_dim << " per rank)\n";
    }
  });
  std::cout << "machine: " << p << " ranks, "
            << result.total.messages_sent << " messages total\n";
}

}  // namespace

int main() {
  fig3_semantics();
  legality_examples();
  tomcatv_block();
  std::cout << "\nquickstart done.\n";
  return 0;
}
