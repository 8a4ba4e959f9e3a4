// Unit tests: ghost (fluff) exchange, including corner propagation for
// diagonal stencils and multi-width halos.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "array/io.hh"
#include "comm/machine.hh"
#include "support/rng.hh"

namespace wavepipe {
namespace {

double stamp(const Idx<2>& i) {
  return static_cast<double>(i.v[0] * 1000 + i.v[1]);
}

TEST(Ghost, OneDimExchangeFillsBothSides) {
  Machine::run(4, {}, [](Communicator& comm) {
    const Layout<2> layout(Region<2>({{1, 1}}, {{16, 5}}),
                           ProcGrid<2>({4, 1}), Idx<2>{{2, 0}});
    DistArray<double, 2> a("a", layout, comm.rank());
    a.local().fill(-1.0);
    a.fill_owned(stamp);
    exchange_ghosts(a, comm, Idx<2>{{2, 0}});

    const Region<2> owned = a.owned();
    const Region<2> global = layout.global();
    // Interior fluff rows now hold the neighbours' stamps.
    for (Coord roff = 1; roff <= 2; ++roff) {
      for (Coord j = 1; j <= 5; ++j) {
        const Idx<2> below{{owned.hi(0) + roff, j}};
        if (global.contains(below)) {
          EXPECT_DOUBLE_EQ(a(below), stamp(below));
        }
        const Idx<2> above{{owned.lo(0) - roff, j}};
        if (global.contains(above)) {
          EXPECT_DOUBLE_EQ(a(above), stamp(above));
        }
      }
    }
  });
}

TEST(Ghost, TwoDimExchangeFillsCorners) {
  Machine::run(4, {}, [](Communicator& comm) {
    const Layout<2> layout(Region<2>({{1, 1}}, {{8, 8}}),
                           ProcGrid<2>({2, 2}), Idx<2>{{1, 1}});
    DistArray<double, 2> a("a", layout, comm.rank());
    a.local().fill(-1.0);
    a.fill_owned(stamp);
    exchange_ghosts(a, comm, Idx<2>{{1, 1}});

    // Every allocated cell inside the global region — including diagonal
    // corners — must now hold its owner's stamp.
    const Region<2> global = layout.global();
    for_each(a.local().region(), [&](const Idx<2>& i) {
      if (global.contains(i)) {
        EXPECT_DOUBLE_EQ(a(i), stamp(i));
      }
    });
  });
}

TEST(Ghost, ZeroWidthIsNoOp) {
  Machine::run(2, {}, [](Communicator& comm) {
    const Layout<2> layout(Region<2>({{1, 1}}, {{8, 4}}),
                           ProcGrid<2>({2, 1}), Idx<2>{{1, 0}});
    DistArray<double, 2> a("a", layout, comm.rank());
    a.local().fill(-7.0);
    a.fill_owned(stamp);
    auto res_before = a.local().raw();
    exchange_ghosts(a, comm, Idx<2>{{0, 0}});
    EXPECT_EQ(a.local().raw(), res_before);
  });
}

TEST(Ghost, UndistributedDimNeedsNoComm) {
  auto res = Machine::run(2, {}, [](Communicator& comm) {
    const Layout<2> layout(Region<2>({{1, 1}}, {{8, 8}}),
                           ProcGrid<2>({2, 1}), Idx<2>{{1, 1}});
    DistArray<double, 2> a("a", layout, comm.rank());
    a.fill_owned(stamp);
    exchange_ghosts(a, comm, Idx<2>{{1, 1}});
  });
  // Only the distributed dimension exchanges: 2 messages total (one each
  // direction across the single internal boundary).
  EXPECT_EQ(res.total.messages_sent, 2u);
}

TEST(Ghost, WidthBeyondFluffRejected) {
  EXPECT_THROW(
      Machine::run(2, {},
                   [](Communicator& comm) {
                     const Layout<2> layout(Region<2>({{1, 1}}, {{8, 4}}),
                                            ProcGrid<2>({2, 1}),
                                            Idx<2>{{1, 0}});
                     DistArray<double, 2> a("a", layout, comm.rank());
                     exchange_ghosts(a, comm, Idx<2>{{2, 0}});
                   }),
      ContractError);
}

TEST(Ghost, Rank3Exchange) {
  Machine::run(8, {}, [](Communicator& comm) {
    const Layout<3> layout(Region<3>({{1, 1, 1}}, {{8, 8, 8}}),
                           ProcGrid<3>({2, 2, 2}), Idx<3>{{1, 1, 1}});
    DistArray<double, 3> a("a", layout, comm.rank());
    a.local().fill(-1.0);
    a.fill_owned([](const Idx<3>& i) {
      return static_cast<double>(i.v[0] * 10000 + i.v[1] * 100 + i.v[2]);
    });
    exchange_ghosts(a, comm, Idx<3>{{1, 1, 1}});
    const Region<3> global = layout.global();
    for_each(a.local().region(), [&](const Idx<3>& i) {
      if (global.contains(i)) {
        EXPECT_DOUBLE_EQ(
            a(i), static_cast<double>(i.v[0] * 10000 + i.v[1] * 100 + i.v[2]));
      }
    });
  });
}

TEST(Ghost, BundledExchangeSendsOneMessagePerNeighborDirection) {
  // Three arrays exchanged in one bundled call: the halo traffic is one
  // message per (neighbor, direction), not one per array — a 3x drop in
  // message count (and alpha cost) versus three separate exchanges.
  CostModel cm;
  cm.alpha = 50.0;
  cm.beta = 1.0;
  auto run = [cm](bool bundled) {
    return Machine::run(2, cm, [bundled](Communicator& comm) {
      const Layout<2> layout(Region<2>({{1, 1}}, {{12, 6}}),
                             ProcGrid<2>({2, 1}), Idx<2>{{1, 1}});
      DistArray<double, 2> a("a", layout, comm.rank());
      DistArray<double, 2> b("b", layout, comm.rank());
      DistArray<double, 2> c("c", layout, comm.rank());
      for (auto* arr : {&a, &b, &c}) {
        arr->local().fill(-1.0);
        arr->fill_owned(stamp);
      }
      if (bundled) {
        const GhostHalo<double, 2> halos[] = {
            {&a.local(), Idx<2>{{1, 1}}},
            {&b.local(), Idx<2>{{1, 1}}},
            {&c.local(), Idx<2>{{1, 1}}},
        };
        exchange_ghosts(std::span<const GhostHalo<double, 2>>(halos), layout,
                        comm.rank(), comm);
      } else {
        exchange_ghosts(a, comm, Idx<2>{{1, 1}}, 100);
        exchange_ghosts(b, comm, Idx<2>{{1, 1}}, 102);
        exchange_ghosts(c, comm, Idx<2>{{1, 1}}, 104);
      }
      const Region<2> global = layout.global();
      for (auto* arr : {&a, &b, &c}) {
        for_each(arr->local().region(), [&](const Idx<2>& i) {
          if (global.contains(i)) {
            EXPECT_DOUBLE_EQ((*arr)(i), stamp(i));
          }
        });
      }
    });
  };
  const auto separate = run(false);
  const auto bundled = run(true);
  // One internal boundary, two directions: 2 messages bundled vs 6 separate.
  EXPECT_EQ(separate.total.messages_sent, 6u);
  EXPECT_EQ(bundled.total.messages_sent, 2u);
  // Same payload either way; the saving is per-message latency (alpha).
  EXPECT_EQ(bundled.total.elements_sent, separate.total.elements_sent);
  EXPECT_LT(bundled.vtime_max, separate.vtime_max);
}

// pack_region_into / unpack_region copy whole pencils; the element-wise
// for_each walk is the reference they must match, element for element, in
// canonical payload order.
template <Rank R>
void check_pencil_pack(SplitMix64& rng, StorageOrder order) {
  Idx<R> lo, hi;
  for (Rank d = 0; d < R; ++d) {
    lo.v[d] = rng.uniform_int(-3, 3);
    hi.v[d] = lo.v[d] + rng.uniform_int(0, 6);
  }
  const Region<R> whole(lo, hi);
  DenseArray<double, R> a("a", whole, order);
  for (double& x : a.raw()) x = rng.uniform(-1.0, 1.0);

  for (int trial = 0; trial < 40; ++trial) {
    // Random sub-box; one trial in four collapses it to a single element
    // and one in eight empties it.
    Idx<R> flo, fhi;
    for (Rank d = 0; d < R; ++d) {
      flo.v[d] = rng.uniform_int(lo.v[d], hi.v[d]);
      fhi.v[d] = rng.uniform_int(flo.v[d], hi.v[d]);
    }
    if (trial % 4 == 1) fhi = flo;
    if (trial % 8 == 3) fhi.v[R - 1] = flo.v[R - 1] - 1;
    const Region<R> face(flo, fhi);
    SCOPED_TRACE("face " + to_string(face) + " of " + to_string(whole) +
                 (order == StorageOrder::kRowMajor ? " row-major"
                                                   : " column-major"));

    std::vector<double> ref{-7.0};  // packing appends after existing data
    for_each(face, [&](const Idx<R>& i) { ref.push_back(a(i)); });
    std::vector<double> got{-7.0};
    pack_region_into(a, face, got);
    ASSERT_EQ(got, ref);
    EXPECT_EQ(pack_region(a, face),
              std::vector<double>(ref.begin() + 1, ref.end()));

    // Unpacking a random payload changes exactly the face, in the same
    // canonical order.
    std::vector<double> payload(static_cast<std::size_t>(face.size()));
    for (double& x : payload) x = rng.uniform(2.0, 3.0);
    DenseArray<double, R> want("want", whole, order);
    DenseArray<double, R> have("have", whole, order);
    want.raw() = a.raw();
    have.raw() = a.raw();
    std::size_t k = 0;
    for_each(face, [&](const Idx<R>& i) { want(i) = payload[k++]; });
    unpack_region(have, face, std::span<const double>(payload));
    ASSERT_EQ(have.raw(), want.raw());
  }
}

TEST(PencilPack, MatchesElementWiseReferenceAtRanks2And3) {
  const std::uint64_t seed = test_seed(20261017);
  SCOPED_TRACE("WAVEPIPE_SEED=" + std::to_string(seed));
  SplitMix64 rng(seed);
  for (int rep = 0; rep < 6; ++rep)
    for (const StorageOrder order :
         {StorageOrder::kRowMajor, StorageOrder::kColMajor}) {
      check_pencil_pack<2>(rng, order);
      check_pencil_pack<3>(rng, order);
    }
}

}  // namespace
}  // namespace wavepipe
