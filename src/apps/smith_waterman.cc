#include "apps/smith_waterman.hh"

#include <algorithm>
#include <vector>

namespace wavepipe {

namespace {

// An allocated block's rows at its first column, and its columns at its
// first row: the shapes of the two symbol vectors.
Region<2> row_vector(const Region<2>& a) {
  return Region<2>({{a.lo(0), a.lo(1)}}, {{a.hi(0), a.lo(1)}});
}
Region<2> col_vector(const Region<2>& a) {
  return Region<2>({{a.lo(0), a.lo(1)}}, {{a.lo(0), a.hi(1)}});
}

}  // namespace

SmithWaterman::SmithWaterman(const SmithWatermanConfig& cfg,
                             const ProcGrid<2>& grid, int rank)
    : cfg_(cfg),
      grid_(grid),
      rank_(rank),
      global_({{0, 0}}, {{cfg.la, cfg.lb}}),
      cells_({{1, 1}}, {{cfg.la, cfg.lb}}),
      layout_(global_, grid, Idx<2>{{1, 1}}),
      h_("H", layout_.allocated(rank), cfg.order),
      sym_a_("sym_a", row_vector(layout_.allocated(rank)), cfg.order),
      sym_b_("sym_b", col_vector(layout_.allocated(rank)), cfg.order),
      plan_(compile_fill()) {
  require(cfg.la >= 1 && cfg.lb >= 1, "sequences must be non-empty");
  fill_symbols();  // H is born zero
}

WavefrontPlan<2> SmithWaterman::compile_fill() {
  const Real g = cfg_.gap;
  return scan(cells_,
              h_ <<= max_e(0.0,
                           max_e(prime(h_, kNorthWest) +
                                     select_e(eq_e(flood(sym_a_, {1}),
                                                   flood(sym_b_, {0})),
                                              cfg_.match, cfg_.mismatch),
                                 max_e(prime(h_, kNorth) - g,
                                       prime(h_, kWest) - g))))
      .compile();
}

int sw_symbol_a(std::uint64_t seed, int alphabet, Coord i) {
  SplitMix64 rng(seed * 2654435761ULL + static_cast<std::uint64_t>(i));
  return static_cast<int>(rng.next() % static_cast<std::uint64_t>(alphabet));
}

int sw_symbol_b(std::uint64_t seed, int alphabet, Coord j) {
  SplitMix64 rng(seed * 40503ULL + 0x9e3779b9ULL +
                 static_cast<std::uint64_t>(j));
  return static_cast<int>(rng.next() % static_cast<std::uint64_t>(alphabet));
}

namespace {

// sym(lo), ..., sym(hi): a sequence's symbols hashed once each, so the DP
// loops look them up instead of hashing twice per cell.
template <typename SymbolFn>
std::vector<int> symbol_table(Coord lo, Coord hi, SymbolFn sym) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(hi - lo + 1));
  for (Coord i = lo; i <= hi; ++i) out.push_back(sym(i));
  return out;
}

}  // namespace

int SmithWaterman::symbol_a(Coord i) const {
  return sw_symbol_a(cfg_.seed, cfg_.alphabet, i);
}

int SmithWaterman::symbol_b(Coord j) const {
  return sw_symbol_b(cfg_.seed, cfg_.alphabet, j);
}

void SmithWaterman::init() {
  h_.fill(0.0);  // includes the zero boundary row/column and fluff
  fill_symbols();
}

void SmithWaterman::fill_symbols() {
  // Symbols are small integers, exact as doubles; the boundary row and
  // column get symbols too, which the fill never reads.
  sym_a_.fill_fn([this](const Idx<2>& i) {
    return static_cast<Real>(symbol_a(i.v[0]));
  });
  sym_b_.fill_fn([this](const Idx<2>& i) {
    return static_cast<Real>(symbol_b(i.v[1]));
  });
}

std::size_t SmithWaterman::resident_elements() const {
  return h_.raw().size() + sym_a_.raw().size() + sym_b_.raw().size();
}

WaveReport<2> SmithWaterman::fill(Communicator& comm,
                                  const WaveOptions& opts) {
  return run_wavefront(plan_, layout_, comm, opts);
}

TaskGraph SmithWaterman::build_fill_graph(const WaveOptions& opts) {
  TaskGraph g;
  TagAllocator ta(opts.tag_base);
  const TagRange tags =
      ta.alloc(wavefront_tag_span<2>(2), "smith-waterman fill");
  LowerOptions lo;
  lo.block = opts.block;
  lo.block_w = opts.block_w;
  lo.charge = opts.charge;
  lower_wavefront(g, plan_, layout_, rank_, tags, "sw", lo);
  return g;
}

SchedReport SmithWaterman::fill_scheduled(Communicator& comm,
                                          const WaveOptions& opts,
                                          const SchedOptions& sopts) {
  require(comm.rank() == rank_,
          "fill_scheduled must run on the rank this instance was built for");
  TaskGraph g = build_fill_graph(opts);
  return run_graph(g, comm, sopts);
}

void SmithWaterman::extract_owned_h(std::span<Real> out) const {
  const std::size_t cols = static_cast<std::size_t>(cfg_.lb) + 1;
  require(out.size() >= (static_cast<std::size_t>(cfg_.la) + 1) * cols,
          "extract_owned_h: output buffer too small");
  for_each(layout_.owned(rank_), [&](const Idx<2>& i) {
    out[static_cast<std::size_t>(i.v[0]) * cols +
        static_cast<std::size_t>(i.v[1])] = h_(i);
  });
}

Real SmithWaterman::best_score(Communicator& comm) {
  return global_max_abs(h_, cells_, layout_, comm);  // H >= 0, so max == max|.|
}

Real SmithWaterman::checksum(Communicator& comm) {
  return global_sum(h_, cells_, layout_, comm);
}

Real SmithWaterman::reference_best_score() const {
  const std::size_t cols = static_cast<std::size_t>(cfg_.lb) + 1;
  std::vector<Real> prev(cols, 0.0), cur(cols, 0.0);
  // Index 0 is unused: positions are 1-based.
  const auto sb = symbol_table(0, cfg_.lb,
                               [this](Coord j) { return symbol_b(j); });
  Real best = 0.0;
  for (Coord i = 1; i <= cfg_.la; ++i) {
    const int ai = symbol_a(i);
    cur[0] = 0.0;
    for (Coord j = 1; j <= cfg_.lb; ++j) {
      const Real sim = ai == sb[static_cast<std::size_t>(j)] ? cfg_.match
                                                             : cfg_.mismatch;
      const Real diag = prev[static_cast<std::size_t>(j - 1)] + sim;
      const Real up = prev[static_cast<std::size_t>(j)] - cfg_.gap;
      const Real left = cur[static_cast<std::size_t>(j - 1)] - cfg_.gap;
      cur[static_cast<std::size_t>(j)] =
          std::max({0.0, diag, up, left});
      best = std::max(best, cur[static_cast<std::size_t>(j)]);
    }
    std::swap(prev, cur);
  }
  return best;
}

Real smith_waterman_spmd(Communicator& comm, const SmithWatermanConfig& cfg,
                         const ProcGrid<2>& grid, const WaveOptions& opts) {
  SmithWaterman app(cfg, grid, comm.rank());
  app.fill(comm, opts);
  return app.best_score(comm);
}

BandedSmithWaterman::BandedSmithWaterman(const BandedSwConfig& cfg,
                                         const ProcGrid<2>& grid, int rank)
    : cfg_(cfg), grid_(grid), rank_(rank) {
  require(cfg.n >= 1, "banded SW needs a non-empty sequence");
  require(cfg.band >= 1, "banded SW needs band >= 1");
  require(cfg.block >= 1, "banded SW needs block >= 1");
  const Layout<2> layout(Region<2>({{1, 1}}, {{cfg.n, cfg.n}}), grid,
                         Idx<2>{{0, 0}});
  owned_ = layout.owned(rank);
  require(owned_.size() > 0,
          "every rank of a banded SW grid must own rows and columns "
          "(shrink the grid)");
  // Ring width: a row's live span is [i-band-1 .. i+band] (2*band + 2
  // positions); when the local column range is narrower than that, plain
  // j % W indexing over [ca-1 .. cb] never wraps at all.
  const Coord w = std::min<Coord>(owned_.extent(1) + 2, 2 * cfg.band + 3);
  prev_.assign(static_cast<std::size_t>(w), 0.0);
  cur_.assign(static_cast<std::size_t>(w), 0.0);
  sym_b_.assign(static_cast<std::size_t>(w), 0);
}

Real BandedSmithWaterman::fill(Communicator& comm) {
  const Coord ra = owned_.lo(0), rb = owned_.hi(0);
  const Coord ca = owned_.lo(1), cb = owned_.hi(1);
  const Coord k = cfg_.band;
  const int north = grid_.neighbor(rank_, 0, -1);
  const int south = grid_.neighbor(rank_, 0, +1);
  const int west = grid_.neighbor(rank_, 1, -1);
  const int east = grid_.neighbor(rank_, 1, +1);
  const int tag_we = cfg_.tag_base;      // west->east boundary columns
  const int tag_ns = cfg_.tag_base + 1;  // north->south row segments

  const Coord w = static_cast<Coord>(prev_.size());
  auto idx = [w](Coord j) { return static_cast<std::size_t>(j % w); };

  std::fill(prev_.begin(), prev_.end(), 0.0);
  std::fill(cur_.begin(), cur_.end(), 0.0);

  // The previous-row segment a rank whose first row is `first` needs from
  // its north neighbour: H(first-1, j) for the live span clipped to its
  // columns. Sender and receiver evaluate the same formula, so widths
  // agree without negotiation; an empty span means the band is nowhere
  // near this column block at the boundary row and zeros suffice.
  auto seg = [k](Coord first, Coord ca_, Coord cb_) {
    return std::pair<Coord, Coord>(std::max(ca_ - 1, first - k - 1),
                                   std::min(cb_, first - 1 + k));
  };
  if (north >= 0) {
    const auto [slo, shi] = seg(ra, ca, cb);
    if (slo <= shi) {
      edge_buf_.resize(static_cast<std::size_t>(shi - slo + 1));
      comm.recv(north, std::span<Real>(edge_buf_), tag_ns);
      for (Coord j = slo; j <= shi; ++j)
        prev_[idx(j)] = edge_buf_[static_cast<std::size_t>(j - slo)];
    }
  }

  // sym_b_ rings sequence b's symbols like prev_/cur_ ring H: a column's
  // symbol is hashed once, when the band first reaches it, and stays put
  // while the column is in band (jlo and jhi only grow with i).
  Coord sym_hi = ca - 1;  // the highest column whose symbol is in the ring
  Real best = 0.0;
  for (Coord i0 = ra; i0 <= rb; i0 += cfg_.block) {
    const Coord i1 = std::min(rb, i0 + cfg_.block - 1);
    if (west >= 0) {
      west_buf_.resize(static_cast<std::size_t>(i1 - i0 + 1));
      comm.recv(west, std::span<Real>(west_buf_), tag_we);
    }
    east_buf_.clear();
    double cells = 0.0;
    for (Coord i = i0; i <= i1; ++i) {
      const Coord jlo = std::max(ca, i - k);
      const Coord jhi = std::min(cb, i + k);
      // The west boundary column: the relayed value (or the zero boundary
      // when this is the leftmost column block). Once the band has moved
      // past it (i > ca + k) its ring slot belongs to a live cell and the
      // value could only ever read as 0 — skip the write.
      if (i <= ca + k)
        cur_[idx(ca - 1)] =
            west >= 0 ? west_buf_[static_cast<std::size_t>(i - i0)] : 0.0;
      if (jlo <= jhi) {
        // The two band-edge slots whose previous occupants are stale:
        // (i, jlo-1) is out of band when jlo > ca, and (i-1, jhi) is out
        // of band when the band's right edge just grew into jhi.
        if (jlo > ca) cur_[idx(jlo - 1)] = 0.0;
        if (jhi == i + k) prev_[idx(jhi)] = 0.0;
        for (Coord j = std::max(sym_hi + 1, jlo); j <= jhi; ++j)
          sym_b_[idx(j)] = sw_symbol_b(cfg_.seed, cfg_.alphabet, j);
        sym_hi = std::max(sym_hi, jhi);
        const int ai = sw_symbol_a(cfg_.seed, cfg_.alphabet, i);
        for (Coord j = jlo; j <= jhi; ++j) {
          const Real sim =
              ai == sym_b_[idx(j)] ? cfg_.match : cfg_.mismatch;
          const Real diag = prev_[idx(j - 1)] + sim;
          const Real up = prev_[idx(j)] - cfg_.gap;
          const Real left = cur_[idx(j - 1)] - cfg_.gap;
          const Real h = std::max({0.0, diag, up, left});
          cur_[idx(j)] = h;
          best = std::max(best, h);
        }
        cells += static_cast<double>(jhi - jlo + 1);
      }
      if (east >= 0)
        east_buf_.push_back(jlo <= jhi && jhi == cb ? cur_[idx(cb)] : 0.0);
      std::swap(prev_, cur_);
    }
    if (cells > 0.0) comm.compute(cells);
    if (east >= 0) comm.send(east, std::span<const Real>(east_buf_), tag_we);
  }

  if (south >= 0) {
    const auto [slo, shi] = seg(rb + 1, ca, cb);
    if (slo <= shi) {
      edge_buf_.resize(static_cast<std::size_t>(shi - slo + 1));
      for (Coord j = slo; j <= shi; ++j)
        edge_buf_[static_cast<std::size_t>(j - slo)] =
            in_band(rb, j) ? prev_[idx(j)] : 0.0;
      comm.send(south, std::span<const Real>(edge_buf_), tag_ns);
    }
  }
  return comm.allreduce_max(best);
}

std::size_t BandedSmithWaterman::resident_elements() const {
  return prev_.size() + cur_.size() + sym_b_.size() + west_buf_.capacity() +
         east_buf_.capacity() + edge_buf_.capacity();
}

Real BandedSmithWaterman::reference_best_score() const {
  const Coord n = cfg_.n, k = cfg_.band;
  std::vector<Real> prev(static_cast<std::size_t>(n) + 2, 0.0);
  std::vector<Real> cur(static_cast<std::size_t>(n) + 2, 0.0);
  // Index 0 is unused: positions are 1-based.
  const auto sb = symbol_table(0, n, [this](Coord j) {
    return sw_symbol_b(cfg_.seed, cfg_.alphabet, j);
  });
  Real best = 0.0;
  for (Coord i = 1; i <= n; ++i) {
    const Coord jlo = std::max<Coord>(1, i - k);
    const Coord jhi = std::min<Coord>(n, i + k);
    const int ai = sw_symbol_a(cfg_.seed, cfg_.alphabet, i);
    cur[static_cast<std::size_t>(jlo - 1)] = 0.0;
    if (jhi == i + k) prev[static_cast<std::size_t>(jhi)] = 0.0;
    for (Coord j = jlo; j <= jhi; ++j) {
      const std::size_t sj = static_cast<std::size_t>(j);
      const Real sim = ai == sb[sj] ? cfg_.match : cfg_.mismatch;
      const Real diag = prev[sj - 1] + sim;
      const Real up = prev[sj] - cfg_.gap;
      const Real left = cur[sj - 1] - cfg_.gap;
      const Real h = std::max({0.0, diag, up, left});
      cur[sj] = h;
      best = std::max(best, h);
    }
    std::swap(prev, cur);
  }
  return best;
}

}  // namespace wavepipe
