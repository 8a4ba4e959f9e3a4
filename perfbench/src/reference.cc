#include "reference.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "apps/smith_waterman.hh"
#include "apps/sor.hh"
#include "apps/sweep3d.hh"
#include "apps/tomcatv.hh"

namespace perfbench {

double sw_best_score(std::uint64_t seed, std::int64_t la, std::int64_t lb) {
  const wavepipe::SmithWatermanConfig cfg;  // scoring defaults
  const auto cols = static_cast<std::size_t>(lb) + 1;
  std::vector<int> a(static_cast<std::size_t>(la) + 1), b(cols);
  for (std::int64_t i = 1; i <= la; ++i)
    a[static_cast<std::size_t>(i)] = wavepipe::sw_symbol_a(seed, cfg.alphabet, i);
  for (std::int64_t j = 1; j <= lb; ++j)
    b[static_cast<std::size_t>(j)] = wavepipe::sw_symbol_b(seed, cfg.alphabet, j);

  std::vector<double> prev(cols, 0.0), cur(cols, 0.0);
  double best = 0.0;
  for (std::size_t i = 1; i <= static_cast<std::size_t>(la); ++i) {
    const int ai = a[i];
    for (std::size_t j = 1; j < cols; ++j) {
      const double diag = prev[j - 1] + (ai == b[j] ? cfg.match : cfg.mismatch);
      const double up = prev[j] - cfg.gap;
      const double left = cur[j - 1] - cfg.gap;
      const double h = std::max(std::max(0.0, diag), std::max(up, left));
      cur[j] = h;
      best = std::max(best, h);
    }
    std::swap(prev, cur);
  }
  return best;
}

double sweep3d_total_flux(std::int64_t n, int angles, int iterations) {
  const std::vector<wavepipe::Ordinate> quad = wavepipe::make_quadrature(angles);
  const double sigt = wavepipe::Sweep3dConfig{}.sigt;
  // (n+2)^3 with a zero halo: the halo is the vacuum inflow boundary.
  const std::int64_t m = n + 2;
  auto at = [m](std::int64_t i, std::int64_t j, std::int64_t k) {
    return static_cast<std::size_t>((i * m + j) * m + k);
  };
  const auto cells = static_cast<std::size_t>(m * m * m);
  std::vector<double> src(cells, 0.0), phi(cells, 0.0), flux(cells, 0.0);

  const double nn = static_cast<double>(n);
  const double mid = 0.5 * (nn + 1.0);
  for (std::int64_t i = 1; i <= n; ++i)
    for (std::int64_t j = 1; j <= n; ++j)
      for (std::int64_t k = 1; k <= n; ++k) {
        const double fx = (static_cast<double>(i) - mid) / nn;
        const double fy = (static_cast<double>(j) - mid) / nn;
        const double fz = (static_cast<double>(k) - mid) / nn;
        src[at(i, j, k)] = std::exp(-20.0 * (fx * fx + fy * fy + fz * fz));
      }

  for (int it = 0; it < iterations; ++it) {
    for (int o = 0; o < 8; ++o) {
      // Bit b of the octant set => travel along dimension b descends.
      const std::int64_t sx = (o & 1) ? -1 : 1;
      const std::int64_t sy = (o & 2) ? -1 : 1;
      const std::int64_t sz = (o & 4) ? -1 : 1;
      for (int a = 0; a < angles; ++a) {
        const wavepipe::Ordinate& q = quad[static_cast<std::size_t>(a)];
        const double denom = sigt + q.mu + q.eta + q.xi;
        for (std::int64_t ii = 1; ii <= n; ++ii) {
          const std::int64_t i = sx > 0 ? ii : n + 1 - ii;
          for (std::int64_t jj = 1; jj <= n; ++jj) {
            const std::int64_t j = sy > 0 ? jj : n + 1 - jj;
            for (std::int64_t kk = 1; kk <= n; ++kk) {
              const std::int64_t k = sz > 0 ? kk : n + 1 - kk;
              phi[at(i, j, k)] = (src[at(i, j, k)] + q.mu * phi[at(i - sx, j, k)] +
                                  q.eta * phi[at(i, j - sy, k)] +
                                  q.xi * phi[at(i, j, k - sz)]) /
                                 denom;
            }
          }
        }
        for (std::int64_t i = 1; i <= n; ++i)
          for (std::int64_t j = 1; j <= n; ++j)
            for (std::int64_t k = 1; k <= n; ++k)
              flux[at(i, j, k)] = flux[at(i, j, k)] + q.weight * phi[at(i, j, k)];
      }
    }
  }

  double total = 0.0;
  for (std::int64_t i = 1; i <= n; ++i)
    for (std::int64_t j = 1; j <= n; ++j)
      for (std::int64_t k = 1; k <= n; ++k) total += flux[at(i, j, k)];
  return total;
}

double sor_residual(std::int64_t n, int iters) {
  const double w = wavepipe::SorConfig{}.omega;
  const double pi = 3.14159265358979323846;
  const double h = 1.0 / static_cast<double>(n - 1);
  auto at = [n](std::int64_t i, std::int64_t j) {
    return static_cast<std::size_t>(i * n + j);
  };
  const auto cells = static_cast<std::size_t>(n * n);
  std::vector<double> u(cells), f(cells);
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      // Dirichlet boundary u = x*y, zero initial guess inside; h^2 folded
      // into the source term.
      const double xx = static_cast<double>(i) * h;
      const double yy = static_cast<double>(j) * h;
      const bool boundary = i == 0 || i == n - 1 || j == 0 || j == n - 1;
      u[at(i, j)] = boundary ? xx * yy : 0.0;
      f[at(i, j)] =
          h * h * 2.0 * pi * pi * std::sin(pi * xx) * std::sin(pi * yy);
    }

  const double c_old = 1.0 - w, c_new = w * 0.25;
  for (int it = 0; it < iters; ++it)
    for (std::int64_t i = 1; i < n - 1; ++i)
      for (std::int64_t j = 1; j < n - 1; ++j)
        u[at(i, j)] = c_old * u[at(i, j)] +
                      c_new * (u[at(i - 1, j)] + u[at(i, j - 1)] +
                               u[at(i + 1, j)] + u[at(i, j + 1)] + f[at(i, j)]);

  double norm = 0.0;
  for (std::int64_t i = 1; i < n - 1; ++i)
    for (std::int64_t j = 1; j < n - 1; ++j) {
      const double r = u[at(i - 1, j)] + u[at(i + 1, j)] + u[at(i, j - 1)] +
                       u[at(i, j + 1)] - 4.0 * u[at(i, j)] + f[at(i, j)];
      norm = std::max(norm, std::abs(r));
    }
  return norm;
}

double tomcatv_residual(std::int64_t n, int iters) {
  const double omega = wavepipe::TomcatvConfig{}.omega;
  const double aa = -1.0, dd = 4.0;  // the line system's coefficients
  // 1-based [1..n]^2 like the Fortran; rows 1 and n stay at their initial
  // values (rx, ry, d = 0), which is what the first/last interior rows read.
  const std::int64_t m = n + 1;
  auto at = [m](std::int64_t i, std::int64_t j) {
    return static_cast<std::size_t>(i * m + j);
  };
  const auto cells = static_cast<std::size_t>(m * m);
  std::vector<double> x(cells, 0.0), y(cells, 0.0), rx(cells, 0.0),
      ry(cells, 0.0), d(cells, 0.0);
  for (std::int64_t i = 1; i <= n; ++i)
    for (std::int64_t j = 1; j <= n; ++j) {
      const double fi = static_cast<double>(i);
      const double fj = static_cast<double>(j);
      x[at(i, j)] = fj + 0.25 * std::sin(2.7 * fi) * std::sin(2.9 * fj);
      y[at(i, j)] = fi + 0.25 * std::cos(2.6 * fi) * std::sin(2.8 * fj);
    }

  double norm = 0.0;
  for (int it = 0; it < iters; ++it) {
    double mx = 0.0, my = 0.0;
    for (std::int64_t i = 2; i < n; ++i)
      for (std::int64_t j = 2; j < n; ++j) {
        const std::size_t c = at(i, j);
        rx[c] = x[at(i - 1, j)] + x[at(i + 1, j)] + x[at(i, j - 1)] +
                x[at(i, j + 1)] - 4.0 * x[c];
        ry[c] = y[at(i - 1, j)] + y[at(i + 1, j)] + y[at(i, j - 1)] +
                y[at(i, j + 1)] - 4.0 * y[c];
        mx = std::max(mx, std::abs(rx[c]));
        my = std::max(my, std::abs(ry[c]));
      }
    norm = mx > my ? mx : my;
    // Forward elimination (north to south), then back substitution.
    for (std::int64_t i = 2; i < n; ++i)
      for (std::int64_t j = 2; j < n; ++j) {
        const std::size_t c = at(i, j), north = at(i - 1, j);
        const double r = aa * d[north];
        d[c] = 1.0 / (dd - aa * r);
        rx[c] = rx[c] - rx[north] * r;
        ry[c] = ry[c] - ry[north] * r;
      }
    for (std::int64_t i = n - 1; i >= 2; --i)
      for (std::int64_t j = 2; j < n; ++j) {
        const std::size_t c = at(i, j), south = at(i + 1, j);
        rx[c] = (rx[c] - aa * rx[south]) * d[c];
        ry[c] = (ry[c] - aa * ry[south]) * d[c];
      }
    for (std::int64_t i = 2; i < n; ++i)
      for (std::int64_t j = 2; j < n; ++j) {
        const std::size_t c = at(i, j);
        x[c] = x[c] + omega * rx[c];
        y[c] = y[c] + omega * ry[c];
      }
  }
  return norm;
}

}  // namespace perfbench
