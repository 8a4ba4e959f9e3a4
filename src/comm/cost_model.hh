// Communication/computation cost model for the virtual-time machine.
//
// The paper (§4) models the cost of transmitting a message of n words as
// alpha + beta*n, with all times normalized to the cost of computing one
// element of the data space. The virtual-time runtime charges exactly these
// costs, which is what makes T3E-scale pipelining experiments reproducible
// on a single-core host: speedups are functions of (alpha, beta, n, p), not
// of host wall-clock behaviour.
#pragma once

#include <cstddef>
#include <string>

namespace wavepipe {

/// Cost parameters, in units of "time to compute one element".
struct CostModel {
  /// Per-message startup cost (the paper's alpha).
  double alpha = 0.0;
  /// Per-element transmission cost (the paper's beta).
  double beta = 0.0;
  /// Cost of computing one element (normalization; almost always 1).
  double compute_per_element = 1.0;
  /// When true (default) the whole message cost alpha + beta*n is charged
  /// to the *sender's* clock and the message arrives at the sender's new
  /// time — messages on a path serialize, which is exactly how the paper's
  /// critical-path analysis counts (n/b + p - 2) message costs. When false
  /// the cost is pure wire latency (messages overlap; a LogP-style L with
  /// zero overhead), and only `send_overhead` charges the sender.
  bool occupy_sender = true;
  /// Extra per-message sender overhead, used only when occupy_sender is
  /// false (models CPU-attached NICs under the latency interpretation).
  double send_overhead = 0.0;

  /// True when every cost is zero: the runtime then never advances virtual
  /// clocks and behaves as a plain message-passing library.
  bool is_free() const {
    return alpha == 0.0 && beta == 0.0 && send_overhead == 0.0;
  }

  /// Wire cost of one message of `elements` elements: alpha + beta*n.
  double message_cost(std::size_t elements) const {
    return alpha + beta * static_cast<double>(elements);
  }

  std::string describe() const;
};

}  // namespace wavepipe
