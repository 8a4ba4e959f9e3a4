// The sweep service as a client sees it: submit a mixed batch of jobs —
// different apps, sizes, rank counts and policies, some with an explicit
// block size and some leaving b to the model — then drain the queue and
// print each job's bill: which app ran, the block chosen (and whether the
// service chose it), whether the plan came from the cache, the session
// and rank window it ran in, the T_comp/T_comm/T_wait breakdown, and the
// job's own wall seconds.
//
//   ./service_demo [--ranks 8] [--repeat 2]
//
// --repeat resubmits the batch to show plan-cache hits on the second lap.
#include <iostream>
#include <string>
#include <vector>

#include "service/service.hh"
#include "support/options.hh"
#include "support/table.hh"

using namespace wavepipe;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  ServiceConfig cfg = ServiceConfig::from_env();
  cfg.ranks = static_cast<int>(opts.get_int("ranks", cfg.ranks));
  cfg.costs.alpha = opts.get_double("alpha", 40.0);
  cfg.costs.beta = opts.get_double("beta", 0.5);
  const int repeat = static_cast<int>(opts.get_int("repeat", 2));

  SweepService svc(cfg);

  // A mixed batch: the service packs compatible jobs into shared rounds.
  std::vector<JobParams> batch;
  {
    JobParams j;
    j.app = "tomcatv";
    j.n = 64;
    j.p = 4;
    j.iters = 2;
    batch.push_back(j);  // b left to the model
    j.app = "sweep3d";
    j.n = 12;
    j.p = 2;
    j.iters = 1;
    batch.push_back(j);
    j.app = "smith-waterman";
    j.n = 96;
    j.p = 2;
    j.b = 8;  // client-pinned block
    batch.push_back(j);
    j.app = "alt-sweep";
    j.n = 24;
    j.p = 4;
    j.b = 0;
    j.policy = WavePolicy::kOverlap;
    batch.push_back(j);
    j.app = "sor";
    j.n = 48;
    j.p = 2;
    j.policy = WavePolicy::kNaive;
    batch.push_back(j);
  }

  for (int lap = 0; lap < repeat; ++lap) {
    std::vector<JobId> ids;
    for (const JobParams& j : batch) ids.push_back(svc.submit(j));
    svc.drain();

    Table t("Service bills, lap " + std::to_string(lap + 1) + " of " +
            std::to_string(repeat) + " (pool: " + std::to_string(cfg.ranks) +
            " ranks)");
    t.set_header({"job", "app", "n", "p", "b", "policy", "cache", "session",
                  "ranks", "T_comp", "T_comm", "T_wait", "wall s"});
    for (const JobId id : ids) {
      const JobBill bill = svc.wait(id).bill;
      t.add_row({std::to_string(bill.id), bill.app, std::to_string(bill.n),
                 std::to_string(bill.p),
                 std::to_string(bill.block) + (bill.block_auto ? "*" : ""),
                 to_string(bill.policy), bill.cache_hit ? "hit" : "miss",
                 std::to_string(bill.round),
                 "[" + std::to_string(bill.base_rank) + "," +
                     std::to_string(bill.base_rank + bill.p) + ")",
                 fmt(bill.phases_total.t_comp), fmt(bill.phases_total.t_comm),
                 fmt(bill.phases_total.t_wait), fmt(bill.wall_seconds)});
    }
    t.add_note("b marked * was chosen by the service from the cost model "
               "(alpha=" + fmt(cfg.costs.alpha) + ", beta=" +
               fmt(cfg.costs.beta) + ")");
    t.print(std::cout);
  }

  std::cout << "sessions: " << svc.rounds()
            << ", plan cache hits: " << svc.cache_hits()
            << ", misses: " << svc.cache_misses() << "\n";
  return 0;
}
