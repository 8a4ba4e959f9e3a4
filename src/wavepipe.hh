// Umbrella header: everything a wavepipe application needs.
//
//   #include "wavepipe.hh"
//   using namespace wavepipe;
//
// See README.md for the quickstart and DESIGN.md for the architecture.
#pragma once

#include "array/dense.hh"        // DenseArray: local storage
#include "array/dist_array.hh"   // DistArray: a rank's slice of a global array
#include "array/ghost.hh"        // halo exchange for @-shifts
#include "array/io.hh"           // gather/scatter, printing
#include "array/transpose.hh"    // distributed 2-D transpose
#include "comm/machine.hh"       // Machine, Communicator, CostModel
#include "dist/layout.hh"        // ProcGrid, BlockDist1D, Layout
#include "exec/block_select.hh"  // Eq (1) static selection + auto-tuner
#include "exec/driver.hh"        // parallel statements, global reductions
#include "exec/pipelined.hh"     // wave tiling, WaveOptions
#include "exec/serial.hh"        // run_serial, apply_statement
#include "exec/unfused.hh"       // the array-semantics baseline executor
#include "index/index.hh"        // Idx, Direction, the cardinal directions
#include "index/region.hh"       // Region (ZPL regions)
#include "lang/contraction.hh"   // array-contraction analysis
#include "lang/scan_block.hh"    // scan blocks, the prime operator, plans
#include "model/machines.hh"     // calibrated machine presets
#include "model/model.hh"        // the paper's Model1/Model2
#include "sched/sched.hh"        // the scheduler, run_pipelined / run_wavefront
