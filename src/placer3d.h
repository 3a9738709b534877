// Umbrella header: everything a library consumer typically needs.
//
//   #include "placer3d.h"
//
//   auto netlist = p3d::io::Generate(p3d::io::Table1Spec("ibm01", 0.1));
//   auto placer = p3d::place::Placer3D::Create(netlist, {});
//   if (!placer.ok()) return;  // placer.status() says why
//   auto result = placer->Run({});
//
// Individual headers remain includable for finer-grained use; see
// docs/ALGORITHM.md for the map.
#pragma once

#include "io/bookshelf.h"
#include "io/svg.h"
#include "io/synthetic.h"
#include "netlist/netlist.h"
#include "place/chip.h"
#include "place/params.h"
#include "place/placer.h"
#include "place/report.h"
#include "runtime/parallel.h"
#include "runtime/stream.h"
#include "runtime/thread_pool.h"
#include "serve/batch.h"
#include "serve/job_engine.h"
#include "serve/manifest.h"
#include "thermal/fea.h"
#include "thermal/power.h"
#include "thermal/resistance.h"
#include "thermal/stack.h"
#include "util/log.h"
