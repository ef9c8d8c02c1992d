// The request mix the serving topology draws from (workload/topology.h):
// each request is one CoW fork of a master image whose handshake does its
// class's MAC-block work. Defined in topology.cc, the one serving engine.
#pragma once

#include <vector>

#include "common/types.h"

namespace acs::workload {

/// Request size classes: the handshake's MAC-block count per class and
/// its selection weight in per-mille. The heavy tail (rare huge requests)
/// is what separates p50 from p999 under load.
struct ServiceClass {
  const char* name;
  u64 work_units;
  u64 weight_permille;
};

/// The default mix: mostly small requests, a 1% huge tail.
[[nodiscard]] const std::vector<ServiceClass>& default_service_classes();

}  // namespace acs::workload
