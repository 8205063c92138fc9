// BsbrcCompositor: a constructor-only shim over core::bsbrc() (core/plan_compositor.hpp),
// kept only because perfbench names this class. New code uses core::bsbrc();
// the shim goes with perfbench's next change.
#pragma once

#include "core/plan_compositor.hpp"

namespace slspvr::core {

class BsbrcCompositor : public PlanCompositor {
 public:
  BsbrcCompositor() : PlanCompositor(bsbrc()) {}
};

}  // namespace slspvr::core
