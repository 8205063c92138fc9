// BslcCompositor: a constructor-only shim over core::bslc() (core/plan_compositor.hpp),
// kept only because perfbench names this class. New code uses core::bslc();
// the shim goes with perfbench's next change.
#pragma once

#include "core/plan_compositor.hpp"

namespace slspvr::core {

class BslcCompositor : public PlanCompositor {
 public:
  BslcCompositor() : PlanCompositor(bslc()) {}
};

}  // namespace slspvr::core
