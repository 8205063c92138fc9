// BinarySwapCompositor: a constructor-only shim over core::bs() (core/plan_compositor.hpp),
// kept only because perfbench names this class. New code uses core::bs();
// the shim goes with perfbench's next change.
#pragma once

#include "core/plan_compositor.hpp"

namespace slspvr::core {

class BinarySwapCompositor : public PlanCompositor {
 public:
  BinarySwapCompositor() : PlanCompositor(bs()) {}
};

}  // namespace slspvr::core
