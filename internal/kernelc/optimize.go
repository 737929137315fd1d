package kernelc

// The loop-nest optimizer: a pre-lowering pass over each ForExp body
// that classifies every kept node by its degree in the loop's induction
// variable.
//
//   - degree 0 (loop-invariant): the node reads nothing defined inside
//     the body, so it is hoisted — executed once at loop entry instead
//     of once per iteration. Only pure, block-free scalar ops from a
//     non-faulting whitelist qualify (the scalar evaluators never error:
//     shifts mask their count, integer div/rem by zero wrap to 0), so
//     running them under the `start < end` guard is observationally
//     identical to running them every iteration.
//   - degree 1 (affine in the iv, i32 only): the classic `base + i*stride`
//     address chain. It is strength-reduced: evaluated at `start` and
//     `start + stride` once at entry, the difference is the exact
//     per-iteration step — i32 arithmetic (add/sub/mul/shl/neg composed
//     with truncation) is linear over Z/2^32, and int32(x+y) ==
//     int32(int32(x)+y), so one masked add per iteration reproduces the
//     full chain bit-for-bit.
//   - anything else stays in the body.
//
// Crucially the pass never changes the dynamic op-count stream: claimed
// nodes keep their countDelta entries in the body's static vector
// (scaled by the trip count exactly as before), so the analytical cost
// model — and every figure derived from it — is unaffected.

import "repro/internal/ir"

// degVariant marks a node that depends on per-iteration state in a way
// the optimizer cannot reduce.
const degVariant = 99

// loopPlan is one loop's optimisation schedule, in body schedule order.
type loopPlan struct {
	hoisted []*ir.Node // loop-invariant: run once at entry
	derived []*ir.Node // affine i32 in the iv: run incrementally
}

// planLoop classifies the loop body's kept nodes. The carried
// accumulator (when present) is a body parameter and therefore variant,
// so accumulator chains are never touched.
func (c *compiler) planLoop(body *ir.Block) loopPlan {
	kept := c.sched.Keep[body]
	if len(kept) == 0 {
		return loopPlan{}
	}
	iv := body.Params[0]
	bodyDefined := make(map[int]bool, len(kept)+len(body.Params))
	for _, p := range body.Params {
		bodyDefined[p.ID] = true
	}
	for _, n := range kept {
		bodyDefined[n.Sym.ID] = true
	}
	deg := make(map[int]int, len(kept))
	var plan loopPlan
	for _, n := range kept {
		dg := nodeDegree(n.Def, iv, bodyDefined, deg)
		deg[n.Sym.ID] = dg
		switch dg {
		case 0:
			plan.hoisted = append(plan.hoisted, n)
		case 1:
			plan.derived = append(plan.derived, n)
		}
	}
	c.hoisted += len(plan.hoisted)
	c.strength += len(plan.derived)
	return plan
}

// nodeDegree computes a def's degree in the induction variable: 0 for
// invariant, 1 for affine, degVariant otherwise. Symbols defined
// outside the body — function parameters, outer-loop values, outer
// induction variables — are invariant from this loop's point of view.
func nodeDegree(d *ir.Def, iv ir.Sym, bodyDefined map[int]bool, deg map[int]int) int {
	if len(d.Blocks) != 0 || !d.Effect.IsPure() {
		return degVariant
	}
	argDeg := func(e ir.Exp) int {
		switch x := e.(type) {
		case ir.Const:
			return 0
		case ir.Sym:
			if x.ID == iv.ID {
				return 1
			}
			if !bodyDefined[x.ID] {
				return 0
			}
			if dg, ok := deg[x.ID]; ok {
				return dg
			}
			return degVariant
		default:
			return degVariant
		}
	}
	switch d.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpNeg:
		// Linear-capable ops: degree arithmetic below.
	case ir.OpDiv, ir.OpRem, ir.OpShr, ir.OpNot, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpMin, ir.OpMax, ir.OpConv, ir.OpSel,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		// Whitelisted but not linear: hoistable only when fully
		// invariant.
		for _, a := range d.Args {
			if argDeg(a) != 0 {
				return degVariant
			}
		}
		return 0
	default:
		// Intrinsics, memory ops, control flow: never claimed.
		return degVariant
	}
	out := degVariant
	switch d.Op {
	case ir.OpAdd, ir.OpSub:
		if len(d.Args) == 2 {
			a, b := argDeg(d.Args[0]), argDeg(d.Args[1])
			out = a
			if b > out {
				out = b
			}
		}
	case ir.OpMul:
		if len(d.Args) == 2 {
			out = argDeg(d.Args[0]) + argDeg(d.Args[1])
		}
	case ir.OpShl:
		// a << k is a·2^k: linear in a when the shift count is
		// invariant.
		if len(d.Args) == 2 && argDeg(d.Args[1]) == 0 {
			out = argDeg(d.Args[0])
		}
	case ir.OpNeg:
		if len(d.Args) == 1 {
			out = argDeg(d.Args[0])
		}
	}
	if out > 1 {
		return degVariant
	}
	if out == 1 && d.Typ.Kind != ir.KindI32 {
		// The incremental update wraps at 32 bits; other widths stay in
		// the body.
		return degVariant
	}
	return out
}

// lowerPlan compiles the claimed nodes into standalone ops for the loop
// driver and surfaces their static counts so the caller can merge them
// back into the body's count vector (claimed nodes still count once per
// iteration). derSlots are the derived nodes' register slots, in
// schedule order, for the incremental update.
func (c *compiler) lowerPlan(plan loopPlan) (hoistedOps, derivedOps []op, counts []countDelta, derSlots []int, err error) {
	for _, n := range plan.hoisted {
		vn, cerr := c.compileSimple(n, nil)
		if cerr != nil {
			return nil, nil, nil, nil, cerr
		}
		hoistedOps = append(hoistedOps, c.finish(vn))
		counts = append(counts, vn.counts...)
	}
	for _, n := range plan.derived {
		vn, cerr := c.compileSimple(n, nil)
		if cerr != nil {
			return nil, nil, nil, nil, cerr
		}
		derivedOps = append(derivedOps, c.finish(vn))
		counts = append(counts, vn.counts...)
		derSlots = append(derSlots, c.slot(n.Sym))
	}
	return hoistedOps, derivedOps, counts, derSlots, nil
}
