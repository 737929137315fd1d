package machine

import (
	"repro/internal/ir"
	"repro/internal/loopdep"
)

// ParallelEligible reports whether the staged function contains at
// least one loop whose iterations the dependence analysis proves
// independent — the admission test for parallel-lane strategies (a
// kernel with only serial loops cannot benefit from lanes, so the
// planner never probes them).
func ParallelEligible(f *ir.Func) bool {
	if f == nil {
		return false
	}
	return parWalk(f, f.G.Root())
}

func parWalk(f *ir.Func, b *ir.Block) bool {
	for _, n := range b.Nodes {
		if n.Def.Op == ir.OpLoop {
			if rep := loopdep.Analyze(f, n); rep.OK {
				return true
			}
		}
		for _, blk := range n.Def.Blocks {
			if parWalk(f, blk) {
				return true
			}
		}
	}
	return false
}
