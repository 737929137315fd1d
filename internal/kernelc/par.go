package kernelc

// The parallel loop tier. At compile time, buildParPlan asks loopdep
// whether a staged loop's iterations are provably independent and, if
// so, lowers the probe machinery: the pure address chains feeding every
// probed access, register references for the accessed pointers, and the
// exact-reduction fold for carried accumulators. At run time the driver
// evaluates each access's byte offset at three iterations (first,
// second, last), checks linearity — which defeats integer wraparound —
// groups accesses by the concrete *vm.Buffer they hit (which defeats
// parameter aliasing the static analysis cannot see), and proves every
// written buffer's per-iteration windows disjoint. Only then does the
// iteration space shard across worker lanes; any failed check falls
// back to the serial driver, whose behaviour is untouched.
//
// Determinism contract: a successful sharded execution produces the
// same result value, the same memory image, and the same dynamic
// op-counter map as the serial driver, byte for byte. Worker lanes run
// on private machines (fresh counter, fresh RNG, no cache simulator,
// Workers=0 so nested loops stay serial) and their counters are merged
// after the join; reduction partials are folded in ascending chunk
// order with the same scalar/lane arithmetic the body uses. On error
// the first-erroring iteration's error is returned (every chunk runs to
// its own completion, so the lowest erroring chunk is deterministic),
// but sibling chunks may already have stored past the serial error
// point — error-path memory images are the one documented divergence.

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/loopdep"
	"repro/internal/vm"
)

// parAccess is one probed access: scalar registers resolving the
// pointer (and element index) at probe time, plus the static byte
// width (0 = one buffer element, for aload/astore).
type parAccess struct {
	ptr    int
	idx    int
	hasIdx bool
	width  int
	write  bool
}

// reduceOp folds per-chunk accumulator partials exactly.
type reduceOp struct {
	// vecFold folds a lanewise vector reduction's partial into the
	// accumulator.
	vecFold func(acc, p *vm.Vec)
	// fold is a scalar reduction's own evaluator, compiled to compute
	// acc = acc ⊕ tmp in the accumulator register.
	fold op
	tmp  int
	// seedInit seeds every chunk with the loop's init value (idempotent
	// ops); otherwise chunks start from the identity id (zero vectors
	// for vector reductions).
	seedInit bool
	id       sreg
}

// parPlan is the compiled parallel schedule of one loop.
type parPlan struct {
	// probeOps re-evaluate the pure body nodes feeding the probed
	// addresses at an arbitrary induction-variable value, in schedule
	// order. They never touch memory and never count ops.
	probeOps  []op
	accesses  []parAccess
	freeRoots []int
	reduce    *reduceOp
}

// buildParPlan lowers loopdep's verdict for one loop into runnable
// probe machinery. A nil plan (with nil error) means the loop stays
// serial; errors are compiler bugs and abort compilation.
func (c *compiler) buildParPlan(n *ir.Node, body *ir.Block, lc *loopCode) (*parPlan, error) {
	rep := loopdep.Analyze(c.f, n)
	if !rep.OK {
		return nil, nil
	}
	kept := c.sched.Keep[body]
	topDef := make(map[int]*ir.Node, len(kept))
	for _, kn := range kept {
		topDef[kn.Sym.ID] = kn
	}
	// mark collects the transitive top-level pure dependencies of the
	// probed address expressions. Anything surprising — an effectful
	// dependency, a CSE'd symbol without a slot — vetoes the plan.
	need := map[int]bool{}
	var mark func(e ir.Exp) bool
	mark = func(e ir.Exp) bool {
		s, ok := e.(ir.Sym)
		if !ok {
			_, isConst := e.(ir.Const)
			return isConst
		}
		kn, isTop := topDef[s.ID]
		if !isTop {
			// Parameter, outer-block value, or the induction variable:
			// live in a register at probe time.
			_, hasSlot := c.slots[s.ID]
			return hasSlot
		}
		if need[s.ID] {
			return true
		}
		if !kn.Def.Effect.IsPure() || len(kn.Def.Blocks) != 0 {
			return false
		}
		need[s.ID] = true
		for _, a := range kn.Def.Args {
			if !mark(a) {
				return false
			}
		}
		return true
	}

	pp := &parPlan{}
	for _, a := range rep.Probes {
		if !mark(a.Ptr) {
			return nil, nil
		}
		pr, err := c.ref(a.Ptr)
		if err != nil {
			return nil, nil
		}
		pa := parAccess{ptr: pr.idx, width: a.Bytes, write: a.Write}
		if a.Idx != nil {
			if !mark(a.Idx) {
				return nil, nil
			}
			ix, err := c.ref(a.Idx)
			if err != nil {
				return nil, nil
			}
			pa.idx, pa.hasIdx = ix.idx, true
		}
		pp.accesses = append(pp.accesses, pa)
	}
	for _, root := range rep.FreeRoots {
		if _, isTop := topDef[root.ID]; isTop {
			// A body-defined root (e.g. a select between pointers) has
			// no meaningful entry-time register value.
			return nil, nil
		}
		rr, err := c.ref(root)
		if err != nil {
			return nil, nil
		}
		pp.freeRoots = append(pp.freeRoots, rr.idx)
	}
	for _, kn := range kept {
		if !need[kn.Sym.ID] {
			continue
		}
		vn, err := c.compileSimple(kn, nil)
		if err != nil {
			return nil, err
		}
		pp.probeOps = append(pp.probeOps, c.finish(vn))
	}
	if rep.Reduce != nil {
		red, ok := c.makeReduce(rep.Reduce, lc.acc.idx)
		if !ok {
			return nil, nil
		}
		pp.reduce = red
	}
	return pp, nil
}

// makeReduce builds the exact fold for a recognized reduction over the
// accumulator register acc. Scalar folds reuse the scalar evaluator, so
// the fold's arithmetic is the body's arithmetic.
func (c *compiler) makeReduce(r *loopdep.Reduction, acc int) (*reduceOp, bool) {
	if r.Vec {
		add := vecLaneAdd(r.ElemBits)
		if add == nil {
			return nil, false
		}
		return &reduceOp{vecFold: add}, true
	}
	tmp := c.newScalar()
	fold, err := binaryOp(r.Op, r.Typ, acc, acc, tmp)
	if err != nil {
		return nil, false
	}
	red := &reduceOp{fold: fold, tmp: tmp, seedInit: r.SeedsWithInit()}
	if r.Op == ir.OpAnd {
		red.id = sreg{i: widthOf(r.Typ.Kind).wrap(-1)}
	}
	// add, or, xor: identity zero
	return red, true
}

// vecLaneAdd returns the in-place lanewise add acc += p at the given
// element width, over the full 64-byte container (unused upper lanes
// are zero in both operands, so the extra lanes stay zero), or nil for
// an unsupported width.
func vecLaneAdd(bits int) func(acc, p *vm.Vec) {
	switch bits {
	case 8:
		return func(acc, p *vm.Vec) {
			for i := 0; i < 64; i++ {
				acc.SetI8(i, acc.I8(i)+p.I8(i))
			}
		}
	case 16:
		return func(acc, p *vm.Vec) {
			for i := 0; i < 32; i++ {
				acc.SetI16(i, acc.I16(i)+p.I16(i))
			}
		}
	case 32:
		return func(acc, p *vm.Vec) {
			for i := 0; i < 16; i++ {
				acc.SetI32(i, acc.I32(i)+p.I32(i))
			}
		}
	case 64:
		return func(acc, p *vm.Vec) {
			for i := 0; i < 8; i++ {
				acc.SetI64(i, acc.I64(i)+p.I64(i))
			}
		}
	}
	return nil
}

// probeRec is one access's concrete byte geometry, recovered by the
// runtime probe: offset at the first iteration, per-iteration delta,
// offset at the last iteration, and width.
type probeRec struct {
	buf       *vm.Buffer
	o0, d, oL int64
	w         int64
}

// runParallel attempts a sharded execution. It returns done=false when
// a runtime check rejects the loop (the caller falls back to the serial
// driver with registers restored to entry state). Preconditions:
// start < end, hoisted ops have run, derived save/step state is
// initialised.
func (lc *loopCode) runParallel(fr *frame, start, stride, iters int64) (bool, error) {
	pp := lc.par
	recs := make([]probeRec, len(pp.accesses))
	probe := func(iv int64, slot int) bool {
		fr.s[lc.iv].i = iv
		for _, o := range pp.probeOps {
			if o(fr) != nil {
				return false
			}
		}
		for i := range pp.accesses {
			a := &pp.accesses[i]
			pv := &fr.s[a.ptr]
			if pv.mem == nil {
				return false
			}
			esz := int64(pv.mem.Prim.Bits() / 8)
			off := pv.i
			if a.hasIdx {
				off += fr.s[a.idx].i
			}
			off *= esz
			r := &recs[i]
			switch slot {
			case 0:
				r.buf, r.o0 = pv.mem, off
				r.w = int64(a.width)
				if r.w == 0 {
					r.w = esz
				}
			case 1:
				if pv.mem != r.buf {
					return false
				}
				r.d = off - r.o0
			default:
				if pv.mem != r.buf {
					return false
				}
				r.oL = off
			}
		}
		return true
	}
	ok := probe(start, 0) && probe(start+stride, 1) && probe(start+(iters-1)*stride, 2)
	// Restore entry state for whichever driver runs next.
	fr.s[lc.iv].i = start
	for j, d := range lc.derSlots {
		fr.s[d].i = fr.s[lc.saveOff+j].i
	}
	if !ok || !lc.admit(recs, iters, fr) {
		return false, nil
	}

	workers := fr.m.Workers
	if int64(workers) > iters {
		workers = int(iters)
	}
	chunkSize, chunks, owners := shardPlanWith(iters, workers, fr.m.ChunkHint)
	ranges := make([]chunkRange, workers)
	for w := 0; w < workers; w++ {
		ranges[w].init(owners[w], owners[w+1])
	}
	var partials []accState
	var seed accState
	if lc.carried {
		partials = make([]accState, chunks)
		seed.s = pp.reduce.id
		if pp.reduce.seedInit {
			lc.saveAcc(fr, &seed)
		}
	}
	errs := make([]error, chunks)
	wms := make([]*vm.Machine, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lane := w
		wg.Add(1)
		dispatch(func() {
			defer wg.Done()
			lc.lane(fr, lane, ranges, chunkSize, iters, start, stride, &seed, partials, errs, wms)
		})
	}
	wg.Wait()
	// Lane counters merge after the join; map addition commutes, so the
	// merged totals equal the serial stream regardless of who ran what.
	for _, wm := range wms {
		if wm != nil {
			fr.m.Counts.Merge(wm.Counts)
		}
	}
	parRuns.Add(1)
	parChunks.Add(int64(chunks))
	for k := range errs {
		if errs[k] != nil {
			// Chunks run to individual completion, so the lowest
			// erroring chunk holds the error of the serially-first
			// failing iteration.
			return true, errs[k]
		}
	}
	lc.addCounts(fr.m, iters)
	if lc.carried {
		// Fold in ascending chunk order with the body's own arithmetic.
		red := pp.reduce
		for k := range partials {
			if lc.acc.vec() {
				red.vecFold(&fr.v[lc.acc.idx].V, &partials[k].v)
				continue
			}
			fr.s[red.tmp] = partials[k].s
			// Scalar folds never fail: the whitelisted reductions are
			// non-faulting integer ops.
			_ = red.fold(fr)
		}
	}
	return true, nil
}

// accState is one chunk's accumulator, in whichever register class the
// loop carries.
type accState struct {
	s sreg
	v vm.Vec
}

// loadAcc writes a into the frame's accumulator register.
func (lc *loopCode) loadAcc(fr *frame, a *accState) {
	if lc.acc.vec() {
		fr.v[lc.acc.idx].V = a.v
	} else {
		fr.s[lc.acc.idx] = a.s
	}
}

// saveAcc reads the frame's accumulator register into a.
func (lc *loopCode) saveAcc(fr *frame, a *accState) {
	if lc.acc.vec() {
		a.v = fr.v[lc.acc.idx].V
	} else {
		a.s = fr.s[lc.acc.idx]
	}
}

// admit applies the post-probe checks: three-point linearity and full
// in-bounds extrapolation for every access (rejecting wraparound and
// preserving serial error behaviour), equal non-zero deltas and a
// combined footprint no wider than the delta for every written buffer
// (disjoint per-iteration windows), and no free-read root aliasing a
// written buffer.
func (lc *loopCode) admit(recs []probeRec, iters int64, fr *frame) bool {
	pp := lc.par
	for i := range recs {
		r := &recs[i]
		if r.o0+(iters-1)*r.d != r.oL {
			return false
		}
		lo, hi := r.o0, r.o0+r.w
		if r.oL < lo {
			lo = r.oL
		}
		if r.oL+r.w > hi {
			hi = r.oL + r.w
		}
		if lo < 0 || hi > int64(len(r.buf.Data)) {
			return false
		}
	}
	type group struct {
		buf     *vm.Buffer
		d       int64
		lo, hi  int64
		started bool
	}
	var groups []group
	for i := range recs {
		if pp.accesses[i].write {
			found := false
			for j := range groups {
				if groups[j].buf == recs[i].buf {
					found = true
					break
				}
			}
			if !found {
				groups = append(groups, group{buf: recs[i].buf})
			}
		}
	}
	for i := range recs {
		r := &recs[i]
		for j := range groups {
			g := &groups[j]
			if g.buf != r.buf {
				continue
			}
			if !g.started {
				g.d, g.lo, g.hi, g.started = r.d, r.o0, r.o0+r.w, true
				break
			}
			if r.d != g.d {
				return false
			}
			if r.o0 < g.lo {
				g.lo = r.o0
			}
			if r.o0+r.w > g.hi {
				g.hi = r.o0 + r.w
			}
			break
		}
	}
	for j := range groups {
		g := &groups[j]
		d := g.d
		if d < 0 {
			d = -d
		}
		if d == 0 || g.hi-g.lo > d {
			return false
		}
	}
	for _, root := range pp.freeRoots {
		mem := fr.s[root].mem
		if mem == nil {
			return false
		}
		for j := range groups {
			if groups[j].buf == mem {
				return false
			}
		}
	}
	return true
}

// lane executes chunks on one worker: a pooled frame seeded from the
// parent's entry-state registers, a private machine, and the shared
// chunk queues. Completed iterations feed the frame's arena tally even
// on error, so ArenaStats never undercounts.
func (lc *loopCode) lane(parent *frame, w int, ranges []chunkRange, chunkSize, iters, start, stride int64,
	seed *accState, partials []accState, errs []error, wms []*vm.Machine) {
	p := lc.prog
	wm := parent.m.Worker()
	wms[w] = wm
	poolGets.Add(1)
	wfr := p.pool.Get().(*frame)
	wfr.m = wm
	// The scalar file carries the derived save/step area along with
	// the registers.
	copy(wfr.s, parent.s)
	copy(wfr.v, parent.v)
	step := parent.s[lc.saveOff+lc.nDer : lc.saveOff+2*lc.nDer]
	for {
		k, stolen, ok := nextChunk(ranges, w)
		if !ok {
			break
		}
		if stolen {
			parSteals.Add(1)
		}
		k0 := int64(k) * chunkSize
		cnt := chunkSize
		if k0+cnt > iters {
			cnt = iters - k0
		}
		i0 := start + k0*stride
		wfr.s[lc.iv].i = i0
		for j, d := range lc.derSlots {
			// Exact jump to iteration k0: serial advances the derived
			// value by int32(save + t*step) steps, and modular i32
			// arithmetic lets the chunk start compute it directly.
			wfr.s[d].i = int64(int32(parent.s[lc.saveOff+j].i + k0*step[j].i))
		}
		if lc.carried {
			lc.loadAcc(wfr, seed)
		}
		done, err := lc.span(wfr, i0, stride, cnt)
		wfr.arena += done
		if err != nil {
			errs[k] = err
			continue
		}
		if lc.carried {
			lc.saveAcc(wfr, &partials[k])
		}
	}
	releaseFrame(p, wfr)
}
