// Package kernelc compiles a scheduled staged graph into an executable
// program over the software SIMD machine (internal/vm). It is the
// execution half of the substitution for the paper's "generate C,
// compile with gcc/icc/clang, link via JNI" pipeline: the C unparser
// (internal/cgen) still produces the C source a native toolchain would
// compile, while this package makes the very same graph runnable and
// countable inside the reproduction.
//
// Compilation is a single pass over the schedule. Node types are static
// in the IR, so every value gets its register class at compile time:
// scalars (integers, floats, bools, pointer plus displacement) live
// unboxed in a compact scalar file, SIMD registers in a vector file of
// vm.Values. Every live node becomes exactly one destination-passing
// closure that reads its operands in place and writes only its own
// result fields. Values are boxed into vm.Value only at the boundaries:
// Program.Run's arguments and result, and intrinsic operands, which are
// gathered field by field into the frame's operand arena because every
// vm intrinsic has one destination-passing body, vm.Intrinsic.Fn, that
// reads its operands as a []vm.Value and writes its result straight into
// a vector register or arena slot. Dynamic instruction counts (per
// intrinsic name, plus scalar.* pseudo-ops for the host-language
// constructs) accumulate in the machine's Counter, which the analytical
// cost model converts to cycles.
//
// Several compile-time optimisations keep the interpreter off the
// profile without changing any observable count or result:
//
//   - Static count batching: the per-op increments inside a straight-line
//     block are a fixed multiset, so loops add (key, n·iters) once per
//     loop execution instead of per iteration.
//   - Superinstruction fusion: a vector intrinsic whose result is used
//     exactly once, by the immediately following intrinsic, evaluates
//     straight into that consumer's operand slot instead of through a
//     register, and runs inside the consumer's dispatch. Fusion composes
//     transitively into load→op→…→store chains; FusedChains counts the
//     chains of length ≥ 3.
//   - Frame pooling and constant preloading: register frames are
//     recycled through a sync.Pool, so steady-state Run does not
//     allocate. Constants, and the kinds of every operand-arena slot, are
//     written once when a frame is built, never per execution. Programs
//     are safe to Run concurrently; each Run owns a private frame.
//   - The loop-nest optimizer (see optimize.go): loop-invariant scalar
//     defs are hoisted out of loop bodies and run once at loop entry,
//     affine i32 functions of the induction variable (base + i*stride
//     address math) are strength-reduced to one incremental add per
//     iteration, and loops proven independent carry a plan for the
//     sharded driver (par.go). The optimizer only decides which nodes
//     run per iteration. Dynamic counts are preserved exactly:
//     hoisted and strength-reduced nodes keep their entries in the
//     body's static count vector, so the cost model — and therefore
//     every figure — sees the identical op stream.
package kernelc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Pseudo-op names for scalar (non-intrinsic) work, consumed by the cost
// model.
const (
	// OpScalarLoadStrided marks scalar loads whose index strides by the
	// innermost loop variable times a large factor (e.g. b[k*n+j] in a
	// k-innermost matrix loop): each access touches a fresh cache line,
	// which the memory model prices as a full 64-byte transfer.
	OpScalarLoadStrided = "scalar.load.strided"

	OpScalarALU   = "scalar.alu"
	OpScalarMul   = "scalar.mul"
	OpScalarDiv   = "scalar.div"
	OpScalarFP    = "scalar.fp"
	OpScalarFMul  = "scalar.fmul"
	OpScalarFDiv  = "scalar.fdiv"
	OpScalarLoad  = "scalar.load"
	OpScalarStore = "scalar.store"
	OpScalarConv  = "scalar.conv"
	OpLoopIter    = "scalar.loop"
	OpBranch      = "scalar.branch"
)

// Program is a compiled kernel.
type Program struct {
	F *ir.Func
	// sInit and vInit are the register-file images every frame starts
	// from: constants preloaded in the scalar file, operand-arena kinds
	// and constant operands preloaded in the vector file.
	sInit      []sreg
	vInit      []vm.Value
	params     []reg // register per parameter
	ops        []op
	rootCounts []countDelta // static op counts of the root block
	result     *reg
	fused      int // superinstructions formed
	hoisted    int // loop-invariant nodes moved to loop entry
	strength   int // induction-variable nodes reduced to incremental adds
	chains     int // fusion chains of length ≥ 3 (load→op→…→store)
	pool       sync.Pool
}

// FusedOps returns how many producer nodes were fused into their
// consumers (for tests and diagnostics).
func (p *Program) FusedOps() int { return p.fused }

// Hoisted returns how many loop-invariant nodes the optimizer moved to
// their loop's entry.
func (p *Program) Hoisted() int { return p.hoisted }

// Strength returns how many affine induction-variable nodes were
// strength-reduced to one incremental add per iteration.
func (p *Program) Strength() int { return p.strength }

// FusedChains returns how many fusion chains collapse three or more
// nodes (a load→op→…→store superinstruction rather than a pair).
func (p *Program) FusedChains() int { return p.chains }

// Frame-pool traffic across all programs: gets counts every Run's frame
// checkout, news counts the checkouts the pool had to satisfy with a
// fresh allocation. The gap is the pool hit rate the observability
// layer reports (obs metric kernelc.pool.*); steady state news stays
// flat while gets grows.
var (
	poolGets atomic.Int64
	poolNews atomic.Int64
)

// PoolStats returns cumulative frame-pool checkouts and fresh
// allocations since process start (or the last ResetPoolStats).
func PoolStats() (gets, news int64) {
	return poolGets.Load(), poolNews.Load()
}

// ResetPoolStats zeroes the pool counters (tests).
func ResetPoolStats() {
	poolGets.Store(0)
	poolNews.Store(0)
}

// Operand-arena traffic across all programs: resets counts how many
// times a loop iteration recycled its frame's operand arena in place
// (one per iteration of every loop a program runs), slots counts the
// arena capacity — vm.Value-sized intrinsic operand slots — compiled
// into programs. Both feed the obs gauges vec.arena.resets /
// vec.arena.slots.
var (
	arenaResets atomic.Int64
	arenaSlots  atomic.Int64
)

// ArenaStats returns cumulative arena reuse events and compiled arena
// slots since process start (or the last ResetArenaStats).
func ArenaStats() (resets, slots int64) {
	return arenaResets.Load(), arenaSlots.Load()
}

// ResetArenaStats zeroes the arena counters (tests).
func ResetArenaStats() {
	arenaResets.Store(0)
	arenaSlots.Store(0)
}

// sreg is one unboxed scalar register. Which field holds the payload is
// fixed by the value's static type: integers in i (signed kinds
// sign-extended, unsigned kinds zero-extended from their width), bools
// in i as 0 or 1, floats in f (f32 values rounded to float32), and
// pointers as mem plus an element displacement in i.
type sreg struct {
	i   int64
	f   float64
	mem *vm.Buffer
}

// reg names a register: an index into the vector file for KindVec
// values, into the scalar file for everything else.
type reg struct {
	idx  int
	kind ir.Kind
}

func (r reg) vec() bool { return r.kind == ir.KindVec }

type frame struct {
	s []sreg     // scalar file
	v []vm.Value // vector file: vector registers and the operand arena
	m *vm.Machine
	// arena accumulates loop-iteration arena reuses during one Run and
	// is flushed to arenaResets when the frame is returned to the pool.
	arena int64
	// sink absorbs the unused destination of void intrinsics (stores).
	sink vm.Value
}

// move copies one register to another of the same class. Vector
// registers are only ever read through their V field, so that is all a
// move carries.
func (fr *frame) move(dst, src reg) {
	if dst.vec() {
		fr.v[dst.idx].V = fr.v[src.idx].V
		return
	}
	fr.s[dst.idx] = fr.s[src.idx]
}

// unbox stores a boxed value into its register (Run's arguments).
func (fr *frame) unbox(r reg, v *vm.Value) {
	if r.vec() {
		fr.v[r.idx] = *v
		return
	}
	fr.s[r.idx] = toScalar(r.kind, v)
}

// box materialises a register as a vm.Value of its static kind (Run's
// result).
func (fr *frame) box(r reg) vm.Value {
	if r.vec() {
		return vm.VecValue(fr.v[r.idx].V)
	}
	return fromScalar(r.kind, fr.s[r.idx])
}

// toScalar unboxes a value into the register representation of kind k.
func toScalar(k ir.Kind, v *vm.Value) sreg {
	switch {
	case k == ir.KindPtr:
		return sreg{i: int64(v.Off), mem: v.Mem}
	case k == ir.KindBool:
		return sreg{i: b2i(v.B)}
	case isFloatKind(k):
		return sreg{f: v.AsFloat()}
	default:
		return sreg{i: v.AsInt()}
	}
}

// fromScalar boxes a scalar register of kind k.
func fromScalar(k ir.Kind, r sreg) vm.Value {
	switch {
	case k == ir.KindPtr:
		return vm.Value{Kind: k, Mem: r.mem, Off: int(r.i)}
	case k == ir.KindBool:
		return vm.Value{Kind: k, B: r.i != 0}
	case isFloatKind(k):
		return vm.Value{Kind: k, F: r.f}
	case isUnsignedKind(k):
		return vm.Value{Kind: k, U: uint64(r.i)}
	default:
		return vm.Value{Kind: k, I: r.i}
	}
}

type op func(fr *frame) error

// countDelta is one entry of a block's static count vector: executing
// the block's straight-line ops once adds n to key.
type countDelta struct {
	key string
	n   int64
}

// valNode is a compiled simple (non-control) node, held back briefly by
// compileBlock so the next node may fuse it.
type valNode struct {
	// op evaluates the node into its own register (void nodes: into
	// the frame sink). It is nil for vector-valued intrinsics until
	// their destination is settled.
	op op
	// into, for vector-valued intrinsics, builds the evaluator writing
	// the result into an arbitrary vector-file slot: the node's own
	// register, or the operand slot of a consumer it fuses into.
	into   func(slot int) op
	counts []countDelta
	sym    ir.Sym
	chain  int // fused producers folded into this node
}

// inline hands a fused vector producer to its consumer, which evaluates
// it straight into the operand slot at position pos.
type inline struct {
	pos   int
	into  func(slot int) op
	chain int // producers already folded into the producer
}

type compiler struct {
	f     *ir.Func
	sched *ir.Scheduled
	slots map[int]int // sym id → register index in the sym's file
	// sInit and vInit grow with every register allocated: they become
	// the program's register-file images.
	sInit  []sreg
	vInit  []vm.Value
	consts map[constKey]int // constant pool (scalar file)
	// loopIVs is the stack of enclosing loop variables; the innermost
	// drives stride classification of scalar loads.
	loopIVs []ir.Sym
	// uses counts, per symbol, every reference from kept nodes' args,
	// block results and effect annotations; fusion requires exactly one.
	uses     map[int]int
	arenaLen int
	fused    int
	hoisted  int
	strength int
	chains   int
	// skip marks nodes (by sym id) the loop optimizer has claimed:
	// compileBlock leaves them out of the body so the loop driver can
	// run them at entry (hoisted) or incrementally (strength-reduced).
	skip map[int]bool
	// prog is the program under construction; loop drivers keep a
	// backreference so parallel lanes can draw frames from its pool.
	prog *Program
}

// constKey identifies a constant by its payload bits, so -0.0 and 0.0
// (equal as floats) keep separate slots.
type constKey struct {
	i    int64
	bits uint64
}

// strided reports whether an index expression strides by the innermost
// loop variable with a multiplicative factor (iv*X appears as a subterm).
func (c *compiler) strided(idx ir.Exp) bool {
	if len(c.loopIVs) == 0 {
		return false
	}
	iv := c.loopIVs[len(c.loopIVs)-1]
	var walk func(e ir.Exp, depth int) bool
	walk = func(e ir.Exp, depth int) bool {
		s, ok := e.(ir.Sym)
		if !ok || depth > 6 {
			return false
		}
		d, ok := c.f.G.Def(s)
		if !ok {
			return false
		}
		switch d.Op {
		case ir.OpMul, ir.OpShl:
			for _, a := range d.ArgSyms() {
				if a == iv {
					return true
				}
			}
			return false
		case ir.OpAdd, ir.OpSub:
			for _, a := range d.Args {
				if walk(a, depth+1) {
					return true
				}
			}
		}
		return false
	}
	return walk(idx, 0)
}

// Compile lowers a staged function to an executable program, with
// superinstruction fusion and the loop-nest optimizer always on.
// Staging errors surface here: intrinsics without executable
// semantics, unbound symbols, unsupported ops.
func Compile(f *ir.Func) (*Program, error) {
	c := &compiler{f: f, sched: ir.Schedule(f), slots: map[int]int{},
		consts: map[constKey]int{}, uses: map[int]int{}, skip: map[int]bool{}}
	c.countUses(f.G.Root())
	p := &Program{F: f}
	c.prog = p
	for _, prm := range f.Params {
		p.params = append(p.params, reg{idx: c.slot(prm), kind: prm.Typ.Kind})
	}
	ops, counts, err := c.compileBlock(f.G.Root())
	if err != nil {
		return nil, fmt.Errorf("kernelc: %s: %w", f.Name, err)
	}
	p.ops = ops
	p.rootCounts = counts
	if r := f.G.Root().Result; r != nil {
		res, err := c.ref(r)
		if err != nil {
			return nil, fmt.Errorf("kernelc: %s: result: %w", f.Name, err)
		}
		p.result = &res
	}
	p.sInit = c.sInit
	p.vInit = c.vInit
	p.fused = c.fused
	p.hoisted = c.hoisted
	p.strength = c.strength
	p.chains = c.chains
	arenaSlots.Add(int64(c.arenaLen))
	p.pool.New = func() any {
		poolNews.Add(1)
		return &frame{
			s: append([]sreg(nil), p.sInit...),
			v: append([]vm.Value(nil), p.vInit...),
		}
	}
	return p, nil
}

// TierOpt and CompileTier keep the former tiered entry point compiling
// for callers outside this module's packages (the perfbench driver).
// There is one lowering tier: CompileTier(f, TierOpt) is Compile(f).
const TierOpt = 0

// CompileTier is Compile; the tier argument is ignored.
func CompileTier(f *ir.Func, _ int) (*Program, error) { return Compile(f) }

// countUses tallies every symbol reference reachable from the schedule.
func (c *compiler) countUses(b *ir.Block) {
	if s, ok := b.Result.(ir.Sym); ok {
		c.uses[s.ID]++
	}
	for _, n := range c.sched.Keep[b] {
		for _, a := range n.Def.Args {
			if s, ok := a.(ir.Sym); ok {
				c.uses[s.ID]++
			}
		}
		for _, s := range n.Def.Effect.Reads {
			c.uses[s.ID]++
		}
		for _, s := range n.Def.Effect.Writes {
			c.uses[s.ID]++
		}
		for _, blk := range n.Def.Blocks {
			c.countUses(blk)
		}
	}
}

// newScalar allocates a scalar register.
func (c *compiler) newScalar() int {
	c.sInit = append(c.sInit, sreg{})
	return len(c.sInit) - 1
}

// newVec allocates a vector-file slot whose image holds v.
func (c *compiler) newVec(v vm.Value) int {
	c.vInit = append(c.vInit, v)
	return len(c.vInit) - 1
}

// slot returns the symbol's register, allocating it in the file its
// type selects on first use.
func (c *compiler) slot(s ir.Sym) int {
	if idx, ok := c.slots[s.ID]; ok {
		return idx
	}
	var idx int
	if s.Typ.Kind == ir.KindVec {
		idx = c.newVec(vm.Value{Kind: ir.KindVec})
	} else {
		idx = c.newScalar()
	}
	c.slots[s.ID] = idx
	return idx
}

// ref resolves an operand to its register: a symbol's slot, or a
// constant-pool entry preloaded into every frame.
func (c *compiler) ref(e ir.Exp) (reg, error) {
	switch x := e.(type) {
	case ir.Const:
		if x.Typ.Kind == ir.KindVec || x.Typ.Kind == ir.KindPtr {
			return reg{}, fmt.Errorf("unsupported %v constant", x.Typ)
		}
		r := constReg(x)
		key := constKey{i: r.i, bits: math.Float64bits(r.f)}
		idx, ok := c.consts[key]
		if !ok {
			idx = c.newScalar()
			c.sInit[idx] = r
			c.consts[key] = idx
		}
		return reg{idx: idx, kind: x.Typ.Kind}, nil
	case ir.Sym:
		idx, ok := c.slots[x.ID]
		if !ok {
			return reg{}, fmt.Errorf("use of undefined symbol %v", x)
		}
		return reg{idx: idx, kind: x.Typ.Kind}, nil
	default:
		return reg{}, fmt.Errorf("unsupported expression %T", e)
	}
}

// refs resolves a list of scalar operands to scalar-file indexes.
func (c *compiler) refs(args []ir.Exp) ([]int, error) {
	out := make([]int, len(args))
	for i, a := range args {
		r, err := c.ref(a)
		if err != nil {
			return nil, err
		}
		out[i] = r.idx
	}
	return out, nil
}

// constReg is a constant's register payload.
func constReg(cst ir.Const) sreg {
	switch {
	case cst.Typ.Kind == ir.KindBool:
		return sreg{i: b2i(cst.B)}
	case cst.Typ.IsFloat():
		return sreg{f: cst.F}
	case cst.Typ.IsSigned():
		return sreg{i: cst.I}
	default:
		return sreg{i: int64(cst.U)}
	}
}

// fusablePos returns the argument position of d that references s, or -1
// when d cannot absorb an inlined producer. Only intrinsics absorb
// producers, and any single position is safe: their remaining operands
// are pure register reads, so running the producer at consumer entry is
// observationally the same as running it immediately before (which is
// where it sat in the schedule).
func fusablePos(d *ir.Def, s ir.Sym) int {
	if !ir.IsIntrinsicOp(d.Op) {
		return -1
	}
	pos := -1
	for i, a := range d.Args {
		if as, ok := a.(ir.Sym); ok && as.ID == s.ID {
			if pos >= 0 {
				return -1
			}
			pos = i
		}
	}
	return pos
}

// finish binds a node that was not fused away to its own register.
func (c *compiler) finish(v *valNode) op {
	if v.op == nil {
		v.op = v.into(c.slot(v.sym))
	}
	return v.op
}

// compileBlock lowers one block's kept nodes to ops plus the block's
// static count vector. A just-compiled simple node is held pending for
// one step so the next node may fuse it.
func (c *compiler) compileBlock(b *ir.Block) ([]op, []countDelta, error) {
	var ops []op
	var counts []countDelta
	var pending *valNode
	flush := func() {
		if pending != nil {
			if pending.chain >= 2 {
				c.chains++
			}
			ops = append(ops, c.finish(pending))
			counts = append(counts, pending.counts...)
			pending = nil
		}
	}
	for _, n := range c.sched.Keep[b] {
		d := n.Def
		if c.skip[n.Sym.ID] {
			// Claimed by the loop optimizer; the loop driver executes it.
			// pending survives: removing this node makes its neighbours
			// adjacent, which can only create more fusion.
			continue
		}
		switch d.Op {
		case ir.OpComment, ir.OpParam:
			continue
		case ir.OpLoop:
			flush()
			o, err := c.compileLoop(n)
			if err != nil {
				return nil, nil, err
			}
			ops = append(ops, o)
		case ir.OpIf:
			flush()
			o, err := c.compileIf(n)
			if err != nil {
				return nil, nil, err
			}
			ops = append(ops, o)
			counts = append(counts, countDelta{OpBranch, 1})
		default:
			var inl *inline
			var prodCounts []countDelta
			if pending != nil && pending.into != nil && c.uses[pending.sym.ID] == 1 {
				if pos := fusablePos(d, pending.sym); pos >= 0 {
					inl = &inline{pos: pos, into: pending.into, chain: pending.chain}
					prodCounts = pending.counts
					pending = nil
					c.fused++
				}
			}
			flush()
			vn, err := c.compileSimple(n, inl)
			if err != nil {
				return nil, nil, err
			}
			if inl != nil {
				vn.counts = append(append([]countDelta{}, prodCounts...), vn.counts...)
				vn.chain = inl.chain + 1
			}
			pending = vn
		}
	}
	flush()
	return ops, mergeCounts(counts), nil
}

// mergeCounts folds duplicate keys, preserving first-appearance order.
func mergeCounts(cds []countDelta) []countDelta {
	if len(cds) <= 1 {
		return cds
	}
	sums := make(map[string]int64, len(cds))
	var order []string
	for _, cd := range cds {
		if _, ok := sums[cd.key]; !ok {
			order = append(order, cd.key)
		}
		sums[cd.key] += cd.n
	}
	out := make([]countDelta, 0, len(order))
	for _, k := range order {
		out = append(out, countDelta{k, sums[k]})
	}
	return out
}

// compileSimple lowers one non-control node. Only intrinsics accept a
// fused producer.
func (c *compiler) compileSimple(n *ir.Node, inl *inline) (*valNode, error) {
	if ir.IsIntrinsicOp(n.Def.Op) {
		return c.compileIntrinsic(n, inl)
	}
	var o op
	var cost string
	var err error
	switch n.Def.Op {
	case ir.OpALoad:
		o, cost, err = c.compileALoad(n)
	case ir.OpAStore:
		o, cost, err = c.compileAStore(n)
	case ir.OpPtrAdd:
		o, cost, err = c.compilePtrAdd(n)
	case ir.OpConv:
		o, cost, err = c.compileConv(n)
	case ir.OpSel:
		o, cost, err = c.compileSelect(n)
	default:
		o, cost, err = c.compileScalar(n)
	}
	if err != nil {
		return nil, err
	}
	return &valNode{op: o, counts: []countDelta{{cost, 1}}, sym: n.Sym}, nil
}

// operandClass selects which vm.Value field an intrinsic operand
// occupies in the arena.
type operandClass uint8

const (
	opndSigned operandClass = iota
	opndUnsigned
	opndFloat
	opndBool
	opndPtr
	opndVec
)

func classOf(k ir.Kind) operandClass {
	switch {
	case k == ir.KindVec:
		return opndVec
	case k == ir.KindPtr:
		return opndPtr
	case k == ir.KindBool:
		return opndBool
	case isFloatKind(k):
		return opndFloat
	case isUnsignedKind(k):
		return opndUnsigned
	default:
		return opndSigned
	}
}

// gather copies one register operand into its arena slot.
type gather struct {
	cls operandClass
	src int // register (file per cls)
	dst int // arena slot in the vector file
}

// callSite is one compiled intrinsic call: the arena region holding its
// operands (kinds and constant operands preloaded in the frame image),
// the register operands to copy in per call, and an optional fused
// producer evaluated straight into its operand slot.
type callSite struct {
	name   string
	fn     func(m *vm.Machine, args []vm.Value, out *vm.Value) error
	gather []gather
	off    int
	end    int
	pre    op
}

// call gathers the operands and runs the intrinsic into *out, which
// never aliases the operand region. Gathering is pure register reads,
// so running the fused producer after it is observationally identical
// to the schedule's producer-first order.
func (cs *callSite) call(fr *frame, out *vm.Value) error {
	v, s := fr.v, fr.s
	for _, g := range cs.gather {
		d := &v[g.dst]
		switch g.cls {
		case opndVec:
			d.V = v[g.src].V
		case opndFloat:
			d.F = s[g.src].f
		case opndSigned:
			d.I = s[g.src].i
		case opndUnsigned:
			d.U = uint64(s[g.src].i)
		case opndBool:
			d.B = s[g.src].i != 0
		case opndPtr:
			r := &s[g.src]
			d.Mem, d.Off = r.mem, int(r.i)
		}
	}
	if cs.pre != nil {
		if err := cs.pre(fr); err != nil {
			return err
		}
	}
	if err := cs.fn(fr.m, v[cs.off:cs.end], out); err != nil {
		return fmt.Errorf("%s: %w", cs.name, err)
	}
	return nil
}

func (c *compiler) compileIntrinsic(n *ir.Node, inl *inline) (*valNode, error) {
	name := n.Def.Op
	in, ok := vm.Lookup(name)
	if !ok {
		// The paper's analog: LMS accepts the staged call, but the
		// native toolchain cannot execute it on this machine.
		return nil, fmt.Errorf("intrinsic %s has no executable semantic in the vm", name)
	}
	cs := &callSite{name: name, fn: in.Fn, off: len(c.vInit)}
	for i, a := range n.Def.Args {
		k := a.Type().Kind
		switch cst, isConst := a.(ir.Const); {
		case inl != nil && i == inl.pos:
			c.newVec(vm.Value{Kind: k})
		case isConst:
			c.newVec(fromScalar(k, constReg(cst)))
		default:
			r, err := c.ref(a)
			if err != nil {
				return nil, err
			}
			dst := c.newVec(vm.Value{Kind: k})
			cs.gather = append(cs.gather, gather{cls: classOf(k), src: r.idx, dst: dst})
		}
	}
	cs.end = len(c.vInit)
	c.arenaLen += cs.end - cs.off
	if inl != nil {
		cs.pre = inl.into(cs.off + inl.pos)
	}
	vn := &valNode{counts: []countDelta{{name, 1}}, sym: n.Sym}
	switch kind := n.Def.Typ.Kind; kind {
	case ir.KindVoid:
		vn.op = func(fr *frame) error { return cs.call(fr, &fr.sink) }
	case ir.KindVec:
		vn.into = func(slot int) op {
			return func(fr *frame) error { return cs.call(fr, &fr.v[slot]) }
		}
	default:
		// Scalar results land in a private arena slot and are unboxed
		// into the node's register.
		tmp := c.newVec(vm.Value{})
		dst := c.slot(n.Sym)
		vn.op = func(fr *frame) error {
			out := &fr.v[tmp]
			if err := cs.call(fr, out); err != nil {
				return err
			}
			fr.s[dst] = toScalar(kind, out)
			return nil
		}
	}
	return vn, nil
}

func (c *compiler) compileLoop(n *ir.Node) (op, error) {
	bounds, err := c.refs(n.Def.Args[:3])
	if err != nil {
		return nil, err
	}
	body := n.Def.Blocks[0]
	lc := &loopCode{prog: c.prog, start: bounds[0], end: bounds[1], stride: bounds[2],
		iv: c.slot(body.Params[0])}
	// Loop-carried accumulator (LoopAcc): 4th argument is the initial
	// value, 2nd block param the carried symbol, block result the next
	// value.
	lc.carried = len(n.Def.Args) == 4
	if lc.carried {
		if lc.init, err = c.ref(n.Def.Args[3]); err != nil {
			return nil, err
		}
		acc := body.Params[1]
		lc.acc = reg{idx: c.slot(acc), kind: acc.Typ.Kind}
		lc.dst = reg{idx: c.slot(n.Sym), kind: n.Sym.Typ.Kind}
	}
	// The loop-nest optimizer claims invariant and affine nodes before
	// the body is lowered; compileBlock then skips them. With an empty
	// plan the driver runs the whole body per iteration.
	plan := c.planLoop(body)
	// Claimed nodes still own a register the body reads; assign their
	// slots now since compileBlock will skip them.
	for _, pn := range plan.hoisted {
		c.skip[pn.Sym.ID] = true
		c.slot(pn.Sym)
	}
	for _, pn := range plan.derived {
		c.skip[pn.Sym.ID] = true
		c.slot(pn.Sym)
	}
	c.loopIVs = append(c.loopIVs, body.Params[0])
	bodyOps, bodyCounts, err := c.compileBlock(body)
	c.loopIVs = c.loopIVs[:len(c.loopIVs)-1]
	for _, pn := range plan.hoisted {
		delete(c.skip, pn.Sym.ID)
	}
	for _, pn := range plan.derived {
		delete(c.skip, pn.Sym.ID)
	}
	if err != nil {
		return nil, err
	}
	if lc.carried {
		if lc.next, err = c.ref(body.Result); err != nil {
			return nil, err
		}
	}
	// Hoisted and strength-reduced nodes run from the loop driver; their
	// static counts merge into the body's vector so the dynamic count
	// stream is the one the unoptimized body would produce.
	hoistedOps, derivedOps, extraCounts, derSlots, err := c.lowerPlan(plan)
	if err != nil {
		return nil, err
	}
	lc.bodyOps = bodyOps
	lc.bodyCounts = mergeCounts(append(bodyCounts, extraCounts...))
	lc.hoistedOps, lc.derivedOps, lc.derSlots = hoistedOps, derivedOps, derSlots
	lc.nDer = len(derivedOps)
	lc.saveOff = len(c.sInit)
	for j := 0; j < 2*lc.nDer; j++ {
		c.newScalar() // derived save/step area
	}
	// Per-loop iteration counter so the cost model can attribute the
	// loop-carried dependency chain (see internal/machine). The body's
	// static count vector is applied once, scaled by the trip count.
	lc.loopKey = fmt.Sprintf("loop.#%d", n.Sym.ID)
	// The parallel tier: when the dependence analysis proves iterations
	// independent, attach the probe plan; the driver decides per
	// execution (trip count, worker budget, runtime probe) whether to
	// shard.
	pp, err := c.buildParPlan(n, body, lc)
	if err != nil {
		return nil, err
	}
	if pp != nil {
		lc.par = pp
		parEligible.Add(1)
	}
	return lc.run, nil
}

// loopCode is one loop's compiled driver state, shared by the serial
// loop and the parallel lanes.
type loopCode struct {
	prog               *Program
	start, end, stride int // scalar registers of the bounds
	iv                 int
	carried            bool
	init, acc, dst     reg // carried accumulator: initial value, body param, loop result
	next               reg // carried accumulator: next value (block result)
	bodyOps            []op
	// bodyCounts is the body's static count vector, applied once scaled
	// by the trip count.
	bodyCounts []countDelta
	hoistedOps []op
	derivedOps []op
	derSlots   []int
	saveOff    int // derived save/step area in the scalar file
	nDer       int
	loopKey    string
	par        *parPlan // nil when the loop runs serially
}

// run is the loop driver. Hoisted and strength-reduced nodes execute at
// loop entry (guarded by start < end, so zero-trip loops behave as
// before); their static counts were merged into bodyCounts, keeping the
// dynamic count stream identical with the optimizer on or off.
// Strength-reduced (derived) nodes are affine i32 functions of the
// induction variable: their per-stride step is measured once by
// evaluating the chain at start and start+stride — exact because i32
// arithmetic is linear in the ring Z/2^32 and truncation commutes with
// it — then each iteration advances them with one masked add instead of
// re-running the chain.
func (lc *loopCode) run(fr *frame) error {
	s := fr.s
	start, end, stride := s[lc.start].i, s[lc.end].i, s[lc.stride].i
	if stride <= 0 {
		return fmt.Errorf("forloop stride %d must be positive", stride)
	}
	if lc.carried {
		fr.move(lc.acc, lc.init)
	}
	var iters int64
	if start < end {
		iters = (end - start + stride - 1) / stride
		s[lc.iv].i = start
		for _, o := range lc.hoistedOps {
			if err := o(fr); err != nil {
				return err
			}
		}
		if lc.nDer > 0 {
			save := s[lc.saveOff : lc.saveOff+2*lc.nDer]
			for _, o := range lc.derivedOps {
				if err := o(fr); err != nil {
					return err
				}
			}
			for j, d := range lc.derSlots {
				save[j].i = s[d].i
			}
			s[lc.iv].i = start + stride
			for _, o := range lc.derivedOps {
				if err := o(fr); err != nil {
					return err
				}
			}
			for j, d := range lc.derSlots {
				save[lc.nDer+j].i = s[d].i - save[j].i
				s[d].i = save[j].i
			}
			s[lc.iv].i = start
		}
		if lc.par != nil && iters >= parMinIters && fr.m.Workers > 1 && fr.m.Cache == nil {
			// The cache simulator is order-sensitive shared state, so
			// simulated runs always take the serial driver.
			if done, err := lc.runParallel(fr, start, stride, iters); done {
				if err != nil {
					return err
				}
				if lc.carried {
					fr.move(lc.dst, lc.acc)
				}
				return nil
			}
			parFallbacks.Add(1)
		}
	}
	// Completed iterations feed the arena tally even when the body
	// errors mid-loop, so ArenaStats never undercounts recycled frames.
	completed, err := lc.span(fr, start, stride, iters)
	fr.arena += completed
	if err != nil {
		return err
	}
	lc.addCounts(fr.m, iters)
	if lc.carried {
		fr.move(lc.dst, lc.acc)
	}
	return nil
}

// span executes cnt consecutive iterations starting at induction value
// i0, assuming the iv register and derived registers already hold the
// i0 state. It returns how many iterations completed.
func (lc *loopCode) span(fr *frame, i0, stride, cnt int64) (int64, error) {
	s := fr.s
	step := s[lc.saveOff+lc.nDer : lc.saveOff+2*lc.nDer]
	i := i0
	for t := int64(0); t < cnt; t++ {
		if t != 0 {
			s[lc.iv].i = i
			for j, d := range lc.derSlots {
				r := &s[d]
				r.i = int64(int32(r.i + step[j].i))
			}
		}
		for _, o := range lc.bodyOps {
			if err := o(fr); err != nil {
				return t, err
			}
		}
		if lc.carried {
			fr.move(lc.acc, lc.next)
		}
		i += stride
	}
	return cnt, nil
}

// addCounts applies the loop's contribution to the dynamic op stream:
// one iteration count, the per-loop attribution key, and the body's
// static vector scaled by the trip count.
func (lc *loopCode) addCounts(m *vm.Machine, iters int64) {
	m.Counts.Add(OpLoopIter, iters)
	m.Counts.Add(lc.loopKey, iters)
	for _, cd := range lc.bodyCounts {
		m.Counts.Add(cd.key, cd.n*iters)
	}
}

func (c *compiler) compileIf(n *ir.Node) (op, error) {
	cond, err := c.ref(n.Def.Args[0])
	if err != nil {
		return nil, err
	}
	thenB, elseB := n.Def.Blocks[0], n.Def.Blocks[1]
	thenOps, thenCounts, err := c.compileBlock(thenB)
	if err != nil {
		return nil, err
	}
	elseOps, elseCounts, err := c.compileBlock(elseB)
	if err != nil {
		return nil, err
	}
	var thenRes, elseRes *reg
	if thenB.Result != nil {
		r, err := c.ref(thenB.Result)
		if err != nil {
			return nil, err
		}
		thenRes = &r
	}
	if elseB.Result != nil {
		r, err := c.ref(elseB.Result)
		if err != nil {
			return nil, err
		}
		elseRes = &r
	}
	var dst reg
	if n.Def.Typ != ir.TVoid {
		dst = reg{idx: c.slot(n.Sym), kind: n.Sym.Typ.Kind}
	} else {
		thenRes, elseRes = nil, nil
	}
	arm := func(fr *frame, ops []op, counts []countDelta, res *reg) error {
		for _, o := range ops {
			if err := o(fr); err != nil {
				return err
			}
		}
		for _, cd := range counts {
			fr.m.Counts.Add(cd.key, cd.n)
		}
		if res != nil {
			fr.move(dst, *res)
		}
		return nil
	}
	// The branch op itself is in the parent block's static vector; only
	// the taken arm's counts are applied here.
	return func(fr *frame) error {
		if fr.s[cond.idx].i != 0 {
			return arm(fr, thenOps, thenCounts, thenRes)
		}
		return arm(fr, elseOps, elseCounts, elseRes)
	}, nil
}

// element resolves one scalar array access: the buffer and element
// index behind pointer register p displaced by index register x, bounds
// checked and routed through the cache simulator when one is attached.
func (fr *frame) element(p, x int, what string) (*vm.Buffer, int, error) {
	ptr := &fr.s[p]
	b := ptr.mem
	if b == nil {
		return nil, 0, fmt.Errorf("%s through nil array", what)
	}
	idx := int(fr.s[x].i) + int(ptr.i)
	esz := b.Prim.Bits() / 8
	// (idx+1)*esz <= len(Data) is idx < Len() without the division.
	if idx < 0 || (idx+1)*esz > len(b.Data) {
		return nil, 0, fmt.Errorf("%s index %d out of bounds [0,%d)", what, idx, b.Len())
	}
	if fr.m.Cache != nil {
		fr.m.Touch(b, idx*esz, esz)
	}
	return b, idx, nil
}

func (c *compiler) compileALoad(n *ir.Node) (op, string, error) {
	args, err := c.refs(n.Def.Args)
	if err != nil {
		return nil, "", err
	}
	cost := OpScalarLoad
	if c.strided(n.Def.Args[1]) {
		cost = OpScalarLoadStrided
	}
	p, x, d := args[0], args[1], c.slot(n.Sym)
	switch n.Sym.Typ.Kind {
	case ir.KindF32:
		return func(fr *frame) error {
			b, idx, err := fr.element(p, x, "aload")
			if err != nil {
				return err
			}
			fr.s[d].f = float64(b.F32At(idx))
			return nil
		}, cost, nil
	case ir.KindF64:
		return func(fr *frame) error {
			b, idx, err := fr.element(p, x, "aload")
			if err != nil {
				return err
			}
			fr.s[d].f = b.F64At(idx)
			return nil
		}, cost, nil
	default:
		return func(fr *frame) error {
			b, idx, err := fr.element(p, x, "aload")
			if err != nil {
				return err
			}
			fr.s[d].i = b.IntAt(idx)
			return nil
		}, cost, nil
	}
}

func (c *compiler) compileAStore(n *ir.Node) (op, string, error) {
	args, err := c.refs(n.Def.Args)
	if err != nil {
		return nil, "", err
	}
	p, x, v := args[0], args[1], args[2]
	if n.Def.Args[2].Type().IsFloat() {
		return func(fr *frame) error {
			b, idx, err := fr.element(p, x, "astore")
			if err != nil {
				return err
			}
			if b.Prim.Bits() == 32 {
				b.SetF32At(idx, float32(fr.s[v].f))
			} else {
				b.SetF64At(idx, fr.s[v].f)
			}
			return nil
		}, OpScalarStore, nil
	}
	return func(fr *frame) error {
		b, idx, err := fr.element(p, x, "astore")
		if err != nil {
			return err
		}
		b.SetIntAt(idx, fr.s[v].i)
		return nil
	}, OpScalarStore, nil
}

func (c *compiler) compilePtrAdd(n *ir.Node) (op, string, error) {
	args, err := c.refs(n.Def.Args)
	if err != nil {
		return nil, "", err
	}
	p, x, d := args[0], args[1], c.slot(n.Sym)
	return func(fr *frame) error {
		s := fr.s
		s[d] = sreg{i: s[p].i + s[x].i, mem: s[p].mem}
		return nil
	}, OpScalarALU, nil
}

func (c *compiler) compileConv(n *ir.Node) (op, string, error) {
	src, err := c.ref(n.Def.Args[0])
	if err != nil {
		return nil, "", err
	}
	return convOp(src.kind, n.Sym.Typ, c.slot(n.Sym), src.idx), OpScalarConv, nil
}

func (c *compiler) compileSelect(n *ir.Node) (op, string, error) {
	var args [3]reg
	for i, a := range n.Def.Args {
		r, err := c.ref(a)
		if err != nil {
			return nil, "", err
		}
		args[i] = r
	}
	cond, a, b := args[0].idx, args[1], args[2]
	d := reg{idx: c.slot(n.Sym), kind: n.Sym.Typ.Kind}
	return func(fr *frame) error {
		if fr.s[cond].i != 0 {
			fr.move(d, a)
		} else {
			fr.move(d, b)
		}
		return nil
	}, OpScalarALU, nil
}

// Run executes the program on machine m with the given arguments (one
// per staged parameter, arrays as vm pointer values). Frames come from a
// pool, so steady-state execution allocates nothing; concurrent Runs of
// one Program are safe (each holds a private frame).
func (p *Program) Run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	if len(args) != len(p.params) {
		return vm.Value{}, fmt.Errorf("kernelc: %s: got %d arguments, want %d",
			p.F.Name, len(args), len(p.params))
	}
	poolGets.Add(1)
	fr := p.pool.Get().(*frame)
	fr.m = m
	for i, r := range p.params {
		fr.unbox(r, &args[i])
	}
	for _, o := range p.ops {
		if err := o(fr); err != nil {
			releaseFrame(p, fr)
			return vm.Value{}, fmt.Errorf("kernelc: %s: %w", p.F.Name, err)
		}
	}
	for _, cd := range p.rootCounts {
		m.Counts.Add(cd.key, cd.n)
	}
	var out vm.Value
	if p.result != nil {
		out = fr.box(*p.result)
	}
	releaseFrame(p, fr)
	return out, nil
}

// releaseFrame flushes the frame's arena tally and returns it to the
// pool.
func releaseFrame(p *Program, fr *frame) {
	if fr.arena != 0 {
		arenaResets.Add(fr.arena)
		fr.arena = 0
	}
	fr.m = nil
	p.pool.Put(fr)
}
