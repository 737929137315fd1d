package native

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernelc"
)

// generate specializes a staged function into standalone Go plugin
// source. The walk mirrors kernelc's compile pass over the same
// ir.Schedule: identical node order, identical error strings, identical
// static count vectors (flushed per block, scaled by trip counts), so
// the plugin's results, memory writes, and dynamic op counts are
// byte-identical to the interpreter's.
//
// A non-nil error means the function is not native-lowerable; the error
// text is the reason reported by ngen vet's "native" pass and by the
// runtime's fallback notice.
func generate(f *ir.Func) (string, error) {
	g := &gen{f: f, sched: ir.Schedule(f)}
	var b strings.Builder
	b.WriteString(prelude)
	b.WriteString("\n// Run executes kernel ")
	b.WriteString(f.Name)
	b.WriteString(".\nfunc Run(args []any) (res any, cnt map[string]int64, err error) {\n")
	g.ind = 1
	g.p("cnt = map[string]int64{}")
	slot := 0
	for _, prm := range f.Params {
		switch prm.Typ.Kind {
		case ir.KindPtr:
			if !supportedElem(prm.Typ.Elem) {
				return "", fmt.Errorf("parameter %s: unsupported element type %v", prm, prm.Typ.Elem)
			}
			g.p("%s := args[%d].([]byte)", pd(prm), slot)
			g.p("%s := args[%d].(int64)", po(prm), slot+1)
			g.p("_ = %s", pd(prm))
			g.p("_ = %s", po(prm))
			slot += 2
		case ir.KindVec:
			return "", fmt.Errorf("parameter %s: vector-typed parameters are not lowerable", prm)
		case ir.KindVoid:
			return "", fmt.Errorf("parameter %s: void parameter", prm)
		default:
			g.p("%s := args[%d].(%s)", vname(prm), slot, goType(prm.Typ.Kind))
			g.p("_ = %s", vname(prm))
			slot++
		}
	}
	root := f.G.Root()
	if r := root.Result; r != nil {
		switch r.Type().Kind {
		case ir.KindPtr, ir.KindVec:
			return "", fmt.Errorf("result type %v is not lowerable", r.Type())
		}
	}
	counts, err := g.block(root)
	if err != nil {
		return "", err
	}
	g.flush(counts, "")
	if r := root.Result; r != nil {
		e, err := g.scalarExpr(r)
		if err != nil {
			return "", fmt.Errorf("result: %w", err)
		}
		g.p("res = %s", e)
	}
	g.p("return")
	b.WriteString(g.b.String())
	b.WriteString("}\n")
	return b.String(), nil
}

// Lowerable reports whether the native backend can lower the function;
// a non-nil error carries the human-readable reason. It is the check
// ngen vet's "native" pass surfaces.
func Lowerable(f *ir.Func) error {
	_, err := generate(f)
	return err
}

type gen struct {
	f       *ir.Func
	sched   *ir.Scheduled
	b       strings.Builder
	ind     int
	loopIVs []ir.Sym
}

func (g *gen) p(format string, args ...any) {
	for i := 0; i < g.ind; i++ {
		g.b.WriteByte('\t')
	}
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// --- naming and literals -----------------------------------------------------

func vname(s ir.Sym) string { return fmt.Sprintf("x%d", s.ID) }
func pd(s ir.Sym) string    { return fmt.Sprintf("p%dd", s.ID) }
func po(s ir.Sym) string    { return fmt.Sprintf("p%do", s.ID) }

func goType(k ir.Kind) string {
	switch k {
	case ir.KindBool:
		return "bool"
	case ir.KindF32, ir.KindF64:
		return "float64"
	case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
		return "uint64"
	case ir.KindVec:
		return "vec"
	default:
		return "int64"
	}
}

func goInt(v int64) string {
	if v == math.MinInt64 {
		return "(-9223372036854775807 - 1)"
	}
	return strconv.FormatInt(v, 10)
}

func goFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "math.NaN()"
	case math.IsInf(v, 1):
		return "math.Inf(1)"
	case math.IsInf(v, -1):
		return "math.Inf(-1)"
	}
	return strconv.FormatFloat(v, 'x', -1, 64)
}

func supportedElem(p isa.Prim) bool {
	switch p {
	case isa.PrimI8, isa.PrimU8, isa.PrimI16, isa.PrimU16, isa.PrimI32,
		isa.PrimU32, isa.PrimI64, isa.PrimU64, isa.PrimF32, isa.PrimF64:
		return true
	}
	return false
}

// scalarExpr renders an expression as its generated-code representation
// (bool, int64, uint64, float64, or vec — never a pointer pair).
func (g *gen) scalarExpr(e ir.Exp) (string, error) {
	switch x := e.(type) {
	case ir.Sym:
		if x.Typ.Kind == ir.KindPtr {
			return "", fmt.Errorf("pointer value %s used in scalar position", x)
		}
		return vname(x), nil
	case ir.Const:
		switch {
		case x.Typ.Kind == ir.KindBool:
			return strconv.FormatBool(x.B), nil
		case x.Typ.IsFloat():
			return goFloat(x.F), nil
		case x.Typ.IsSigned():
			return fmt.Sprintf("int64(%s)", goInt(x.I)), nil
		default:
			return fmt.Sprintf("uint64(%d)", x.U), nil
		}
	}
	return "", fmt.Errorf("unsupported expression %T", e)
}

// asInt renders vm.Value.AsInt of an expression: an int64-typed string.
func (g *gen) asInt(e ir.Exp) (string, error) {
	if c, ok := e.(ir.Const); ok {
		var raw int64
		switch {
		case c.Typ.Kind == ir.KindBool:
			if c.B {
				raw = 1
			}
		case c.Typ.IsFloat():
			raw = int64(c.F) // same runtime conversion the interpreter performs
		case c.Typ.IsSigned():
			raw = c.I
		default:
			raw = int64(c.U)
		}
		return fmt.Sprintf("int64(%s)", goInt(raw)), nil
	}
	s, ok := e.(ir.Sym)
	if !ok {
		return "", fmt.Errorf("unsupported expression %T", e)
	}
	switch s.Typ.Kind {
	case ir.KindBool:
		return fmt.Sprintf("b2i(%s)", vname(s)), nil
	case ir.KindI8, ir.KindI16, ir.KindI32, ir.KindI64:
		return vname(s), nil
	case ir.KindF32, ir.KindF64, ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
		return fmt.Sprintf("int64(%s)", vname(s)), nil
	}
	return "", fmt.Errorf("AsInt of %v value %s", s.Typ, s)
}

// asFloat renders vm.Value.AsFloat of an expression: a float64 string.
func (g *gen) asFloat(e ir.Exp) (string, error) {
	if c, ok := e.(ir.Const); ok {
		var f float64
		switch {
		case c.Typ.Kind == ir.KindBool:
			if c.B {
				f = 1
			}
		case c.Typ.IsFloat():
			f = c.F
		case c.Typ.IsSigned():
			f = float64(c.I)
		default:
			f = float64(c.U)
		}
		return fmt.Sprintf("float64(%s)", goFloat(f)), nil
	}
	s, ok := e.(ir.Sym)
	if !ok {
		return "", fmt.Errorf("unsupported expression %T", e)
	}
	switch s.Typ.Kind {
	case ir.KindF32, ir.KindF64:
		return vname(s), nil
	case ir.KindBool:
		return fmt.Sprintf("float64(b2i(%s))", vname(s)), nil
	case ir.KindPtr, ir.KindVec, ir.KindVoid:
		return "", fmt.Errorf("AsFloat of %v value %s", s.Typ, s)
	default:
		return fmt.Sprintf("float64(%s)", vname(s)), nil
	}
}

// trunc renders kernelc's truncInt: wrap an int64 expression into the
// target integer type's representation (int64 for signed, uint64 for
// unsigned).
func trunc(k ir.Kind, inner string) string {
	switch k {
	case ir.KindI8:
		return fmt.Sprintf("int64(int8(%s))", inner)
	case ir.KindI16:
		return fmt.Sprintf("int64(int16(%s))", inner)
	case ir.KindI32:
		return fmt.Sprintf("int64(int32(%s))", inner)
	case ir.KindI64:
		return fmt.Sprintf("(%s)", inner)
	case ir.KindU8:
		return fmt.Sprintf("uint64(uint8(%s))", inner)
	case ir.KindU16:
		return fmt.Sprintf("uint64(uint16(%s))", inner)
	case ir.KindU32:
		return fmt.Sprintf("uint64(uint32(%s))", inner)
	default: // KindU64
		return fmt.Sprintf("uint64(%s)", inner)
	}
}

// --- statics ----------------------------------------------------------------

// flush emits the block's static count vector, optionally scaled by a
// trip-count variable. Keys are sorted for deterministic source (the
// build cache keys on the generated text).
func (g *gen) flush(counts map[string]int64, scale string) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if scale == "" {
			g.p("cnt[%q] += %s", k, goInt(counts[k]))
		} else {
			g.p("cnt[%q] += %s * %s", k, goInt(counts[k]), scale)
		}
	}
}

func isCmp(op string) bool {
	switch op {
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return true
	}
	return false
}

// scalarCost mirrors kernelc's cost classification.
func scalarCost(op string, t ir.Type) string {
	switch op {
	case ir.OpMul:
		if t.IsFloat() {
			return kernelc.OpScalarFMul
		}
		return kernelc.OpScalarMul
	case ir.OpDiv, ir.OpRem:
		if t.IsFloat() {
			return kernelc.OpScalarFDiv
		}
		return kernelc.OpScalarDiv
	case ir.OpAdd, ir.OpSub, ir.OpNeg, ir.OpMin, ir.OpMax:
		if t.IsFloat() {
			return kernelc.OpScalarFP
		}
		return kernelc.OpScalarALU
	default:
		return kernelc.OpScalarALU
	}
}

// strided mirrors kernelc's stride classification of scalar loads: the
// index expression multiplies the innermost loop variable.
func (g *gen) strided(idx ir.Exp) bool {
	if len(g.loopIVs) == 0 {
		return false
	}
	iv := g.loopIVs[len(g.loopIVs)-1]
	var walk func(e ir.Exp, depth int) bool
	walk = func(e ir.Exp, depth int) bool {
		s, ok := e.(ir.Sym)
		if !ok || depth > 6 {
			return false
		}
		d, ok := g.f.G.Def(s)
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

// --- block walk --------------------------------------------------------------

func (g *gen) block(b *ir.Block) (map[string]int64, error) {
	counts := map[string]int64{}
	for _, n := range g.sched.Keep[b] {
		d := n.Def
		switch d.Op {
		case ir.OpComment, ir.OpParam:
			continue
		case ir.OpLoop:
			if err := g.loop(n); err != nil {
				return nil, err
			}
		case ir.OpIf:
			if err := g.ifStmt(n); err != nil {
				return nil, err
			}
			counts[kernelc.OpBranch]++
		default:
			if err := g.simple(n, counts); err != nil {
				return nil, err
			}
		}
	}
	return counts, nil
}

func (g *gen) simple(n *ir.Node, counts map[string]int64) error {
	d := n.Def
	if ir.IsIntrinsicOp(d.Op) {
		counts[d.Op]++
		return g.intrinsic(n)
	}
	switch d.Op {
	case ir.OpALoad:
		key := kernelc.OpScalarLoad
		if g.strided(d.Args[1]) {
			key = kernelc.OpScalarLoadStrided
		}
		counts[key]++
		return g.aload(n)
	case ir.OpAStore:
		counts[kernelc.OpScalarStore]++
		return g.astore(n)
	case ir.OpPtrAdd:
		counts[kernelc.OpScalarALU]++
		return g.ptradd(n)
	case ir.OpConv:
		counts[kernelc.OpScalarConv]++
		return g.conv(n)
	case ir.OpSel:
		counts[kernelc.OpScalarALU]++
		return g.sel(n)
	default:
		counts[scalarCost(d.Op, d.Typ)]++
		return g.scalar(n)
	}
}

// declare emits the variable(s) backing a symbol, assign fills them, and
// use silences Go's unused-variable check.
func (g *gen) declare(s ir.Sym) {
	if s.Typ.Kind == ir.KindPtr {
		g.p("var %s []byte", pd(s))
		g.p("var %s int64", po(s))
		return
	}
	g.p("var %s %s", vname(s), goType(s.Typ.Kind))
}

func (g *gen) assign(dst ir.Sym, src ir.Exp) error {
	if dst.Typ.Kind == ir.KindPtr {
		ss, ok := src.(ir.Sym)
		if !ok || ss.Typ.Kind != ir.KindPtr {
			return fmt.Errorf("pointer assignment from non-pointer %v", src)
		}
		g.p("%s = %s", pd(dst), pd(ss))
		g.p("%s = %s", po(dst), po(ss))
		return nil
	}
	e, err := g.scalarExpr(src)
	if err != nil {
		return err
	}
	g.p("%s = %s", vname(dst), e)
	return nil
}

func (g *gen) use(s ir.Sym) {
	if s.Typ.Kind == ir.KindPtr {
		g.p("_ = %s", pd(s))
		g.p("_ = %s", po(s))
		return
	}
	g.p("_ = %s", vname(s))
}

// --- control flow ------------------------------------------------------------

func (g *gen) loop(n *ir.Node) error {
	d := n.Def
	body := d.Blocks[0]
	id := n.Sym.ID
	carried := len(d.Args) == 4
	iv := body.Params[0]
	lo, err := g.asInt(d.Args[0])
	if err != nil {
		return err
	}
	hi, err := g.asInt(d.Args[1])
	if err != nil {
		return err
	}
	st, err := g.asInt(d.Args[2])
	if err != nil {
		return err
	}
	g.p("lo%d := %s", id, lo)
	g.p("hi%d := %s", id, hi)
	g.p("st%d := %s", id, st)
	g.p("if st%d <= 0 {", id)
	g.ind++
	g.p(`err = fmt.Errorf("forloop stride %%d must be positive", st%d)`, id)
	g.p("return")
	g.ind--
	g.p("}")
	if carried {
		acc := body.Params[1]
		g.declare(acc)
		if err := g.assign(acc, d.Args[3]); err != nil {
			return err
		}
	}
	g.p("it%d := int64(0)", id)
	g.p("for %s := lo%d; %s < hi%d; %s += st%d {", vname(iv), id, vname(iv), id, vname(iv), id)
	g.ind++
	g.p("_ = %s", vname(iv))
	g.loopIVs = append(g.loopIVs, iv)
	bodyCounts, err := g.block(body)
	g.loopIVs = g.loopIVs[:len(g.loopIVs)-1]
	if err != nil {
		return err
	}
	if carried {
		if err := g.assign(body.Params[1], body.Result); err != nil {
			return err
		}
	}
	g.p("it%d++", id)
	g.ind--
	g.p("}")
	// The loop's dynamic count contribution, exactly as the interpreter
	// flushes it once the loop completes: iteration pseudo-op, per-loop
	// attribution key, and the body's static vector scaled by the trip
	// count. A body error returns before reaching this point, matching
	// the interpreter's mid-loop error behavior.
	g.p("cnt[%q] += it%d", kernelc.OpLoopIter, id)
	g.p("cnt[%q] += it%d", fmt.Sprintf("loop.#%d", id), id)
	g.flush(bodyCounts, fmt.Sprintf("it%d", id))
	if carried {
		g.declare(n.Sym)
		if err := g.assign(n.Sym, body.Params[1]); err != nil {
			return err
		}
		g.use(n.Sym)
	}
	return nil
}

func (g *gen) ifStmt(n *ir.Node) error {
	d := n.Def
	cond, err := g.scalarExpr(d.Args[0])
	if err != nil {
		return err
	}
	void := d.Typ == ir.TVoid
	if !void {
		g.declare(n.Sym)
	}
	thenB, elseB := d.Blocks[0], d.Blocks[1]
	g.p("if %s {", cond)
	g.ind++
	thenCounts, err := g.block(thenB)
	if err != nil {
		return err
	}
	g.flush(thenCounts, "")
	if !void && thenB.Result != nil {
		if err := g.assign(n.Sym, thenB.Result); err != nil {
			return err
		}
	}
	g.ind--
	g.p("} else {")
	g.ind++
	elseCounts, err := g.block(elseB)
	if err != nil {
		return err
	}
	g.flush(elseCounts, "")
	if !void && elseB.Result != nil {
		if err := g.assign(n.Sym, elseB.Result); err != nil {
			return err
		}
	}
	g.ind--
	g.p("}")
	if !void {
		g.use(n.Sym)
	}
	return nil
}

// --- memory ops --------------------------------------------------------------

func ptrArg(e ir.Exp) (ir.Sym, error) {
	s, ok := e.(ir.Sym)
	if !ok || s.Typ.Kind != ir.KindPtr {
		return ir.Sym{}, fmt.Errorf("expected pointer symbol, got %v", e)
	}
	return s, nil
}

func (g *gen) aload(n *ir.Node) error {
	d := n.Def
	ps, err := ptrArg(d.Args[0])
	if err != nil {
		return err
	}
	es := ps.Typ.Elem.Bits() / 8
	idx, err := g.asInt(d.Args[1])
	if err != nil {
		return err
	}
	id := n.Sym.ID
	g.p("i%d := int(%s) + int(%s)", id, idx, po(ps))
	g.p("if i%d < 0 || i%d >= len(%s)/%d {", id, id, pd(ps), es)
	g.ind++
	g.p(`err = fmt.Errorf("aload index %%d out of bounds [0,%%d)", i%d, len(%s)/%d)`, id, pd(ps), es)
	g.p("return")
	g.ind--
	g.p("}")
	x := vname(n.Sym)
	switch n.Sym.Typ.Kind {
	case ir.KindF32:
		g.p("%s := float64(bf32(%s, i%d))", x, pd(ps), id)
	case ir.KindF64:
		g.p("%s := bf64(%s, i%d)", x, pd(ps), id)
	case ir.KindI8:
		g.p("%s := bi8(%s, i%d)", x, pd(ps), id)
	case ir.KindU8:
		g.p("%s := uint64(bu8(%s, i%d))", x, pd(ps), id)
	case ir.KindI16:
		g.p("%s := bi16(%s, i%d)", x, pd(ps), id)
	case ir.KindU16:
		g.p("%s := uint64(bu16(%s, i%d))", x, pd(ps), id)
	case ir.KindI32:
		g.p("%s := bi32(%s, i%d)", x, pd(ps), id)
	case ir.KindU32:
		g.p("%s := uint64(bu32(%s, i%d))", x, pd(ps), id)
	case ir.KindI64:
		g.p("%s := bi64(%s, i%d)", x, pd(ps), id)
	case ir.KindU64:
		g.p("%s := uint64(bi64(%s, i%d))", x, pd(ps), id)
	default:
		return fmt.Errorf("aload of unsupported kind %v", n.Sym.Typ)
	}
	g.p("_ = %s", x)
	return nil
}

func (g *gen) astore(n *ir.Node) error {
	d := n.Def
	ps, err := ptrArg(d.Args[0])
	if err != nil {
		return err
	}
	es := ps.Typ.Elem.Bits() / 8
	idx, err := g.asInt(d.Args[1])
	if err != nil {
		return err
	}
	id := n.Sym.ID
	g.p("i%d := int(%s) + int(%s)", id, idx, po(ps))
	g.p("if i%d < 0 || i%d >= len(%s)/%d {", id, id, pd(ps), es)
	g.ind++
	g.p(`err = fmt.Errorf("astore index %%d out of bounds [0,%%d)", i%d, len(%s)/%d)`, id, pd(ps), es)
	g.p("return")
	g.ind--
	g.p("}")
	val := d.Args[2]
	switch val.Type().Kind {
	case ir.KindF32, ir.KindF64:
		fe, err := g.scalarExpr(val)
		if err != nil {
			return err
		}
		if ps.Typ.Elem.Bits() == 32 {
			g.p("bsetf32(%s, i%d, float32(%s))", pd(ps), id, fe)
		} else {
			g.p("bsetf64(%s, i%d, %s)", pd(ps), id, fe)
		}
	default:
		ie, err := g.asInt(val)
		if err != nil {
			return err
		}
		switch ps.Typ.Elem.Bits() {
		case 8:
			g.p("bset8(%s, i%d, %s)", pd(ps), id, ie)
		case 16:
			g.p("bset16(%s, i%d, %s)", pd(ps), id, ie)
		case 32:
			g.p("bset32(%s, i%d, %s)", pd(ps), id, ie)
		default:
			g.p("bset64(%s, i%d, %s)", pd(ps), id, ie)
		}
	}
	return nil
}

func (g *gen) ptradd(n *ir.Node) error {
	d := n.Def
	ps, err := ptrArg(d.Args[0])
	if err != nil {
		return err
	}
	idx, err := g.asInt(d.Args[1])
	if err != nil {
		return err
	}
	g.p("%s := %s", pd(n.Sym), pd(ps))
	g.p("%s := %s + %s", po(n.Sym), po(ps), idx)
	g.use(n.Sym)
	return nil
}

// --- scalar ops --------------------------------------------------------------

func (g *gen) conv(n *ir.Node) error {
	src := n.Def.Args[0]
	to := n.Sym.Typ
	x := vname(n.Sym)
	switch {
	case to.Kind == ir.KindBool:
		ie, err := g.asInt(src)
		if err != nil {
			return err
		}
		g.p("%s := %s != 0", x, ie)
	case to.IsFloat():
		var base string
		var err error
		switch src.Type().Kind {
		case ir.KindF32, ir.KindF64:
			base, err = g.scalarExpr(src)
		default:
			base, err = g.asFloat(src)
		}
		if err != nil {
			return err
		}
		if to.Kind == ir.KindF32 {
			g.p("%s := float64(float32(%s))", x, base)
		} else {
			g.p("%s := float64(%s)", x, base)
		}
	default:
		var raw string
		switch src.Type().Kind {
		case ir.KindF32, ir.KindF64:
			if c, ok := src.(ir.Const); ok {
				var r int64
				if !math.IsNaN(c.F) {
					r = int64(c.F)
				}
				raw = fmt.Sprintf("int64(%s)", goInt(r))
			} else {
				se, err := g.scalarExpr(src)
				if err != nil {
					return err
				}
				raw = fmt.Sprintf("f2i(%s)", se)
			}
		default:
			var err error
			raw, err = g.asInt(src)
			if err != nil {
				return err
			}
		}
		g.p("%s := %s", x, trunc(to.Kind, raw))
	}
	g.p("_ = %s", x)
	return nil
}

func (g *gen) sel(n *ir.Node) error {
	d := n.Def
	cond, err := g.scalarExpr(d.Args[0])
	if err != nil {
		return err
	}
	g.declare(n.Sym)
	g.p("if %s {", cond)
	g.ind++
	if err := g.assign(n.Sym, d.Args[1]); err != nil {
		return err
	}
	g.ind--
	g.p("} else {")
	g.ind++
	if err := g.assign(n.Sym, d.Args[2]); err != nil {
		return err
	}
	g.ind--
	g.p("}")
	g.use(n.Sym)
	return nil
}

func (g *gen) scalar(n *ir.Node) error {
	d := n.Def
	t := d.Typ
	opT := t
	if isCmp(d.Op) {
		opT = d.Args[0].Type()
	}
	switch len(d.Args) {
	case 1:
		return g.unary(n, t)
	case 2:
		return g.binary(n, t, opT)
	}
	return fmt.Errorf("scalar op %s with %d args", d.Op, len(d.Args))
}

func (g *gen) unary(n *ir.Node, t ir.Type) error {
	d := n.Def
	x := vname(n.Sym)
	switch d.Op {
	case ir.OpNeg:
		if t.IsFloat() {
			a, err := g.scalarExpr(d.Args[0])
			if err != nil {
				return err
			}
			if t.Kind == ir.KindF32 {
				g.p("%s := float64(float32(-(%s)))", x, a)
			} else {
				g.p("%s := float64(-(%s))", x, a)
			}
		} else {
			ai, err := g.asInt(d.Args[0])
			if err != nil {
				return err
			}
			g.p("%s := %s", x, trunc(t.Kind, fmt.Sprintf("-(%s)", ai)))
		}
	case ir.OpNot:
		if t.Kind == ir.KindBool {
			a, err := g.scalarExpr(d.Args[0])
			if err != nil {
				return err
			}
			g.p("%s := !(%s)", x, a)
		} else {
			ai, err := g.asInt(d.Args[0])
			if err != nil {
				return err
			}
			g.p("%s := %s", x, trunc(t.Kind, fmt.Sprintf("^(%s)", ai)))
		}
	default:
		return fmt.Errorf("unsupported unary op %s", d.Op)
	}
	g.p("_ = %s", x)
	return nil
}

func (g *gen) binary(n *ir.Node, t, opT ir.Type) error {
	d := n.Def
	x := vname(n.Sym)
	emit := func(expr string) {
		g.p("%s := %s", x, expr)
		g.p("_ = %s", x)
	}
	if opT.IsFloat() {
		a, err := g.scalarExpr(d.Args[0])
		if err != nil {
			return err
		}
		b, err := g.scalarExpr(d.Args[1])
		if err != nil {
			return err
		}
		round := func(inner string) string {
			if opT.Kind == ir.KindF64 {
				return fmt.Sprintf("float64(%s)", inner)
			}
			return fmt.Sprintf("float64(float32(%s))", inner)
		}
		switch d.Op {
		case ir.OpAdd:
			emit(round(fmt.Sprintf("(%s) + (%s)", a, b)))
		case ir.OpSub:
			emit(round(fmt.Sprintf("(%s) - (%s)", a, b)))
		case ir.OpMul:
			emit(round(fmt.Sprintf("(%s) * (%s)", a, b)))
		case ir.OpDiv:
			emit(round(fmt.Sprintf("(%s) / (%s)", a, b)))
		case ir.OpMin:
			g.p("var %s float64", x)
			g.p("if (%s) < (%s) {", b, a)
			g.ind++
			g.p("%s = %s", x, round(b))
			g.ind--
			g.p("} else {")
			g.ind++
			g.p("%s = %s", x, round(a))
			g.ind--
			g.p("}")
			g.p("_ = %s", x)
		case ir.OpMax:
			g.p("var %s float64", x)
			g.p("if (%s) > (%s) {", b, a)
			g.ind++
			g.p("%s = %s", x, round(b))
			g.ind--
			g.p("} else {")
			g.ind++
			g.p("%s = %s", x, round(a))
			g.ind--
			g.p("}")
			g.p("_ = %s", x)
		case ir.OpEq:
			emit(fmt.Sprintf("(%s) == (%s)", a, b))
		case ir.OpNe:
			emit(fmt.Sprintf("(%s) != (%s)", a, b))
		case ir.OpLt:
			emit(fmt.Sprintf("(%s) < (%s)", a, b))
		case ir.OpLe:
			emit(fmt.Sprintf("(%s) <= (%s)", a, b))
		case ir.OpGt:
			emit(fmt.Sprintf("(%s) > (%s)", a, b))
		case ir.OpGe:
			emit(fmt.Sprintf("(%s) >= (%s)", a, b))
		default:
			return fmt.Errorf("unsupported float op %s", d.Op)
		}
		return nil
	}
	if opT.Kind == ir.KindBool {
		a, err := g.scalarExpr(d.Args[0])
		if err != nil {
			return err
		}
		b, err := g.scalarExpr(d.Args[1])
		if err != nil {
			return err
		}
		switch d.Op {
		case ir.OpAnd:
			emit(fmt.Sprintf("(%s) && (%s)", a, b))
		case ir.OpOr:
			emit(fmt.Sprintf("(%s) || (%s)", a, b))
		case ir.OpXor, ir.OpNe:
			emit(fmt.Sprintf("(%s) != (%s)", a, b))
		case ir.OpEq:
			emit(fmt.Sprintf("(%s) == (%s)", a, b))
		default:
			return fmt.Errorf("unsupported bool op %s", d.Op)
		}
		return nil
	}
	if !opT.IsInteger() {
		return fmt.Errorf("unsupported operand type %v for op %s", opT, d.Op)
	}
	ai, err := g.asInt(d.Args[0])
	if err != nil {
		return err
	}
	bi, err := g.asInt(d.Args[1])
	if err != nil {
		return err
	}
	signed := opT.IsSigned()
	w := func(inner string) string { return trunc(opT.Kind, inner) }
	switch d.Op {
	case ir.OpAdd:
		emit(w(fmt.Sprintf("(%s) + (%s)", ai, bi)))
	case ir.OpSub:
		emit(w(fmt.Sprintf("(%s) - (%s)", ai, bi)))
	case ir.OpMul:
		emit(w(fmt.Sprintf("(%s) * (%s)", ai, bi)))
	case ir.OpDiv:
		g.p("var %s %s", x, goType(opT.Kind))
		g.p("if (%s) == 0 {", bi)
		g.ind++
		g.p("%s = %s", x, w("0"))
		g.ind--
		g.p("} else {")
		g.ind++
		if signed {
			g.p("%s = %s", x, w(fmt.Sprintf("(%s) / (%s)", ai, bi)))
		} else {
			g.p("%s = %s", x, w(fmt.Sprintf("int64(uint64(%s) / uint64(%s))", ai, bi)))
		}
		g.ind--
		g.p("}")
		g.p("_ = %s", x)
	case ir.OpRem:
		g.p("var %s %s", x, goType(opT.Kind))
		g.p("if (%s) == 0 {", bi)
		g.ind++
		g.p("%s = %s", x, w("0"))
		g.ind--
		g.p("} else {")
		g.ind++
		if signed {
			g.p("%s = %s", x, w(fmt.Sprintf("(%s) %% (%s)", ai, bi)))
		} else {
			g.p("%s = %s", x, w(fmt.Sprintf("int64(uint64(%s) %% uint64(%s))", ai, bi)))
		}
		g.ind--
		g.p("}")
		g.p("_ = %s", x)
	case ir.OpMin:
		g.p("var %s %s", x, goType(opT.Kind))
		g.p("if %s {", order(signed, bi, "<", ai))
		g.ind++
		g.p("%s = %s", x, w(bi))
		g.ind--
		g.p("} else {")
		g.ind++
		g.p("%s = %s", x, w(ai))
		g.ind--
		g.p("}")
		g.p("_ = %s", x)
	case ir.OpMax:
		g.p("var %s %s", x, goType(opT.Kind))
		g.p("if %s {", order(signed, bi, ">", ai))
		g.ind++
		g.p("%s = %s", x, w(bi))
		g.ind--
		g.p("} else {")
		g.ind++
		g.p("%s = %s", x, w(ai))
		g.ind--
		g.p("}")
		g.p("_ = %s", x)
	case ir.OpAnd:
		emit(w(fmt.Sprintf("(%s) & (%s)", ai, bi)))
	case ir.OpOr:
		emit(w(fmt.Sprintf("(%s) | (%s)", ai, bi)))
	case ir.OpXor:
		emit(w(fmt.Sprintf("(%s) ^ (%s)", ai, bi)))
	case ir.OpShl:
		emit(w(fmt.Sprintf("(%s) << uint((%s) & 63)", ai, bi)))
	case ir.OpShr:
		if signed {
			emit(w(fmt.Sprintf("(%s) >> uint((%s) & 63)", ai, bi)))
		} else {
			emit(w(fmt.Sprintf("int64(uint64(%s) >> uint((%s) & 63))", ai, bi)))
		}
	case ir.OpEq:
		emit(fmt.Sprintf("(%s) == (%s)", ai, bi))
	case ir.OpNe:
		emit(fmt.Sprintf("(%s) != (%s)", ai, bi))
	case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		sym := map[string]string{ir.OpLt: "<", ir.OpLe: "<=", ir.OpGt: ">", ir.OpGe: ">="}[d.Op]
		emit(order(signed, ai, sym, bi))
	default:
		return fmt.Errorf("unsupported integer op %s", d.Op)
	}
	return nil
}

// order renders the comparison a sym b of two int64 payloads: as int64
// for signed kinds, as uint64 for unsigned ones (whose payloads are
// zero-extended, so a u64 with the top bit set orders above every
// other value).
func order(signed bool, a, sym, b string) string {
	if signed {
		return fmt.Sprintf("(%s) %s (%s)", a, sym, b)
	}
	return fmt.Sprintf("uint64(%s) %s uint64(%s)", a, sym, b)
}
