package ir

import (
	"fmt"
)

// Graph accumulates staged definitions in SSA form. It owns symbol
// allocation, structural CSE over pure nodes, the block stack for staged
// control flow, the set of symbols marked mutable (the analog of the
// paper's reflectMutableSym, which lets a kernel write into one of its
// own array parameters), and declared pointer-alignment facts the static
// verifier consumes.
type Graph struct {
	nextID   int
	blocks   []*Block         // block stack; blocks[0] is the root
	cse      []map[string]Sym // one CSE scope per open block
	mutable  map[int]bool
	align    map[int]int  // pointer sym id → declared alignment in bytes
	defs     map[int]*Def // definition lookup by symbol id (whole graph)
	comments []string     // staged comment texts, indexed by Comment arg
}

// NewGraph creates an empty graph with an open root block.
func NewGraph() *Graph {
	g := &Graph{mutable: map[int]bool{}, align: map[int]int{}, defs: map[int]*Def{}}
	g.blocks = []*Block{{}}
	g.cse = []map[string]Sym{{}}
	return g
}

// Fresh allocates a fresh symbol of type t — the paper's fresh[Int].
func (g *Graph) Fresh(t Type) Sym {
	t.check()
	s := Sym{ID: g.nextID, Typ: t}
	g.nextID++
	return s
}

// Root returns the root block.
func (g *Graph) Root() *Block { return g.blocks[0] }

// cur returns the innermost open block.
func (g *Graph) cur() *Block { return g.blocks[len(g.blocks)-1] }

// MarkMutable marks a pointer symbol as mutable so stores through it are
// accepted — reflectMutableSym in the paper's SAXPY example (Figure 4).
func (g *Graph) MarkMutable(s Sym) Sym {
	if s.Typ.Kind != KindPtr {
		panic(fmt.Sprintf("ir: MarkMutable on non-pointer %v: %v", s, s.Typ))
	}
	g.mutable[s.ID] = true
	return s
}

// IsMutable reports whether stores through the pointer symbol are allowed.
func (g *Graph) IsMutable(s Sym) bool { return g.mutable[s.ID] }

// MarkAligned declares an alignment fact: the memory behind the pointer
// symbol is aligned to the given byte boundary (a power of two). Aligned
// load/store intrinsics through pointers without such a fact are flagged
// by the static verifier, mirroring the guaranteed-alignment contracts
// real runtimes get from aligned allocators.
func (g *Graph) MarkAligned(s Sym, bytes int) Sym {
	if s.Typ.Kind != KindPtr {
		panic(fmt.Sprintf("ir: MarkAligned on non-pointer %v: %v", s, s.Typ))
	}
	if bytes <= 0 || bytes&(bytes-1) != 0 {
		panic(fmt.Sprintf("ir: MarkAligned(%v, %d): alignment must be a positive power of two", s, bytes))
	}
	g.align[s.ID] = bytes
	return s
}

// Alignment returns the declared alignment of a pointer symbol in bytes,
// or 0 when no fact has been declared.
func (g *Graph) Alignment(s Sym) int { return g.align[s.ID] }

// Def returns the definition bound to a symbol, if any (parameters and
// block params have none).
func (g *Graph) Def(s Sym) (*Def, bool) {
	d, ok := g.defs[s.ID]
	return d, ok
}

// Emit appends a definition to the current block, after CSE for pure
// nodes, and returns the expression naming its result.
func (g *Graph) Emit(d *Def) Exp {
	d.Typ.check()
	if key, ok := d.cseKey(); ok {
		// Search enclosing scopes innermost-out: a pure node computed in
		// an outer block is still valid here.
		for i := len(g.cse) - 1; i >= 0; i-- {
			if s, hit := g.cse[i][key]; hit {
				return s
			}
		}
		s := g.Fresh(d.Typ)
		g.cse[len(g.cse)-1][key] = s
		g.defs[s.ID] = d
		g.cur().Nodes = append(g.cur().Nodes, &Node{Sym: s, Def: d})
		return s
	}
	s := g.Fresh(d.Typ)
	g.defs[s.ID] = d
	g.cur().Nodes = append(g.cur().Nodes, &Node{Sym: s, Def: d})
	return s
}

// EmitStmt emits a definition executed for effect only.
func (g *Graph) EmitStmt(d *Def) { g.Emit(d) }

// InBlock stages fn inside a fresh block with the given parameters and
// returns the block. The result expression is whatever fn returns (nil
// for statement blocks).
func (g *Graph) InBlock(params []Sym, fn func() Exp) *Block {
	b := &Block{Params: params}
	g.blocks = append(g.blocks, b)
	g.cse = append(g.cse, map[string]Sym{})
	defer func() {
		g.blocks = g.blocks[:len(g.blocks)-1]
		g.cse = g.cse[:len(g.cse)-1]
	}()
	b.Result = fn()
	return b
}

// --- staged control flow -------------------------------------------------

// Loop stages a counted loop: for (i = start; i < end; i += stride) body.
// This is the paper's forloop(start, end, fresh[Int], stride, body).
func (g *Graph) Loop(start, end, stride Exp, body func(i Sym)) {
	iv := g.Fresh(TI32)
	blk := g.InBlock([]Sym{iv}, func() Exp { body(iv); return nil })
	eff := blk.Effect()
	if eff.IsPure() {
		// A loop whose body is pure still participates in scheduling
		// order relative to nothing; keep it pure so DCE can drop it if
		// its results are unused. Loops are usually effectful.
		eff = PureEffect
	}
	g.EmitStmt(&Def{Op: OpLoop, Typ: TVoid, Args: []Exp{start, end, stride},
		Blocks: []*Block{blk}, Effect: eff})
}

// LoopAcc stages a counted loop carrying one accumulator value — the
// staged encoding of `var acc = init; for(...) acc = body(i, acc)`,
// which the paper's dot products write with a mutable staged variable
// (Section 4.1). The loop node's result is the accumulator's final
// value; the body block's params are [i, acc] and its Result is the
// next accumulator.
func (g *Graph) LoopAcc(start, end, stride, init Exp, body func(i, acc Sym) Exp) Exp {
	iv := g.Fresh(TI32)
	acc := g.Fresh(init.Type())
	blk := g.InBlock([]Sym{iv, acc}, func() Exp { return body(iv, acc) })
	if blk.Result == nil || blk.Result.Type() != init.Type() {
		panic("ir: LoopAcc body must return a value of the accumulator's type")
	}
	return g.Emit(&Def{Op: OpLoop, Typ: init.Type(),
		Args: []Exp{start, end, stride, init}, Blocks: []*Block{blk},
		Effect: blk.Effect()})
}

// If stages a conditional expression with a result of type t. Pass
// TVoid and nil results for a statement-level conditional.
func (g *Graph) If(cond Exp, t Type, then, els func() Exp) Exp {
	tb := g.InBlock(nil, then)
	eb := g.InBlock(nil, els)
	eff := tb.Effect().Union(eb.Effect())
	return g.Emit(&Def{Op: OpIf, Typ: t, Args: []Exp{cond},
		Blocks: []*Block{tb, eb}, Effect: eff})
}

// --- staged scalar operations ---------------------------------------------

func (g *Graph) binop(op string, t Type, a, b Exp) Exp {
	if folded, ok := foldBinop(op, t, a, b); ok {
		return folded
	}
	return g.Emit(&Def{Op: op, Typ: t, Args: []Exp{a, b}, Effect: PureEffect})
}

func sameType(op string, a, b Exp) Type {
	if a.Type() != b.Type() {
		panic(fmt.Sprintf("ir: %s operand types differ: %v vs %v", op, a.Type(), b.Type()))
	}
	return a.Type()
}

// Add stages a + b.
func (g *Graph) Add(a, b Exp) Exp { return g.binop(OpAdd, sameType(OpAdd, a, b), a, b) }

// Sub stages a - b.
func (g *Graph) Sub(a, b Exp) Exp { return g.binop(OpSub, sameType(OpSub, a, b), a, b) }

// Mul stages a * b.
func (g *Graph) Mul(a, b Exp) Exp { return g.binop(OpMul, sameType(OpMul, a, b), a, b) }

// Div stages a / b.
func (g *Graph) Div(a, b Exp) Exp { return g.binop(OpDiv, sameType(OpDiv, a, b), a, b) }

// Rem stages a % b (integers only).
func (g *Graph) Rem(a, b Exp) Exp { return g.binop(OpRem, sameType(OpRem, a, b), a, b) }

// Min stages min(a, b).
func (g *Graph) Min(a, b Exp) Exp { return g.binop(OpMin, sameType(OpMin, a, b), a, b) }

// Max stages max(a, b).
func (g *Graph) Max(a, b Exp) Exp { return g.binop(OpMax, sameType(OpMax, a, b), a, b) }

// Neg stages -a.
func (g *Graph) Neg(a Exp) Exp {
	return g.Emit(&Def{Op: OpNeg, Typ: a.Type(), Args: []Exp{a}, Effect: PureEffect})
}

// And stages a & b (or a && b for bools).
func (g *Graph) And(a, b Exp) Exp { return g.binop(OpAnd, sameType(OpAnd, a, b), a, b) }

// Or stages a | b.
func (g *Graph) Or(a, b Exp) Exp { return g.binop(OpOr, sameType(OpOr, a, b), a, b) }

// Xor stages a ^ b.
func (g *Graph) Xor(a, b Exp) Exp { return g.binop(OpXor, sameType(OpXor, a, b), a, b) }

// Not stages ^a (or !a for bools).
func (g *Graph) Not(a Exp) Exp {
	return g.Emit(&Def{Op: OpNot, Typ: a.Type(), Args: []Exp{a}, Effect: PureEffect})
}

// Shl stages a << b.
func (g *Graph) Shl(a, b Exp) Exp { return g.binop(OpShl, a.Type(), a, b) }

// Shr stages a >> b (arithmetic for signed types, logical for unsigned).
func (g *Graph) Shr(a, b Exp) Exp { return g.binop(OpShr, a.Type(), a, b) }

func (g *Graph) cmp(op string, a, b Exp) Exp {
	sameType(op, a, b)
	return g.binop(op, TBool, a, b)
}

// Eq stages a == b.
func (g *Graph) Eq(a, b Exp) Exp { return g.cmp(OpEq, a, b) }

// Ne stages a != b.
func (g *Graph) Ne(a, b Exp) Exp { return g.cmp(OpNe, a, b) }

// Lt stages a < b.
func (g *Graph) Lt(a, b Exp) Exp { return g.cmp(OpLt, a, b) }

// Le stages a <= b.
func (g *Graph) Le(a, b Exp) Exp { return g.cmp(OpLe, a, b) }

// Gt stages a > b.
func (g *Graph) Gt(a, b Exp) Exp { return g.cmp(OpGt, a, b) }

// Ge stages a >= b.
func (g *Graph) Ge(a, b Exp) Exp { return g.cmp(OpGe, a, b) }

// Conv stages a scalar conversion of a to type t.
func (g *Graph) Conv(a Exp, t Type) Exp {
	if a.Type() == t {
		return a
	}
	if c, ok := a.(Const); ok {
		return ConstOf(t, c.AsFloat())
	}
	return g.Emit(&Def{Op: OpConv, Typ: t, Args: []Exp{a}, Effect: PureEffect})
}

// Select stages cond ? a : b.
func (g *Graph) Select(cond, a, b Exp) Exp {
	t := sameType(OpSel, a, b)
	return g.Emit(&Def{Op: OpSel, Typ: t, Args: []Exp{cond, a, b}, Effect: PureEffect})
}

// --- staged memory operations ----------------------------------------------

func ptrSym(op string, ptr Exp) Sym {
	s, ok := ptr.(Sym)
	if !ok || s.Typ.Kind != KindPtr {
		panic(fmt.Sprintf("ir: %s through non-pointer expression %v", op, ptr))
	}
	return s
}

// ALoad stages ptr[idx].
func (g *Graph) ALoad(ptr, idx Exp) Exp {
	s := ptrSym(OpALoad, ptr)
	return g.Emit(&Def{Op: OpALoad, Typ: PrimType(s.Typ.Elem),
		Args: []Exp{ptr, idx}, Effect: ReadEffect(g.rootPtr(s))})
}

// AStore stages ptr[idx] = val. The pointer (or the pointer it was
// displaced from) must have been marked mutable.
func (g *Graph) AStore(ptr, idx, val Exp) {
	s := ptrSym(OpAStore, ptr)
	root := g.rootPtr(s)
	if !g.IsMutable(root) {
		panic(fmt.Sprintf("ir: store through immutable pointer %v (call MarkMutable first)", root))
	}
	g.EmitStmt(&Def{Op: OpAStore, Typ: TVoid, Args: []Exp{ptr, idx, val},
		Effect: WriteEffect(root)})
}

// PtrAdd stages pointer displacement ptr + idx (in elements) — the
// `a + i` arithmetic the variable-precision API uses (Section 4.1).
func (g *Graph) PtrAdd(ptr, idx Exp) Exp {
	s := ptrSym(OpPtrAdd, ptr)
	return g.Emit(&Def{Op: OpPtrAdd, Typ: s.Typ, Args: []Exp{ptr, idx},
		Effect: PureEffect})
}

// rootPtr chases ptradd chains back to the underlying array symbol so
// effects and mutability attach to the true object.
func (g *Graph) rootPtr(s Sym) Sym {
	for {
		d, ok := g.defs[s.ID]
		if !ok || d.Op != OpPtrAdd {
			return s
		}
		base, ok := d.Args[0].(Sym)
		if !ok {
			return s
		}
		s = base
	}
}

// RootPtr exposes pointer-root chasing for other passes (the kernel
// compiler and the effect scheduler need the same resolution).
func (g *Graph) RootPtr(s Sym) Sym { return g.rootPtr(s) }

// Comment stages a structured comment that survives into generated C.
// The text lives in a side table; the node's argument is its index.
func (g *Graph) Comment(text string) {
	idx := len(g.comments)
	g.comments = append(g.comments, text)
	g.EmitStmt(&Def{Op: OpComment, Typ: TVoid,
		Args: []Exp{Const{Typ: TI32, I: int64(idx)}}, Effect: GlobalEffect})
}

// CommentText returns the i-th staged comment.
func (g *Graph) CommentText(i int) string {
	if i < 0 || i >= len(g.comments) {
		return ""
	}
	return g.comments[i]
}

// NumNodes returns the total number of definitions emitted.
func (g *Graph) NumNodes() int { return len(g.defs) }

// --- constant folding -------------------------------------------------------

func foldBinop(op string, t Type, a, b Exp) (Exp, bool) {
	ca, aok := a.(Const)
	cb, bok := b.(Const)
	// Algebraic identities with one constant operand.
	if aok != bok {
		c, other := ca, b
		constLeft := aok
		if bok {
			c, other = cb, a
		}
		switch op {
		case OpAdd:
			if c.IsZero() {
				return other, true
			}
		case OpSub:
			if !constLeft && c.IsZero() {
				return other, true
			}
		case OpMul:
			if c.IsZero() && t.IsInteger() {
				return ConstOf(t, 0), true
			}
			if c.AsFloat() == 1 {
				return other, true
			}
		case OpShl, OpShr:
			if !constLeft && c.IsZero() {
				return other, true
			}
		}
		return nil, false
	}
	if !aok || !bok {
		return nil, false
	}
	fa, fb := ca.AsFloat(), cb.AsFloat()
	ia, ib := ca.AsInt(), cb.AsInt()
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpMin, OpMax:
		if t.IsFloat() {
			var v float64
			switch op {
			case OpAdd:
				v = fa + fb
			case OpSub:
				v = fa - fb
			case OpMul:
				v = fa * fb
			case OpDiv:
				v = fa / fb
			case OpMin:
				v = minF(fa, fb)
			case OpMax:
				v = maxF(fa, fb)
			default:
				return nil, false
			}
			return ConstOf(t, v), true
		}
		if t.IsInteger() {
			// Unsigned payloads divide and order as uint64, as at run time.
			ua, ub := uint64(ia), uint64(ib)
			unsigned := !t.IsSigned()
			var v int64
			switch op {
			case OpAdd:
				v = ia + ib
			case OpSub:
				v = ia - ib
			case OpMul:
				v = ia * ib
			case OpDiv, OpRem:
				switch {
				case ib == 0:
					return nil, false
				case unsigned && op == OpDiv:
					v = int64(ua / ub)
				case unsigned:
					v = int64(ua % ub)
				case op == OpDiv:
					v = ia / ib
				default:
					v = ia % ib
				}
			case OpMin:
				v = min(ia, ib)
				if unsigned {
					v = int64(min(ua, ub))
				}
			case OpMax:
				v = max(ia, ib)
				if unsigned {
					v = int64(max(ua, ub))
				}
			}
			return truncConst(t, v), true
		}
	case OpShl:
		if t.IsInteger() {
			return truncConst(t, ia<<uint(ib&63)), true
		}
	case OpShr:
		if t.IsInteger() {
			if t.IsSigned() {
				return truncConst(t, ia>>uint(ib&63)), true
			}
			return truncConst(t, int64(ca.U>>uint(ib&63))), true
		}
	case OpAnd, OpOr, OpXor:
		if t.Kind == KindBool {
			switch op {
			case OpAnd:
				return ConstBool(ca.B && cb.B), true
			case OpOr:
				return ConstBool(ca.B || cb.B), true
			case OpXor:
				return ConstBool(ca.B != cb.B), true
			}
		}
		if t.IsInteger() {
			var v int64
			switch op {
			case OpAnd:
				v = ia & ib
			case OpOr:
				v = ia | ib
			case OpXor:
				v = ia ^ ib
			}
			return truncConst(t, v), true
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		var v bool
		switch op {
		case OpEq:
			v = fa == fb
		case OpNe:
			v = fa != fb
		case OpLt:
			v = fa < fb
		case OpLe:
			v = fa <= fb
		case OpGt:
			v = fa > fb
		case OpGe:
			v = fa >= fb
		}
		return ConstBool(v), true
	}
	return nil, false
}

// truncConst wraps an int64 into a constant of integer type t with the
// type's wrap-around semantics.
func truncConst(t Type, v int64) Const {
	c := Const{Typ: t}
	switch t.Kind {
	case KindI8:
		c.I = int64(int8(v))
	case KindI16:
		c.I = int64(int16(v))
	case KindI32:
		c.I = int64(int32(v))
	case KindI64:
		c.I = v
	case KindU8:
		c.U = uint64(uint8(v))
	case KindU16:
		c.U = uint64(uint16(v))
	case KindU32:
		c.U = uint64(uint32(v))
	case KindU64:
		c.U = uint64(v)
	}
	return c
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Func is a staged function: named parameters plus the root block of its
// graph. It is what the compile pipeline consumes.
type Func struct {
	Name   string
	Params []Sym
	G      *Graph
}

// NewFunc allocates a staged function with parameters of the given types.
func NewFunc(name string, paramTypes ...Type) *Func {
	g := NewGraph()
	f := &Func{Name: name, G: g}
	for _, t := range paramTypes {
		f.Params = append(f.Params, g.Fresh(t))
	}
	return f
}

// Param returns the i-th parameter symbol.
func (f *Func) Param(i int) Sym { return f.Params[i] }

// Arrays returns the pointer-typed parameters, in order. The runtime
// binds these to caller arrays at invocation (the JNI array-pinning
// analog).
func (f *Func) Arrays() []Sym {
	var out []Sym
	for _, p := range f.Params {
		if p.Typ.Kind == KindPtr {
			out = append(out, p)
		}
	}
	return out
}
