package ir

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestCSEDeduplicatesPureNodes(t *testing.T) {
	f := NewFunc("cse", TI32, TI32)
	a, b := f.Param(0), f.Param(1)
	x := f.G.Add(a, b)
	y := f.G.Add(a, b)
	if x != y {
		t.Errorf("identical pure nodes not CSE'd: %v vs %v", x, y)
	}
	z := f.G.Add(b, a)
	if z == x {
		t.Errorf("add(b,a) wrongly CSE'd with add(a,b) (no commutativity assumed)")
	}
}

func TestCSEAcrossScopesButNotEffects(t *testing.T) {
	f := NewFunc("scopes", PtrType(isa.PrimF32), TI32)
	p := f.Param(0)
	outer := f.G.Add(f.Param(1), ConstInt(1))
	var inner Exp
	f.G.Loop(ConstInt(0), ConstInt(4), ConstInt(1), func(i Sym) {
		inner = f.G.Add(f.Param(1), ConstInt(1))
		_ = f.G.ALoad(p, i)
	})
	if inner != outer {
		t.Errorf("pure node in loop body should reuse outer definition")
	}
	// Loads are effectful: two identical loads must be distinct nodes.
	l1 := f.G.ALoad(p, ConstInt(0))
	l2 := f.G.ALoad(p, ConstInt(0))
	if l1 == l2 {
		t.Errorf("effectful loads were CSE'd")
	}
}

func TestConstantFolding(t *testing.T) {
	g := NewGraph()
	cases := []struct {
		got  Exp
		want Const
	}{
		{g.Add(ConstInt(2), ConstInt(3)), ConstInt(5)},
		{g.Mul(ConstF64(1.5), ConstF64(4)), ConstF64(6)},
		{g.Sub(ConstInt(2), ConstInt(5)), ConstInt(-3)},
		{g.Div(ConstInt(7), ConstInt(2)), ConstInt(3)},
		{g.Rem(ConstInt(7), ConstInt(2)), ConstInt(1)},
		{g.Shl(ConstInt(1), ConstInt(10)), ConstInt(1024)},
		{g.Lt(ConstInt(1), ConstInt(2)), ConstBool(true)},
		{g.Min(ConstF32(2), ConstF32(-1)), ConstF32(-1)},
		{g.And(Const{Typ: TU8, U: 0xF0}, Const{Typ: TU8, U: 0x3C}), Const{Typ: TU8, U: 0x30}},
	}
	for i, c := range cases {
		got, ok := c.got.(Const)
		if !ok {
			t.Errorf("case %d: not folded: %v", i, c.got)
			continue
		}
		if got != c.want {
			t.Errorf("case %d: folded to %#v, want %#v", i, got, c.want)
		}
	}
	if g.NumNodes() != 0 {
		t.Errorf("constant folding emitted %d graph nodes", g.NumNodes())
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	f := NewFunc("ident", TI32, TF64)
	a := f.Param(0)
	x := f.Param(1)
	if got := f.G.Add(a, ConstInt(0)); got != Exp(a) {
		t.Errorf("a+0 = %v, want a", got)
	}
	if got := f.G.Mul(x, ConstF64(1)); got != Exp(x) {
		t.Errorf("x*1 = %v, want x", got)
	}
	if got := f.G.Mul(a, ConstInt(0)); got != Exp(ConstInt(0)) {
		t.Errorf("a*0 = %v, want 0", got)
	}
	// 0.0*x must NOT fold (NaN/Inf semantics).
	if _, isConst := f.G.Mul(x, ConstF64(0)).(Const); isConst {
		t.Error("float multiplication by zero must not fold to 0")
	}
	if got := f.G.Sub(a, ConstInt(0)); got != Exp(a) {
		t.Errorf("a-0 = %v, want a", got)
	}
	if _, isParam := f.G.Sub(ConstInt(0), a).(Sym); !isParam {
		t.Error("0-a must stage a real subtraction")
	}
}

func TestFoldWrapAround(t *testing.T) {
	g := NewGraph()
	got := g.Add(Const{Typ: TI8, I: 120}, Const{Typ: TI8, I: 10})
	want := Const{Typ: TI8, I: -126}
	if got != Exp(want) {
		t.Errorf("i8 overflow folded to %v, want %v", got, want)
	}
	gu := g.Add(Const{Typ: TU8, U: 250}, Const{Typ: TU8, U: 10})
	wantu := Const{Typ: TU8, U: 4}
	if gu != Exp(wantu) {
		t.Errorf("u8 overflow folded to %v, want %v", gu, wantu)
	}
	// A u64 with the top bit set is large, not negative.
	big, small := ConstU64(^uint64(0)), ConstU64(3)
	for _, c := range []struct {
		op   string
		got  Exp
		want uint64
	}{
		{OpMin, g.Min(big, small), 3},
		{OpMax, g.Max(big, small), ^uint64(0)},
		{OpDiv, g.Div(big, small), ^uint64(0) / 3},
		{OpRem, g.Rem(big, ConstU64(7)), ^uint64(0) % 7},
	} {
		if c.got != Exp(ConstU64(c.want)) {
			t.Errorf("u64 %s folded to %v, want %#x", c.op, c.got, c.want)
		}
	}
}

func TestDCEDropsUnusedPureKeepsStores(t *testing.T) {
	f := NewFunc("dce", PtrType(isa.PrimF32), TF32)
	p := f.G.MarkMutable(f.Param(0))
	_ = f.G.Mul(f.Param(1), f.Param(1)) // dead pure node
	v := f.G.Add(f.Param(1), ConstF32(1))
	f.G.AStore(p, ConstInt(0), v)
	s := Schedule(f)
	ops := s.CountOps()
	if ops[OpMul] != 0 {
		t.Errorf("dead multiply survived scheduling")
	}
	if ops[OpAStore] != 1 {
		t.Errorf("store was dropped: %v", ops)
	}
	if ops[OpAdd] != 1 {
		t.Errorf("live add missing: %v", ops)
	}
}

func TestStoreThroughImmutablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("store through immutable pointer did not panic")
		}
	}()
	f := NewFunc("immut", PtrType(isa.PrimF32))
	f.G.AStore(f.Param(0), ConstInt(0), ConstF32(1))
}

func TestPtrAddRootsMutability(t *testing.T) {
	f := NewFunc("ptradd", PtrType(isa.PrimF32), TI32)
	p := f.G.MarkMutable(f.Param(0))
	q := f.G.PtrAdd(p, f.Param(1))
	r := f.G.PtrAdd(q, ConstInt(8))
	f.G.AStore(r, ConstInt(0), ConstF32(2)) // must not panic
	rs, ok := r.(Sym)
	if !ok {
		t.Fatalf("ptradd result is %T", r)
	}
	if root := f.G.RootPtr(rs); root != p {
		t.Errorf("root of chained ptradd = %v, want %v", root, p)
	}
}

func TestLoopSchedulingKeepsEffectfulBody(t *testing.T) {
	f := NewFunc("loop", PtrType(isa.PrimF32), PtrType(isa.PrimF32), TI32)
	a := f.G.MarkMutable(f.Param(0))
	b := f.Param(1)
	n := f.Param(2)
	f.G.Loop(ConstInt(0), n, ConstInt(1), func(i Sym) {
		av := f.G.ALoad(a, i)
		bv := f.G.ALoad(b, i)
		f.G.AStore(a, i, f.G.Add(av, bv))
	})
	s := Schedule(f)
	ops := s.CountOps()
	if ops[OpLoop] != 1 || ops[OpALoad] != 2 || ops[OpAStore] != 1 || ops[OpAdd] != 1 {
		t.Errorf("scheduled ops = %v", ops)
	}
	// The loop body must report its free variables: the two arrays.
	root := f.G.Root()
	var loopBlk *Block
	for _, node := range s.Keep[root] {
		if node.Def.Op == OpLoop {
			loopBlk = node.Def.Blocks[0]
		}
	}
	free := s.Free[loopBlk]
	if len(free) != 2 {
		t.Errorf("loop free vars = %v, want the two array params", free)
	}
}

func TestIfExpression(t *testing.T) {
	f := NewFunc("sel", TI32)
	a := f.Param(0)
	r := f.G.If(f.G.Lt(a, ConstInt(0)), TI32,
		func() Exp { return f.G.Neg(a) },
		func() Exp { return a })
	f.G.Root().Result = r
	s := Schedule(f)
	if s.CountOps()[OpIf] != 1 {
		t.Fatalf("if node missing: %v", s.CountOps())
	}
	if s.CountOps()[OpNeg] != 1 {
		t.Fatalf("then-branch body missing: %v", s.CountOps())
	}
}

func TestTransformerSubstitution(t *testing.T) {
	f := NewFunc("subst", TF32, TF32)
	sum := f.G.Add(f.Param(0), f.Param(1))
	f.G.Root().Result = f.G.Mul(sum, sum)

	tr := NewTransformer()
	tr.Subst(f.Param(1), ConstF32(3))
	nf := tr.Mirror(f)
	// After substituting b=3, the new function must still compute
	// (a+3)*(a+3) with the add CSE'd once.
	s := Schedule(nf)
	ops := s.CountOps()
	if ops[OpAdd] != 1 || ops[OpMul] != 1 {
		t.Errorf("mirrored ops = %v, want 1 add + 1 mul", ops)
	}
}

func TestTransformerRewriteHook(t *testing.T) {
	f := NewFunc("rewrite", TF32, TF32)
	f.G.Root().Result = f.G.Mul(f.Param(0), f.Param(1))
	tr := NewTransformer()
	tr.Rewrite = func(dst *Graph, d *Def) (Exp, bool) {
		if d.Op == OpMul {
			return dst.Add(d.Args[0], d.Args[1]), true
		}
		return nil, false
	}
	nf := tr.Mirror(f)
	ops := Schedule(nf).CountOps()
	if ops[OpMul] != 0 || ops[OpAdd] != 1 {
		t.Errorf("rewrite hook not applied: %v", ops)
	}
}

func TestTransformerMirrorsLoops(t *testing.T) {
	f := NewFunc("mloop", PtrType(isa.PrimF32), TI32)
	p := f.G.MarkMutable(f.Param(0))
	f.G.Loop(ConstInt(0), f.Param(1), ConstInt(1), func(i Sym) {
		f.G.AStore(p, i, ConstF32(1))
	})
	nf := NewTransformer().Mirror(f)
	ops := Schedule(nf).CountOps()
	if ops[OpLoop] != 1 || ops[OpAStore] != 1 {
		t.Errorf("mirrored loop ops = %v", ops)
	}
	// Mutability must carry over: staging another store must not panic.
	np := nf.Params[0]
	if !nf.G.IsMutable(np) {
		t.Error("mutability not preserved by mirror")
	}
}

func TestDumpContainsStructure(t *testing.T) {
	f := NewFunc("saxpyish", PtrType(isa.PrimF32), PtrType(isa.PrimF32), TF32, TI32)
	a := f.G.MarkMutable(f.Param(0))
	b, s, n := f.Param(1), f.Param(2), f.Param(3)
	f.G.Comment("scalar tail loop")
	f.G.Loop(ConstInt(0), n, ConstInt(1), func(i Sym) {
		f.G.AStore(a, i, f.G.Add(f.G.ALoad(a, i), f.G.Mul(f.G.ALoad(b, i), s)))
	})
	text := Dump(f)
	for _, want := range []string{"def saxpyish", "for ", "astore", "// scalar tail loop"} {
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %q:\n%s", want, text)
		}
	}
}

func TestTypeTable(t *testing.T) {
	if TM256d.CName() != "__m256d" {
		t.Errorf("TM256d = %s", TM256d.CName())
	}
	if PtrType(isa.PrimF32).CName() != "float*" {
		t.Errorf("float ptr = %s", PtrType(isa.PrimF32).CName())
	}
	if !TI32.IsSigned() || TU32.IsSigned() || !TU32.IsInteger() || !TF32.IsFloat() {
		t.Error("scalar predicates broken")
	}
	if TM512.Bits() != 512 || TI16.Bits() != 16 {
		t.Error("bit widths broken")
	}
}

func TestQuickFoldMatchesGo(t *testing.T) {
	// Property: integer constant folding agrees with Go's int32
	// arithmetic for every op where both are defined.
	err := quick.Check(func(a, b int32) bool {
		g := NewGraph()
		ca, cb := Const{Typ: TI32, I: int64(a)}, Const{Typ: TI32, I: int64(b)}
		add := g.Add(ca, cb).(Const)
		sub := g.Sub(ca, cb).(Const)
		mul := g.Mul(ca, cb).(Const)
		ok := add.I == int64(a+b) && sub.I == int64(a-b) && mul.I == int64(a*b)
		if b != 0 {
			div := g.Div(ca, cb).(Const)
			ok = ok && div.I == int64(a/b)
		}
		return ok
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickCSEStable(t *testing.T) {
	// Property: emitting the same pure expression tree twice never grows
	// the graph the second time.
	err := quick.Check(func(vals []int8) bool {
		f := NewFunc("q", TI32)
		build := func() Exp {
			acc := Exp(f.Param(0))
			for _, v := range vals {
				acc = f.G.Add(acc, f.G.Mul(ConstInt(int(v)), f.Param(0)))
			}
			return acc
		}
		x := build()
		n := f.G.NumNodes()
		y := build()
		return x == y && f.G.NumNodes() == n
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
