package backend

import (
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/isa"
	"repro/internal/vm"
)

// TestLookupInterpAliases: the interpreter backend is always present
// under both its canonical name and the empty default.
func TestLookupInterpAliases(t *testing.T) {
	for _, name := range []string{"", "vm"} {
		be, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if be.Name() != "vm" {
			t.Fatalf("Lookup(%q).Name() = %q", name, be.Name())
		}
		if err := be.Available(); err != nil {
			t.Fatalf("interpreter unavailable: %v", err)
		}
	}
	if _, err := Lookup("no-such-backend"); err == nil ||
		!strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend lookup: %v", err)
	}
}

// TestRegistryNamesAndDuplicates: registered names list "vm" first then
// sorted, and re-registering a name panics (programming error).
func TestRegistryNamesAndDuplicates(t *testing.T) {
	Register("ztest", func() Backend { return Interp{} })
	Register("atest", func() Backend { return Interp{} })
	names := Names()
	if names[0] != "vm" {
		t.Fatalf("Names()[0] = %q, want vm", names[0])
	}
	ai, zi := -1, -1
	for i, n := range names {
		switch n {
		case "atest":
			ai = i
		case "ztest":
			zi = i
		}
	}
	if ai < 0 || zi < 0 || ai > zi {
		t.Fatalf("registered names missing or unsorted: %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("ztest", func() Backend { return Interp{} })
}

// TestInterpCompileRuns: the interpreter adapter lowers and executes a
// staged kernel through the Backend interface.
func TestInterpCompileRuns(t *testing.T) {
	k := dsl.NewKernel("bump", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamI32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		a.Set(i, a.At(i).Add(k.ConstInt(1)))
	})
	exe, err := Interp{}.Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	buf := vm.NewBuffer(isa.PrimI32, 4)
	m := vm.NewMachine(isa.Haswell)
	if _, err := exe.Run(m, vm.PtrValue(buf, 0), vm.IntValue(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if buf.IntAt(i) != 1 {
			t.Fatalf("a[%d] = %d, want 1", i, buf.IntAt(i))
		}
	}
}
