package conform

import (
	"testing"

	"repro/internal/irverify"
	"repro/internal/isa"
)

// FuzzConformGen fuzzes the suite seed: every seed must produce a
// grammar-valid case stream whose verdicts are all clean — the
// verifier classifies every mutant as its class predicts and the vm
// configs agree with the scalar oracle bit for bit. The native leg stays
// off here (plugin builds are far too slow for a fuzz loop); the
// corpus and TestRunSeed1 cover it.
func FuzzConformGen(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(2))
	f.Add(uint64(0))
	f.Add(uint64(0xFFFFFFFFFFFFFFFF))
	f.Add(uint64(0x9E3779B97F4A7C15))
	f.Fuzz(func(t *testing.T, seed uint64) {
		rep, err := Run(Options{Seed: seed, Count: 6, NativeEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		assertCleanF(t, rep)
	})
}

// FuzzConformReplay fuzzes the recipe space directly (not just the
// seed stream): arbitrary field values must either be rejected
// in-grammar (a build error is fine) or produce clean verdicts — never
// a divergence, panic, or unsound accept.
func FuzzConformReplay(f *testing.F) {
	f.Add(256, false, 3, 20, 1, true, true, "")
	f.Add(128, true, 1, 9, 2, false, false, "align")
	f.Add(256, false, 2, 16, 2, true, false, "deadstore")
	f.Add(128, false, 4, 5, 1, false, true, "dead")
	f.Fuzz(func(t *testing.T, width int, f64 bool, nops, n, stride int, tail, reduce bool, defect string) {
		rec, ok := recipeFromFuzz(width, f64, nops, n, stride, tail, reduce, defect)
		if !ok {
			t.Skip()
		}
		rep, err := Replay(Options{Seed: 1, NativeEvery: -1}, []Recipe{rec})
		if err != nil {
			t.Fatal(err)
		}
		// Build errors surface as genfail — out-of-grammar inputs are
		// allowed to fail that way, but never to diverge or crash.
		for _, fl := range rep.Failures {
			if fl.Kind == KindDiverged || fl.Kind == KindUnsound ||
				fl.Kind == KindMissed || fl.Kind == KindMisclassified {
				t.Fatalf("%s: %s (%s)", fl.Kind, fl.Detail, fl.Recipe.String())
			}
		}
	})
}

// recipeFromFuzz clamps raw fuzz inputs into the generator's grammar,
// mirroring genRecipe's invariants (ISA mutants need 256-bit ops,
// arity/type mutants pin the last op, error classes drop the satellite
// loops, reductions are f32-only). Inputs that cannot be made
// in-grammar are rejected rather than coerced arbitrarily.
func recipeFromFuzz(width int, f64 bool, nops, n, stride int, tail, reduce bool, defect string) (Recipe, bool) {
	rec := Recipe{Case: 1, Width: 128, Prim: isa.PrimF32, Stride: 1}
	if width == 256 {
		rec.Width = 256
	} else if width != 128 {
		return rec, false
	}
	if f64 {
		rec.Prim = isa.PrimF64
	}
	if defect != "" {
		if _, ok := expectations[defect]; !ok {
			return rec, false
		}
		rec.Defect = defect
	}
	if rec.Defect == DefectISA {
		rec.Width = 256
	}
	if stride == 2 {
		rec.Stride = 2
	}
	lanes := rec.lanes()
	if n < 1 || n > 64 {
		return rec, false
	}
	rec.N = lanes + n // always at least one full vector iteration
	rec.Tail = tail
	rec.Reduce = reduce && rec.Prim == isa.PrimF32

	pool := stemsFor(rec.Width, rec.Prim, isa.Haswell.Features, irverify.SpecIndex())
	if len(pool) == 0 || nops < 1 || nops > 4 {
		return rec, false
	}
	for i := 0; i < nops; i++ {
		rec.Ops = append(rec.Ops, pool[i%len(pool)].name)
	}
	switch rec.Defect {
	case DefectArity, DefectType:
		rec.Ops[len(rec.Ops)-1] = "add"
	case DefectEffect, DefectImmutable, DefectISA:
		rec.Tail, rec.Reduce = false, false
	}
	return rec, true
}

func assertCleanF(t *testing.T, rep *Report) {
	t.Helper()
	for _, fl := range rep.Failures {
		t.Errorf("%s: %s (%s)", fl.Kind, fl.Detail, fl.Recipe.String())
	}
}
