package native

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// The input-generation helpers mirror kernelc's optimizer differential
// exactly, so the native tier is held to the same ground truth as the
// interpreter tiers hold each other to.

func firstSupporting(reqs []isa.Family) *isa.Microarch {
	for _, m := range isa.Microarchs() {
		if m.Features.Has(reqs...) {
			return m
		}
	}
	return nil
}

func kernelArgs(t *testing.T, f *ir.Func, n, elems int, seed uint64) ([]vm.Value, []*vm.Buffer) {
	t.Helper()
	args, bufs, err := kernels.BuildArgs(f, n, elems, seed)
	if err != nil {
		t.Fatal(err)
	}
	return args, bufs
}

func sameValue(a, b vm.Value) bool { return a.Equal(b) }

// TestNativeDifferentialAllKernels is the native tier's acceptance
// gate: every registered kernel, at several sizes (including a non-multiple-of-width tail), must produce
// bit-identical results, memory contents, dynamic op counts, and error
// behavior through the plugin path.
func TestNativeDifferentialAllKernels(t *testing.T) {
	be := New()
	if err := be.Available(); err != nil {
		t.Skipf("native backend unavailable on this host: %v", err)
	}
	targets := kernels.Targets()
	if len(targets) < 18 {
		t.Fatalf("expected the full 18-kernel registry, got %d", len(targets))
	}
	for _, tgt := range targets {
		t.Run(tgt.Name, func(t *testing.T) {
			arch := firstSupporting(tgt.Requires)
			if arch == nil {
				t.Skipf("no microarchitecture supports %v", tgt.Requires)
			}
			f, err := tgt.Build(arch.Features)
			if err != nil {
				t.Fatal(err)
			}
			if err := Lowerable(f); err != nil {
				t.Fatalf("kernel is not native-lowerable: %v", err)
			}
			interp, err := kernelc.Compile(f)
			if err != nil {
				t.Fatal(err)
			}
			nat, err := be.Compile(f)
			if err != nil {
				t.Fatalf("native compile: %v", err)
			}
			square := strings.Contains(strings.ToLower(tgt.Name), "mmm")
			for _, n := range []int{8, 32, 33} {
				elems := n
				if square {
					elems = n * n
				}
				argsI, bufsI := kernelArgs(t, f, n, elems, 42)
				argsN, bufsN := kernelArgs(t, f, n, elems, 42)
				mI, mN := vm.NewMachine(arch), vm.NewMachine(arch)
				outI, errI := interp.Run(mI, argsI...)
				outN, errN := nat.Run(mN, argsN...)
				if (errI == nil) != (errN == nil) ||
					(errI != nil && errI.Error() != errN.Error()) {
					t.Fatalf("n=%d: error divergence:\nvm:     %v\nnative: %v", n, errI, errN)
				}
				if !sameValue(outI, outN) {
					t.Fatalf("n=%d: results diverge:\nvm:     %+v\nnative: %+v", n, outI, outN)
				}
				for i := range bufsI {
					if !bytes.Equal(bufsI[i].Data, bufsN[i].Data) {
						t.Fatalf("n=%d: buffer %d contents diverge", n, i)
					}
				}
				if !reflect.DeepEqual(mI.Counts, mN.Counts) {
					t.Fatalf("n=%d: dynamic op counts diverge:\nvm:     %v\nnative: %v",
						n, mI.Counts, mN.Counts)
				}
			}
		})
	}
}

// dirStore is a minimal ArtifactStore over a directory, standing in for
// core.DiskCache's blob sidecars.
type dirStore struct{ dir string }

func (s dirStore) path(key string) string { return filepath.Join(s.dir, key+".so") }

func (s dirStore) LoadBlob(key string) (string, bool) {
	p := s.path(key)
	if _, err := os.Stat(p); err != nil {
		return "", false
	}
	return p, true
}

func (s dirStore) StoreBlob(key string, data []byte) (string, error) {
	p := s.path(key)
	return p, os.WriteFile(p, data, 0o644)
}

// buildTestKernel stages a small kernel private to the cache tests.
// Reusing a registry kernel would collide with the differential suite:
// a plugin's identity is content-derived and can be loaded only once
// per process, so a rebuild of an already-loaded kernel from a fresh
// path would fail with "plugin already loaded".
func buildTestKernel(t *testing.T) (*ir.Func, *isa.Microarch) {
	t.Helper()
	archs := isa.Microarchs()
	if len(archs) == 0 {
		t.Skip("no microarchitectures registered")
	}
	arch := archs[0]
	k := dsl.NewKernel("cachekern", arch.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	b := k.ParamF32Ptr()
	s := k.ParamF32()
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		a.Set(i, a.At(i).Mul(s).Add(b.At(i)))
	})
	return k.F, arch
}

// TestNativeWarmCacheZeroBuilds pins the headline property: with a
// populated artifact store, a fresh backend (fresh process simulated by
// dropping the plugin memo) compiles without invoking the Go toolchain
// at all.
func TestNativeWarmCacheZeroBuilds(t *testing.T) {
	be := New()
	if err := be.Available(); err != nil {
		t.Skipf("native backend unavailable on this host: %v", err)
	}
	f, arch := buildTestKernel(t)
	store := dirStore{dir: t.TempDir()}
	be.Store = store
	if _, err := be.Compile(f); err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	if got := be.Counters()["build"]; got != 1 {
		t.Fatalf("cold compile ran %d builds, want 1", got)
	}

	// Simulate a new process: empty memo, new backend instance, same
	// store, and a go tool that cannot work — any build attempt fails.
	resetMemoForTest()
	warm := New()
	warm.Store = store
	warm.GoTool = filepath.Join(t.TempDir(), "no-such-go")
	exe, err := warm.Compile(f)
	if err != nil {
		t.Fatalf("warm compile hit the toolchain: %v", err)
	}
	if got := warm.Counters()["build"]; got != 0 {
		t.Fatalf("warm compile ran %d builds, want 0", got)
	}
	if got := warm.Counters()["loadhit"]; got != 1 {
		t.Fatalf("warm compile recorded %d load hits, want 1", got)
	}
	// And the loaded artifact actually runs.
	args, _ := kernelArgs(t, f, 8, 8, 1)
	if _, err := exe.Run(vm.NewMachine(arch), args...); err != nil {
		t.Fatalf("warm-loaded kernel run: %v", err)
	}
}

// TestNativeCorruptArtifact exercises the corrupt-blob path: a store
// entry that is not a loadable plugin is dropped (and counted), and the
// backend falls through to a rebuild — which this test forces to fail,
// so the caller sees a compile error and stays on the vm.
func TestNativeCorruptArtifact(t *testing.T) {
	be := New()
	if err := be.Available(); err != nil {
		t.Skipf("native backend unavailable on this host: %v", err)
	}
	f, _ := buildTestKernel(t)
	src, err := generate(f)
	if err != nil {
		t.Fatal(err)
	}
	key := contentKey(src)
	store := dirStore{dir: t.TempDir()}
	if _, err := store.StoreBlob(key, []byte("not a plugin")); err != nil {
		t.Fatal(err)
	}
	resetMemoForTest()
	bad := New()
	bad.Store = store
	bad.GoTool = filepath.Join(t.TempDir(), "no-such-go")
	if _, err := bad.Compile(f); err == nil {
		t.Fatal("compile succeeded through a corrupt blob and a broken toolchain")
	}
	if got := bad.Counters()["corrupt"]; got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
	if _, ok := store.LoadBlob(key); ok {
		t.Fatal("corrupt blob was not removed from the store")
	}
}

// TestNativeRunFallbackSignals pins the per-call fallback conditions:
// a machine with a cache simulator (or no machine) must route back to
// the interpreter via ErrFallback rather than running natively.
func TestNativeRunFallbackSignals(t *testing.T) {
	p := &program{name: "probe"}
	if _, err := p.Run(nil); !errors.Is(err, backend.ErrFallback) {
		t.Fatalf("nil machine: got %v, want ErrFallback", err)
	}
}
