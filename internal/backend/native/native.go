// Package native is the plugin-compiled execution backend: it
// specializes a staged SIMD graph into standalone Go source (the lane
// loops monomorphized, the interpreter's dispatch gone), builds it with
// the real Go toolchain as -buildmode=plugin, loads it in-process, and
// memoizes the built artifact in the compile cache so warm runs pay
// zero build cost. This is the reproduction's analogue of the paper's
// LMS→C→JNI pipeline, using Go's own native toolchain in place of icc.
//
// Semantics are bit-identical to the vm interpreter at every tier:
// results, memory writes, dynamic op counts, and error text all match
// (gated by the 18-kernel differential suite). Calls the plugin cannot
// serve faithfully — a machine with a cache simulator attached needs
// the interpreter's per-access Touch stream — return
// backend.ErrFallback and are transparently re-run on the vm.
package native

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/cgen"
	"repro/internal/ir"
	"repro/internal/vm"
)

func init() {
	backend.Register("native", func() backend.Backend { return New() })
}

// Backend builds and runs native plugin kernels. The zero value is
// usable; New is the conventional constructor. Not a singleton: each
// instance carries its own counters, but the loaded-plugin memo is
// process-wide (plugins cannot be unloaded).
type Backend struct {
	// Store persists built artifacts across processes (the compile
	// cache's blob sidecars). Nil means build-per-process.
	Store backend.ArtifactStore
	// GoTool overrides the go binary used for plugin builds. Empty
	// means auto-detect via cgen.FindGo. Tests point this at a
	// nonexistent file to force the build path to fail.
	GoTool string

	build   atomic.Int64 // plugin builds actually run
	loadhit atomic.Int64 // compiles served without a build (memo or blob)
	corrupt atomic.Int64 // artifacts that failed to load and were dropped
}

// New returns a backend with no artifact store attached.
func New() *Backend { return &Backend{} }

// SetStore attaches an artifact store (backend.StoreAware); the runtime
// points this at its disk cache so plugin objects survive the process.
func (b *Backend) SetStore(s backend.ArtifactStore) { b.Store = s }

// Name identifies the backend in cache keys and obs counters.
func (b *Backend) Name() string { return "native" }

// Counters exposes build/load statistics for obs gauge publication
// (core.PublishMetrics picks this up via an optional interface).
func (b *Backend) Counters() map[string]int64 {
	return map[string]int64{
		"build":   b.build.Load(),
		"loadhit": b.loadhit.Load(),
		"corrupt": b.corrupt.Load(),
	}
}

// Available reports whether this host can build and load plugins.
func (b *Backend) Available() error {
	if raceEnabled {
		return errors.New("native: race-instrumented hosts cannot load plugins")
	}
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd":
	default:
		return fmt.Errorf("native: -buildmode=plugin is unsupported on %s", runtime.GOOS)
	}
	if _, err := b.tool(); err != nil {
		return err
	}
	return nil
}

func (b *Backend) tool() (string, error) {
	if b.GoTool != "" {
		return b.GoTool, nil
	}
	return cgen.FindGo()
}

// Compile lowers the function to plugin code.
func (b *Backend) Compile(f *ir.Func) (backend.Executable, error) {
	src, err := generate(f)
	if err != nil {
		return nil, err
	}
	fn, err := b.resolve(contentKey(src), src)
	if err != nil {
		return nil, err
	}
	resKind := ir.KindVoid
	if r := f.G.Root().Result; r != nil {
		resKind = r.Type().Kind
	}
	return &program{fn: fn, name: f.Name, params: f.Params, resKind: resKind}, nil
}

// CompileCached serves a compile only when the plugin is already built:
// process memo first, then the artifact store. It never invokes the Go
// toolchain, so the execution planner can call it from inside a
// measured run to see whether the native strategy is admissible without
// perturbing timings. Lowering to source still happens (it is the
// content key), but that is pure computation with no I/O.
func (b *Backend) CompileCached(f *ir.Func) (backend.Executable, bool) {
	if b.Available() != nil {
		return nil, false
	}
	src, err := generate(f)
	if err != nil {
		return nil, false
	}
	key := contentKey(src)
	memoMu.Lock()
	fn, ok := memo[key]
	if !ok && b.Store != nil {
		if path, have := b.Store.LoadBlob(key); have {
			if loaded, lerr := openPlugin(path); lerr == nil {
				fn, ok = loaded, true
				memo[key] = fn
			}
		}
	}
	if ok {
		b.loadhit.Add(1)
	}
	memoMu.Unlock()
	if !ok {
		return nil, false
	}
	resKind := ir.KindVoid
	if r := f.G.Root().Result; r != nil {
		resKind = r.Type().Kind
	}
	return &program{fn: fn, name: f.Name, params: f.Params, resKind: resKind}, true
}

// resolve turns a content key into a callable entry point: process memo
// first, then the artifact store, then a real build. Single-flight
// under memoMu — concurrent builds of the same key from different temp
// paths would trip Go's "plugin already loaded" check.
func (b *Backend) resolve(key, src string) (runFn, error) {
	memoMu.Lock()
	defer memoMu.Unlock()
	if fn, ok := memo[key]; ok {
		b.loadhit.Add(1)
		return fn, nil
	}
	if b.Store != nil {
		if path, ok := b.Store.LoadBlob(key); ok {
			fn, err := openPlugin(path)
			if err == nil {
				b.loadhit.Add(1)
				memo[key] = fn
				return fn, nil
			}
			// Corrupt or stale artifact: drop it and rebuild below.
			os.Remove(path)
			b.corrupt.Add(1)
		}
	}
	tool, err := b.tool()
	if err != nil {
		return nil, err
	}
	data, err := buildPlugin(tool, src, key)
	if err != nil {
		return nil, err
	}
	b.build.Add(1)
	var path string
	if b.Store != nil {
		if path, err = b.Store.StoreBlob(key, data); err != nil {
			return nil, err
		}
	} else {
		// No store: park the object in a temp dir for the process
		// lifetime (it cannot be deleted while mapped anyway).
		dir, err := os.MkdirTemp("", "ngen-native-run-")
		if err != nil {
			return nil, err
		}
		path = filepath.Join(dir, key+".so")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
	}
	fn, err := openPlugin(path)
	if err != nil {
		return nil, err
	}
	memo[key] = fn
	return fn, nil
}

// program is one compiled kernel: the host-side wrapper that marshals
// vm.Values across the plugin ABI and reconstructs the interpreter's
// exact observable behavior.
type program struct {
	fn      runFn
	name    string
	params  []ir.Sym
	resKind ir.Kind
}

// Run executes the plugin. Calls it cannot serve identically to the
// interpreter return backend.ErrFallback; genuine kernel faults come
// back with the interpreter's error text.
func (p *program) Run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	if m == nil || m.Cache != nil {
		// The cache simulator consumes the interpreter's per-access
		// Touch stream, which compiled code does not emit.
		return vm.Value{}, backend.ErrFallback
	}
	if len(args) != len(p.params) {
		return vm.Value{}, fmt.Errorf("kernelc: %s: got %d arguments, want %d", p.name, len(args), len(p.params))
	}
	flat := make([]any, 0, len(p.params)+2)
	for i, prm := range p.params {
		a := args[i]
		if prm.Typ.Kind == ir.KindPtr {
			if a.Mem == nil || a.Mem.Prim != prm.Typ.Elem {
				return vm.Value{}, backend.ErrFallback
			}
			flat = append(flat, a.Mem.Data, int64(a.Off))
			continue
		}
		if a.Kind != prm.Typ.Kind {
			return vm.Value{}, backend.ErrFallback
		}
		switch prm.Typ.Kind {
		case ir.KindBool:
			flat = append(flat, a.B)
		case ir.KindF32, ir.KindF64:
			flat = append(flat, a.F)
		case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
			flat = append(flat, a.U)
		default:
			flat = append(flat, a.I)
		}
	}
	res, cnts, err := p.fn(flat)
	// Partial counts are merged even on error, exactly like the
	// interpreter's already-flushed loop counts on a mid-kernel fault.
	m.Counts.Merge(vm.Counter(cnts))
	if err != nil {
		return vm.Value{}, fmt.Errorf("kernelc: %s: %w", p.name, err)
	}
	switch p.resKind {
	case ir.KindVoid:
		return vm.Value{}, nil
	case ir.KindBool:
		return vm.Value{Kind: ir.KindBool, B: res.(bool)}, nil
	case ir.KindF32, ir.KindF64:
		return vm.Value{Kind: p.resKind, F: res.(float64)}, nil
	case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
		return vm.Value{Kind: p.resKind, U: res.(uint64)}, nil
	default:
		return vm.Value{Kind: p.resKind, I: res.(int64)}, nil
	}
}
