// Package backend defines the pluggable execution-backend seam between
// the staged-graph compiler and whatever actually runs a kernel. The
// paper's pipeline lowers a staged SIMD graph to C, compiles it with a
// native toolchain and calls it through JNI; our reproduction has so
// far substituted a single software interpreter (internal/vm driven by
// internal/kernelc). A Backend abstracts that choice: the interpreter
// is the first implementation, and backend/native adds a true
// native tier that specializes the graph into standalone Go source,
// builds it as a plugin, and executes it in-process. Future NEON/RVV/
// GPU backends register here as well.
//
// Layering: core imports backend (never a concrete backend); the CLI
// constructs concrete backends and hands them to core.Runtime. A
// Backend must never import core.
package backend

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/kernelc"
	"repro/internal/vm"
)

// ErrFallback is returned by an Executable's Run when this particular
// invocation cannot be served natively (for example, the machine has a
// cache simulator attached and needs the interpreter's per-access
// stream). The caller must transparently re-run the call on the vm
// interpreter; ErrFallback is a routing signal, not a failure.
var ErrFallback = errors.New("backend: fall back to vm interpreter")

// Executable is one compiled kernel ready to run. Implementations must
// be safe for concurrent Run calls and must preserve the interpreter's
// observable semantics bit-for-bit: results, memory writes, dynamic op
// counts, and error text.
type Executable interface {
	Run(m *vm.Machine, args ...vm.Value) (vm.Value, error)
}

// Backend turns a staged function into an Executable.
type Backend interface {
	// Name labels the backend in cache keys, obs counters, and span
	// attributes; it must be stable across processes (it keys the disk
	// cache) and unique among registered backends.
	Name() string
	// Available reports whether the backend can run on this host; the
	// returned error explains why not (missing toolchain, unsupported
	// OS, race-instrumented host, ...). Callers use it to decide
	// whether to fall back before paying a Compile.
	Available() error
	// Compile lowers the function. A non-nil error means the kernel
	// stays on the vm interpreter; the error text is the human-readable
	// reason (surfaced by ngen vet's native-lowerable pass and the
	// runtime's fallback report).
	Compile(f *ir.Func) (Executable, error)
}

// CachedCompiler is implemented by backends that can distinguish a
// cheap compile (artifact already in the process memo or artifact
// store) from an expensive one (a real toolchain build). The execution
// planner uses it to admit a backend as a candidate strategy without
// ever paying a build inside a measured run: CompileCached returns
// (exe, true) only when the artifact was already on hand, and
// (nil, false) — with no side effects beyond a load attempt — when a
// full Compile would have to build.
type CachedCompiler interface {
	CompileCached(f *ir.Func) (Executable, bool)
}

// ArtifactStore persists backend build products (for example native
// plugin objects) between processes. core.DiskCache satisfies it with
// blob sidecars next to its JSON entries.
type ArtifactStore interface {
	// LoadBlob returns the canonical on-disk path of the blob for key,
	// if present.
	LoadBlob(key string) (path string, ok bool)
	// StoreBlob writes data under key and returns its canonical path.
	StoreBlob(key string, data []byte) (path string, err error)
}

// StoreAware is implemented by backends that can persist artifacts in
// an ArtifactStore; the runtime attaches its disk cache through it.
type StoreAware interface {
	SetStore(ArtifactStore)
}

// Interp is the interpreter backend: a thin adapter over kernelc, so
// the default execution path flows through the same interface the
// native tier plugs into.
type Interp struct{}

// Name returns "vm" — the canonical name of the interpreter backend.
// Cache entries written before the Backend refactor carry this name
// implicitly, so it must never change.
func (Interp) Name() string { return "vm" }

// Available always succeeds: the interpreter runs everywhere.
func (Interp) Available() error { return nil }

// Compile lowers through kernelc.
func (Interp) Compile(f *ir.Func) (Executable, error) {
	p, err := kernelc.Compile(f)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// --- registry ----------------------------------------------------------------

var (
	regMu    sync.RWMutex
	registry = map[string]func() Backend{}
)

// Register installs a backend constructor under its name. Concrete
// backends (native, and later neon/rvv) register from their package
// init; duplicate names are a programming error.
func Register(name string, ctor func() Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: duplicate backend %q", name))
	}
	registry[name] = ctor
}

// Lookup constructs the named backend. The interpreter backend "vm" is
// always present.
func Lookup(name string) (Backend, error) {
	if name == "" || name == "vm" {
		return Interp{}, nil
	}
	regMu.RLock()
	ctor, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
	}
	return ctor(), nil
}

// Names lists the registered backend names, "vm" first, the rest
// sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := []string{"vm"}
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out[1:])
	return out
}
