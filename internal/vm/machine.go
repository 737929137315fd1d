package vm

import (
	"fmt"
	"sort"

	"repro/internal/cachesim"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Machine is one simulated CPU executing kernels: the feature set drives
// availability checks, the RNG backs the RDRAND/RDSEED intrinsics, and
// Counts accumulates dynamic instruction counts that the cost model
// converts into cycles.
type Machine struct {
	Arch   *isa.Microarch
	Rand   *Xorshift
	Counts Counter
	// Cache, when set, simulates the access stream through a real
	// set-associative hierarchy — used to validate the analytical
	// memory model. Nil by default (simulation costs time).
	Cache *cachesim.Hierarchy
	// Workers is the lane budget for the parallel loop tier: loops the
	// dependence analysis proves independent shard across up to this
	// many goroutines. 0 or 1 keeps every loop on the serial driver.
	// Sharded execution is disabled while Cache is attached (the
	// simulator is order-sensitive shared state).
	Workers int
	// ChunkHint, when positive, overrides the shard scheduler's default
	// chunk size for parallel loops. The execution planner sets it when
	// calibration found a better granularity; 0 keeps the
	// chunksPerWorker-derived default.
	ChunkHint int64
}

// Touch routes one memory access through the cache simulator, when
// attached.
func (m *Machine) Touch(b *Buffer, byteOff, size int) {
	if m.Cache != nil {
		m.Cache.Access(b.Base+uint64(byteOff), size)
	}
}

// NewMachine creates a machine for the given microarchitecture with a
// fixed RNG seed (the hardware RDRAND is substituted by a deterministic
// xorshift so experiments replay exactly).
func NewMachine(arch *isa.Microarch) *Machine {
	return &Machine{Arch: arch, Rand: NewXorshift(0x9E3779B97F4A7C15), Counts: Counter{}}
}

// Worker derives a lane-private machine for one shard of a parallel
// loop: same architecture, fresh deterministic RNG, an empty counter
// the scheduler merges after the join, no cache simulator, and a zero
// worker budget so nested loops inside the shard stay serial.
func (m *Machine) Worker() *Machine {
	return NewMachine(m.Arch)
}

// Counter counts dynamically executed operations by op name.
type Counter map[string]int64

// Add increments an op's count.
func (c Counter) Add(op string, n int64) { c[op] += n }

// Reset clears all counts.
func (c Counter) Reset() {
	for k := range c {
		delete(c, k)
	}
}

// Total sums every count.
func (c Counter) Total() int64 {
	var t int64
	for _, n := range c {
		t += n
	}
	return t
}

// Ops returns op names sorted for deterministic reporting.
func (c Counter) Ops() []string {
	out := make([]string, 0, len(c))
	for k := range c {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merge adds every count from o into c (parallel sweep workers count on
// private machines and merge after the barrier).
func (c Counter) Merge(o Counter) {
	for k, v := range o {
		c[k] += v
	}
}

// Publish mirrors every count into the registry as gauges named
// prefix+op. Counts are cumulative totals, so gauge semantics (set, not
// add) make Publish idempotent — the harness republishes the merged
// sweep counters before each metrics snapshot.
func (c Counter) Publish(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	for _, op := range c.Ops() {
		r.Gauge(prefix + op).Set(c[op])
	}
}

// Clone copies the counter.
func (c Counter) Clone() Counter {
	out := make(Counter, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Intrinsic is one executable intrinsic semantic.
type Intrinsic struct {
	Name string
	// Fn evaluates the intrinsic. Void intrinsics return the zero Value.
	Fn func(m *Machine, args []Value) (Value, error)
	// FnInto, when non-nil, is the destination-passing fast path: it
	// writes the result into *out instead of returning a Value, so the
	// interpreter can evaluate straight into a vector register or
	// operand-arena slot without copying the 120-byte Value through a
	// return. out never
	// aliases an element of args, must be non-nil even for void
	// intrinsics (which leave it untouched), and after a successful call
	// holds exactly the Value that Fn would have returned.
	FnInto func(m *Machine, args []Value, out *Value) error
}

var registry = map[string]Intrinsic{}

// intoRegistry holds the destination-passing fast paths, keyed by
// intrinsic name. It is separate from registry so the semantics files
// need no particular init order; Lookup merges the two views.
var intoRegistry = map[string]func(m *Machine, args []Value, out *Value) error{}

// register installs a semantic; duplicate registration is a programming
// error caught at init.
func register(name string, fn func(m *Machine, args []Value) (Value, error)) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("vm: duplicate intrinsic semantic %s", name))
	}
	registry[name] = Intrinsic{Name: name, Fn: fn}
}

// registerInto installs the destination-passing fast path for an
// intrinsic. A test asserts every entry matches a register() name.
func registerInto(name string, fn func(m *Machine, args []Value, out *Value) error) {
	if _, dup := intoRegistry[name]; dup {
		panic(fmt.Sprintf("vm: duplicate in-place semantic %s", name))
	}
	intoRegistry[name] = fn
}

// Lookup finds an intrinsic's executable semantic.
func Lookup(name string) (Intrinsic, bool) {
	in, ok := registry[name]
	if ok {
		in.FnInto = intoRegistry[name]
	}
	return in, ok
}

// Implemented reports whether the machine can execute the named
// intrinsic.
func Implemented(name string) bool {
	_, ok := registry[name]
	return ok
}

// ImplementedCount returns the number of intrinsics with executable
// semantics.
func ImplementedCount() int { return len(registry) }

// IntoCount returns the number of intrinsics with a destination-passing
// fast path.
func IntoCount() int { return len(intoRegistry) }

// IntoNames lists the intrinsics with a destination-passing fast path,
// sorted by name.
func IntoNames() []string {
	out := make([]string, 0, len(intoRegistry))
	for k := range intoRegistry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ImplementedNames lists all executable intrinsics sorted by name.
func ImplementedNames() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Call executes an intrinsic by name, counting it.
func (m *Machine) Call(name string, args ...Value) (Value, error) {
	in, ok := registry[name]
	if !ok {
		return Value{}, fmt.Errorf("vm: intrinsic %s has no executable semantic", name)
	}
	m.Counts.Add(name, 1)
	return in.Fn(m, args)
}

// --- argument helpers used by the semantics files ---------------------------

func argVec(args []Value, i int) Vec { return args[i].V }

func argInt(args []Value, i int) int { return int(args[i].AsInt()) }

func argPtr(args []Value, i int) (*Buffer, int, error) {
	if args[i].Mem == nil {
		return nil, 0, fmt.Errorf("vm: argument %d is not a pointer", i)
	}
	return args[i].Mem, args[i].Off, nil
}

func vecResult(v Vec) (Value, error) { return VecValue(v), nil }

func voidResult() (Value, error) { return Value{}, nil }
