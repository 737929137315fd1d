package vm

import (
	"fmt"
	"sort"

	"repro/internal/cachesim"
	"repro/internal/ir"
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
	// Fn evaluates the intrinsic into *out, so the interpreter can
	// evaluate straight into a vector register or operand-arena slot.
	// out never aliases an element of args and must be non-nil even for
	// void intrinsics, which leave it untouched. A successful call sets
	// out.Kind and out.V for a register result and the whole of *out for
	// a scalar result, so a reused destination needs no clearing; the
	// scalar fields of a register result keep whatever they held.
	Fn func(m *Machine, args []Value, out *Value) error
}

var registry = map[string]Intrinsic{}

// register installs a semantic; duplicate registration is a programming
// error caught at init.
func register(name string, fn func(m *Machine, args []Value, out *Value) error) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("vm: duplicate intrinsic semantic %s", name))
	}
	registry[name] = Intrinsic{Name: name, Fn: fn}
}

// Lookup finds an intrinsic's executable semantic.
func Lookup(name string) (Intrinsic, bool) {
	in, ok := registry[name]
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

// ImplementedNames lists all executable intrinsics sorted by name.
func ImplementedNames() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Call executes an intrinsic by name, counting it, and returns its
// result (the zero Value for void intrinsics).
func (m *Machine) Call(name string, args ...Value) (Value, error) {
	in, ok := registry[name]
	if !ok {
		return Value{}, fmt.Errorf("vm: intrinsic %s has no executable semantic", name)
	}
	m.Counts.Add(name, 1)
	var out Value
	if err := in.Fn(m, args, &out); err != nil {
		return Value{}, err
	}
	return out, nil
}

// --- helpers used by the semantics files ------------------------------------

func argInt(args []Value, i int) int { return int(args[i].AsInt()) }

func argPtr(args []Value, i int) (*Buffer, int, error) {
	if args[i].Mem == nil {
		return nil, 0, fmt.Errorf("vm: argument %d is not a pointer", i)
	}
	return args[i].Mem, args[i].Off, nil
}

// vecOut marks out as a register result and returns its lanes, zeroed,
// for in-place writes. Only Kind and V are touched.
func vecOut(out *Value) *Vec {
	out.Kind = ir.KindVec
	out.V = Vec{}
	return &out.V
}

// vecCopy is vecOut for bodies that start from a copy of an operand and
// update some of its lanes.
func vecCopy(out *Value, src *Vec) *Vec {
	out.Kind = ir.KindVec
	out.V = *src
	return &out.V
}

// scalar writes a scalar result over the whole of *out.
func scalar(out *Value, v Value) error {
	*out = v
	return nil
}
