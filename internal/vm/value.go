package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Buffer is a byte-addressed memory region with a primitive element type
// — the machine-side view of a managed array after the runtime pins it
// (the paper's GetPrimitiveArrayCritical discussion in Section 3.5).
// Host slices are copied in at kernel entry and copied back at exit,
// which is exactly the copying JNI may perform.
type Buffer struct {
	Prim isa.Prim
	Data []byte
	// Base is the buffer's virtual address, assigned at allocation so
	// the optional cache simulator (internal/cachesim) sees a realistic
	// page-aligned address space.
	Base uint64
}

// nextBase hands out page-aligned virtual addresses for buffers.
var nextBase atomic.Uint64

// NewBuffer allocates a zeroed buffer of n elements.
func NewBuffer(p isa.Prim, n int) *Buffer {
	size := n * p.Bits() / 8
	pages := uint64(size/4096 + 2)
	base := nextBase.Add(pages*4096) - pages*4096 + 0x10000
	return &Buffer{Prim: p, Data: make([]byte, size), Base: base}
}

// Len returns the number of elements.
func (b *Buffer) Len() int { return len(b.Data) / (b.Prim.Bits() / 8) }

// check bounds-checks a byte range; generated native code would segfault
// here (Section 3.5: "it is the responsibility of the developer to write
// valid SIMD code"), the vm reports a structured error instead.
func (b *Buffer) check(off, n int) error {
	if off < 0 || off+n > len(b.Data) {
		return fmt.Errorf("vm: out-of-bounds access [%d,%d) of %d-byte buffer",
			off, off+n, len(b.Data))
	}
	return nil
}

// LoadVec reads `bytes` bytes at element offset elemOff into register
// v, zeroing its upper bytes.
func (b *Buffer) LoadVec(elemOff, bytes int, v *Vec) error {
	off := elemOff * b.Prim.Bits() / 8
	if err := b.check(off, bytes); err != nil {
		return err
	}
	n := copy(v.b[:], b.Data[off:off+bytes])
	clear(v.b[n:])
	return nil
}

// StoreVec writes the low `bytes` bytes of a register at element offset
// elemOff.
func (b *Buffer) StoreVec(elemOff int, v *Vec, bytes int) error {
	off := elemOff * b.Prim.Bits() / 8
	if err := b.check(off, bytes); err != nil {
		return err
	}
	copy(b.Data[off:off+bytes], v.b[:bytes])
	return nil
}

// F32At reads element i as float32.
func (b *Buffer) F32At(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b.Data[i*4:]))
}

// SetF32At writes element i as float32.
func (b *Buffer) SetF32At(i int, v float32) {
	binary.LittleEndian.PutUint32(b.Data[i*4:], math.Float32bits(v))
}

// F64At reads element i as float64.
func (b *Buffer) F64At(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.Data[i*8:]))
}

// SetF64At writes element i as float64.
func (b *Buffer) SetF64At(i int, v float64) {
	binary.LittleEndian.PutUint64(b.Data[i*8:], math.Float64bits(v))
}

// IntAt reads element i sign- or zero-extended to int64 per the
// buffer's primitive.
func (b *Buffer) IntAt(i int) int64 {
	switch b.Prim {
	case isa.PrimI8:
		return int64(int8(b.Data[i]))
	case isa.PrimU8:
		return int64(b.Data[i])
	case isa.PrimI16:
		return int64(int16(binary.LittleEndian.Uint16(b.Data[i*2:])))
	case isa.PrimU16:
		return int64(binary.LittleEndian.Uint16(b.Data[i*2:]))
	case isa.PrimI32:
		return int64(int32(binary.LittleEndian.Uint32(b.Data[i*4:])))
	case isa.PrimU32:
		return int64(binary.LittleEndian.Uint32(b.Data[i*4:]))
	case isa.PrimI64, isa.PrimU64:
		return int64(binary.LittleEndian.Uint64(b.Data[i*8:]))
	default:
		panic(fmt.Sprintf("vm: IntAt on %v buffer", b.Prim))
	}
}

// SetIntAt writes element i from an int64, truncating per the primitive.
func (b *Buffer) SetIntAt(i int, v int64) {
	switch b.Prim {
	case isa.PrimI8, isa.PrimU8:
		b.Data[i] = byte(v)
	case isa.PrimI16, isa.PrimU16:
		binary.LittleEndian.PutUint16(b.Data[i*2:], uint16(v))
	case isa.PrimI32, isa.PrimU32:
		binary.LittleEndian.PutUint32(b.Data[i*4:], uint32(v))
	case isa.PrimI64, isa.PrimU64:
		binary.LittleEndian.PutUint64(b.Data[i*8:], uint64(v))
	default:
		panic(fmt.Sprintf("vm: SetIntAt on %v buffer", b.Prim))
	}
}

// --- host array pinning ------------------------------------------------------

// PinF32 copies a float32 slice into a buffer.
func PinF32(xs []float32) *Buffer {
	b := NewBuffer(isa.PrimF32, len(xs))
	for i, x := range xs {
		b.SetF32At(i, x)
	}
	return b
}

// UnpinF32 copies a buffer back into a float32 slice.
func (b *Buffer) UnpinF32(xs []float32) {
	for i := range xs {
		xs[i] = b.F32At(i)
	}
}

// PinF64 copies a float64 slice into a buffer.
func PinF64(xs []float64) *Buffer {
	b := NewBuffer(isa.PrimF64, len(xs))
	for i, x := range xs {
		b.SetF64At(i, x)
	}
	return b
}

// UnpinF64 copies a buffer back into a float64 slice.
func (b *Buffer) UnpinF64(xs []float64) {
	for i := range xs {
		xs[i] = b.F64At(i)
	}
}

// PinI8 copies an int8 slice into a buffer.
func PinI8(xs []int8) *Buffer {
	b := NewBuffer(isa.PrimI8, len(xs))
	for i, x := range xs {
		b.Data[i] = byte(x)
	}
	return b
}

// PinU8 copies a uint8 slice into a buffer.
func PinU8(xs []uint8) *Buffer {
	b := NewBuffer(isa.PrimU8, len(xs))
	copy(b.Data, xs)
	return b
}

// PinI16 copies an int16 slice into a buffer.
func PinI16(xs []int16) *Buffer {
	b := NewBuffer(isa.PrimI16, len(xs))
	for i, x := range xs {
		b.SetIntAt(i, int64(x))
	}
	return b
}

// PinU16 copies a uint16 slice into a buffer.
func PinU16(xs []uint16) *Buffer {
	b := NewBuffer(isa.PrimU16, len(xs))
	for i, x := range xs {
		b.SetIntAt(i, int64(x))
	}
	return b
}

// PinI32 copies an int32 slice into a buffer.
func PinI32(xs []int32) *Buffer {
	b := NewBuffer(isa.PrimI32, len(xs))
	for i, x := range xs {
		b.SetIntAt(i, int64(x))
	}
	return b
}

// UnpinI32 copies a buffer back into an int32 slice.
func (b *Buffer) UnpinI32(xs []int32) {
	for i := range xs {
		xs[i] = int32(b.IntAt(i))
	}
}

// --- allocation-free re-pinning ---------------------------------------------
//
// The Repin* variants reuse a previously allocated buffer when its shape
// matches (same primitive, same element count) and only then fall back
// to a fresh allocation. The runtime's Kernel.Call keeps one buffer per
// argument position, so steady-state invocation copies data without
// allocating — the pinned-array reuse a JVM's critical regions give the
// paper's pipeline.

// reusable reports whether b can hold a pin of n elements of p.
func reusable(b *Buffer, p isa.Prim, n int) bool {
	return b != nil && b.Prim == p && b.Len() == n
}

// RepinF32 copies xs into b when shapes match, else into a new buffer.
func RepinF32(b *Buffer, xs []float32) *Buffer {
	if !reusable(b, isa.PrimF32, len(xs)) {
		b = NewBuffer(isa.PrimF32, len(xs))
	}
	for i, x := range xs {
		b.SetF32At(i, x)
	}
	return b
}

// RepinF64 copies xs into b when shapes match, else into a new buffer.
func RepinF64(b *Buffer, xs []float64) *Buffer {
	if !reusable(b, isa.PrimF64, len(xs)) {
		b = NewBuffer(isa.PrimF64, len(xs))
	}
	for i, x := range xs {
		b.SetF64At(i, x)
	}
	return b
}

// RepinI8 copies xs into b when shapes match, else into a new buffer.
func RepinI8(b *Buffer, xs []int8) *Buffer {
	if !reusable(b, isa.PrimI8, len(xs)) {
		b = NewBuffer(isa.PrimI8, len(xs))
	}
	for i, x := range xs {
		b.Data[i] = byte(x)
	}
	return b
}

// RepinU8 copies xs into b when shapes match, else into a new buffer.
func RepinU8(b *Buffer, xs []uint8) *Buffer {
	if !reusable(b, isa.PrimU8, len(xs)) {
		b = NewBuffer(isa.PrimU8, len(xs))
	}
	copy(b.Data, xs)
	return b
}

// RepinI16 copies xs into b when shapes match, else into a new buffer.
func RepinI16(b *Buffer, xs []int16) *Buffer {
	if !reusable(b, isa.PrimI16, len(xs)) {
		b = NewBuffer(isa.PrimI16, len(xs))
	}
	for i, x := range xs {
		b.SetIntAt(i, int64(x))
	}
	return b
}

// RepinU16 copies xs into b when shapes match, else into a new buffer.
func RepinU16(b *Buffer, xs []uint16) *Buffer {
	if !reusable(b, isa.PrimU16, len(xs)) {
		b = NewBuffer(isa.PrimU16, len(xs))
	}
	for i, x := range xs {
		b.SetIntAt(i, int64(x))
	}
	return b
}

// RepinI32 copies xs into b when shapes match, else into a new buffer.
func RepinI32(b *Buffer, xs []int32) *Buffer {
	if !reusable(b, isa.PrimI32, len(xs)) {
		b = NewBuffer(isa.PrimI32, len(xs))
	}
	for i, x := range xs {
		b.SetIntAt(i, int64(x))
	}
	return b
}

// --- runtime values -----------------------------------------------------------

// Value is one runtime value in the kernel interpreter: a scalar, a
// register, or a displaced pointer into a buffer.
type Value struct {
	Kind ir.Kind
	I    int64
	U    uint64
	F    float64
	B    bool
	V    Vec
	Mem  *Buffer
	Off  int // pointer displacement in elements
}

// IntValue builds an i32 scalar.
func IntValue(v int) Value { return Value{Kind: ir.KindI32, I: int64(v)} }

// F32Value builds an f32 scalar.
func F32Value(v float32) Value { return Value{Kind: ir.KindF32, F: float64(v)} }

// F64Value builds an f64 scalar.
func F64Value(v float64) Value { return Value{Kind: ir.KindF64, F: v} }

// BoolValue builds a bool scalar.
func BoolValue(v bool) Value { return Value{Kind: ir.KindBool, B: v} }

// VecValue builds a register value.
func VecValue(v Vec) Value { return Value{Kind: ir.KindVec, V: v} }

// PtrValue builds a pointer to a buffer at element offset off.
func PtrValue(b *Buffer, off int) Value {
	return Value{Kind: ir.KindPtr, Mem: b, Off: off}
}

// AsInt returns the scalar numeric value as int64. AsInt and AsFloat
// take a pointer receiver so reading an operand never copies the whole
// 120-byte Value.
func (v *Value) AsInt() int64 {
	switch v.Kind {
	case ir.KindBool:
		if v.B {
			return 1
		}
		return 0
	case ir.KindF32, ir.KindF64:
		return int64(v.F)
	case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
		return int64(v.U)
	default:
		return v.I
	}
}

// AsFloat returns the scalar numeric value as float64.
func (v *Value) AsFloat() float64 {
	switch v.Kind {
	case ir.KindF32, ir.KindF64:
		return v.F
	case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
		return float64(v.U)
	case ir.KindBool:
		if v.B {
			return 1
		}
		return 0
	default:
		return float64(v.I)
	}
}

// Equal reports bit-exact equality of two values. Floats compare by bit
// pattern (NaN payloads included), pointers by displacement plus the
// pointed-to bytes — the comparison the differential harnesses use.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind || v.I != o.I || v.U != o.U || v.B != o.B || v.V != o.V {
		return false
	}
	if math.Float64bits(v.F) != math.Float64bits(o.F) {
		return false
	}
	if (v.Mem == nil) != (o.Mem == nil) {
		return false
	}
	if v.Mem != nil {
		return v.Off == o.Off && v.Mem.Prim == o.Mem.Prim &&
			bytes.Equal(v.Mem.Data, o.Mem.Data)
	}
	return true
}
