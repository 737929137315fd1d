package vm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Vec is one SIMD register value. The array always holds 64 bytes; the
// register's logical width (64/128/256/512 bits) is a property of the
// value's type, not of the storage. Lanes are little-endian, matching
// x86. Lane getters take a pointer receiver, so reading one lane never
// copies the 64-byte register.
type Vec struct {
	b [64]byte
}

// RangeError reports a byte count that does not fit the 64-byte
// register storage. It is a typed error so sweeps can distinguish a
// malformed width from a genuine interpreter fault.
type RangeError struct {
	N   int // requested byte count
	Cap int // register capacity in bytes
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("vm: %d bytes out of range for a %d-byte register", e.N, e.Cap)
}

// Bytes returns a copy of the first n bytes of the register, or a
// *RangeError when n is negative or exceeds the 64-byte storage.
func (v Vec) Bytes(n int) ([]byte, error) {
	if n < 0 || n > len(v.b) {
		return nil, &RangeError{N: n, Cap: len(v.b)}
	}
	out := make([]byte, n)
	copy(out, v.b[:n])
	return out, nil
}

// VecFromBytes fills the register from raw bytes (upper bytes zeroed).
// Slices longer than the 64-byte storage are silently truncated; use
// VecFromBytesErr to surface that as an error.
func VecFromBytes(p []byte) Vec {
	var v Vec
	copy(v.b[:], p)
	return v
}

// VecFromBytesErr is VecFromBytes with a *RangeError instead of silent
// truncation when the slice exceeds the register storage.
func VecFromBytesErr(p []byte) (Vec, error) {
	var v Vec
	if len(p) > len(v.b) {
		return Vec{}, &RangeError{N: len(p), Cap: len(v.b)}
	}
	copy(v.b[:], p)
	return v, nil
}

// --- 32-bit float lanes ----------------------------------------------------

// F32 returns lane i viewed as float32.
func (v *Vec) F32(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(v.b[i*4:]))
}

// SetF32 stores a float32 into lane i.
func (v *Vec) SetF32(i int, x float32) {
	binary.LittleEndian.PutUint32(v.b[i*4:], math.Float32bits(x))
}

// --- 64-bit float lanes ----------------------------------------------------

// F64 returns lane i viewed as float64.
func (v *Vec) F64(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.b[i*8:]))
}

// SetF64 stores a float64 into lane i.
func (v *Vec) SetF64(i int, x float64) {
	binary.LittleEndian.PutUint64(v.b[i*8:], math.Float64bits(x))
}

// --- integer lanes -----------------------------------------------------------

// I8 returns lane i viewed as int8.
func (v *Vec) I8(i int) int8 { return int8(v.b[i]) }

// SetI8 stores an int8 into lane i.
func (v *Vec) SetI8(i int, x int8) { v.b[i] = byte(x) }

// U8 returns lane i viewed as uint8.
func (v *Vec) U8(i int) uint8 { return v.b[i] }

// SetU8 stores a uint8 into lane i.
func (v *Vec) SetU8(i int, x uint8) { v.b[i] = x }

// I16 returns lane i viewed as int16.
func (v *Vec) I16(i int) int16 {
	return int16(binary.LittleEndian.Uint16(v.b[i*2:]))
}

// SetI16 stores an int16 into lane i.
func (v *Vec) SetI16(i int, x int16) {
	binary.LittleEndian.PutUint16(v.b[i*2:], uint16(x))
}

// U16 returns lane i viewed as uint16.
func (v *Vec) U16(i int) uint16 { return binary.LittleEndian.Uint16(v.b[i*2:]) }

// SetU16 stores a uint16 into lane i.
func (v *Vec) SetU16(i int, x uint16) {
	binary.LittleEndian.PutUint16(v.b[i*2:], x)
}

// I32 returns lane i viewed as int32.
func (v *Vec) I32(i int) int32 {
	return int32(binary.LittleEndian.Uint32(v.b[i*4:]))
}

// SetI32 stores an int32 into lane i.
func (v *Vec) SetI32(i int, x int32) {
	binary.LittleEndian.PutUint32(v.b[i*4:], uint32(x))
}

// U32 returns lane i viewed as uint32.
func (v *Vec) U32(i int) uint32 { return binary.LittleEndian.Uint32(v.b[i*4:]) }

// SetU32 stores a uint32 into lane i.
func (v *Vec) SetU32(i int, x uint32) {
	binary.LittleEndian.PutUint32(v.b[i*4:], x)
}

// I64 returns lane i viewed as int64.
func (v *Vec) I64(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.b[i*8:]))
}

// SetI64 stores an int64 into lane i.
func (v *Vec) SetI64(i int, x int64) {
	binary.LittleEndian.PutUint64(v.b[i*8:], uint64(x))
}

// U64 returns lane i viewed as uint64.
func (v *Vec) U64(i int) uint64 { return binary.LittleEndian.Uint64(v.b[i*8:]) }

// SetU64 stores a uint64 into lane i.
func (v *Vec) SetU64(i int, x uint64) {
	binary.LittleEndian.PutUint64(v.b[i*8:], x)
}

// String formats the low 256 bits as hex, low byte first.
func (v Vec) String() string {
	return fmt.Sprintf("%x", v.b[:32])
}

// --- lanewise combinators ----------------------------------------------------
//
// Each combinator is the body of a lanewise intrinsic: it reads the
// operand registers in place and writes the result lanes into out, which
// never aliases args. Lanes above bits are zero.

func mapF32(bits int, args []Value, out *Value, f func(x, y float32) float32) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/32; i++ {
		v.SetF32(i, f(a.F32(i), b.F32(i)))
	}
}

func map1F32(bits int, args []Value, out *Value, f func(x float32) float32) {
	a, v := &args[0].V, vecOut(out)
	for i := 0; i < bits/32; i++ {
		v.SetF32(i, f(a.F32(i)))
	}
}

func mapF64(bits int, args []Value, out *Value, f func(x, y float64) float64) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/64; i++ {
		v.SetF64(i, f(a.F64(i), b.F64(i)))
	}
}

func map1F64(bits int, args []Value, out *Value, f func(x float64) float64) {
	a, v := &args[0].V, vecOut(out)
	for i := 0; i < bits/64; i++ {
		v.SetF64(i, f(a.F64(i)))
	}
}

func mapI8(bits int, args []Value, out *Value, f func(x, y int8) int8) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/8; i++ {
		v.SetI8(i, f(a.I8(i), b.I8(i)))
	}
}

func mapU8(bits int, args []Value, out *Value, f func(x, y uint8) uint8) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/8; i++ {
		v.SetU8(i, f(a.U8(i), b.U8(i)))
	}
}

func mapI16(bits int, args []Value, out *Value, f func(x, y int16) int16) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/16; i++ {
		v.SetI16(i, f(a.I16(i), b.I16(i)))
	}
}

func mapU16(bits int, args []Value, out *Value, f func(x, y uint16) uint16) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/16; i++ {
		v.SetU16(i, f(a.U16(i), b.U16(i)))
	}
}

func mapI32(bits int, args []Value, out *Value, f func(x, y int32) int32) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/32; i++ {
		v.SetI32(i, f(a.I32(i), b.I32(i)))
	}
}

func mapU32(bits int, args []Value, out *Value, f func(x, y uint32) uint32) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/32; i++ {
		v.SetU32(i, f(a.U32(i), b.U32(i)))
	}
}

func mapI64(bits int, args []Value, out *Value, f func(x, y int64) int64) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/64; i++ {
		v.SetI64(i, f(a.I64(i), b.I64(i)))
	}
}

func mapU64(bits int, args []Value, out *Value, f func(x, y uint64) uint64) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/64; i++ {
		v.SetU64(i, f(a.U64(i), b.U64(i)))
	}
}

// bitwise applies f to the register byte by byte (logical ops are
// width- and element-type-agnostic).
func bitwise(bits int, args []Value, out *Value, f func(x, y byte) byte) {
	a, b, v := &args[0].V, &args[1].V, vecOut(out)
	for i := 0; i < bits/8; i++ {
		v.b[i] = f(a.b[i], b.b[i])
	}
}

// regLanes registers a lanewise intrinsic: combinator apply, lane
// function f, width taken from the name.
func regLanes[F any](name string, apply func(bits int, args []Value, out *Value, f F), f F) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, out *Value) error {
		apply(bits, args, out, f)
		return nil
	})
}

// saturation helpers.

func satI8(v int) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

func satI16(v int) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

func satU8(v int) uint8 {
	if v > 255 {
		return 255
	}
	if v < 0 {
		return 0
	}
	return uint8(v)
}

func satU16(v int) uint16 {
	if v > 65535 {
		return 65535
	}
	if v < 0 {
		return 0
	}
	return uint16(v)
}
