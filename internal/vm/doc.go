// Package vm is the software SIMD machine that stands in for native
// execution in this reproduction. It implements the lane-exact semantics
// of every intrinsic the generated bindings expose, over 64..512-bit
// register values and byte-addressed buffers (the JNI-pinned-array
// analog). Each intrinsic has exactly one executable body, registered
// once: a destination-passing Intrinsic.Fn that reads its operands in
// place and writes its result into a caller-provided Value. The kernel
// compiler (internal/kernelc) executes staged graphs against this
// machine; the analytical cost model (internal/machine) converts the
// machine's dynamic instruction counts into cycle estimates.
package vm
