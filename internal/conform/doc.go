// Package conform is the grammar-driven conformance suite: a
// deterministic, seed-driven kernel generator that walks the intrinsic
// signature index (internal/xmlspec) and synthesizes well-typed staged
// graphs — vector loops over loads, lane ops and stores, with optional
// scalar tails and reductions — plus deliberately ill-formed mutants
// (arity, type, ISA, effect, mutability, alignment, dead-code and
// dead-store defects).
//
// Every generated kernel is driven through a three-way differential
// harness:
//
//   - a scalar reference evaluator (oracle.go), a tree-walking
//     lane-by-lane interpreter over the IR with none of the vm's fast
//     paths;
//   - the vm interpreter, serial and under the parallel loop
//     scheduler;
//   - the native plugin backend (sampled; each unique kernel is one
//     `go build -buildmode=plugin`).
//
// Results, memory effects and dynamic op counters must be bit-identical
// across the backends; divergences are auto-minimized by a recipe-level
// shrinker (shrink.go).
//
// The suite simultaneously cross-checks the static verifier
// (internal/irverify): graphs it accepts must execute cleanly everywhere
// (an execution failure is an unsound accept), and graphs it rejects
// must carry a diagnostic matching the injected defect class (anything
// else is a misclassified reject). Verification is injectable
// (Options.Verify), so a test can lobotomise a pass and prove the suite
// notices — the guard against silent verifier regressions.
//
// Surface: `ngen conform [-seed N] [-count N] [-json]`, the FuzzConform
// fuzz targets, and the conform.* counters in internal/obs.
package conform
