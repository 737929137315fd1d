package native

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"plugin"
	"runtime"
	"sync"
)

// runFn is the plugin entry point's shape: flattened arguments in,
// boxed result + dynamic count vector + error out. Counts accumulated
// so far are returned even when err is non-nil (the host merges them
// before inspecting the error, matching the interpreter's partial-count
// behavior on mid-kernel faults).
type runFn func(args []any) (any, map[string]int64, error)

// contentKey fingerprints generated source together with the toolchain
// that will compile it: same source + same Go version/OS/arch → same
// artifact.
func contentKey(src string) string {
	h := fnv.New64a()
	h.Write([]byte(src))
	h.Write([]byte(runtime.Version()))
	h.Write([]byte(runtime.GOOS))
	h.Write([]byte(runtime.GOARCH))
	return fmt.Sprintf("%016x", h.Sum64())
}

// A loaded plugin can never be unloaded, and opening the same
// pluginpath from a *different* file path is an error — so resolution
// is memoized process-wide on the content key, and blobs are always
// opened through their canonical store path.
var (
	memoMu sync.Mutex
	memo   = map[string]runFn{}
)

// resetMemoForTest drops the process-wide key→fn memo so tests can
// exercise the disk-blob load path. The underlying plugins stay mapped
// (Go plugins cannot unload); reopening the same canonical path is a
// cheap no-op that returns the already-loaded plugin.
func resetMemoForTest() {
	memoMu.Lock()
	defer memoMu.Unlock()
	memo = map[string]runFn{}
}

// openPlugin loads the artifact at path and resolves its Run symbol.
func openPlugin(path string) (runFn, error) {
	p, err := plugin.Open(path)
	if err != nil {
		return nil, err
	}
	sym, err := p.Lookup("Run")
	if err != nil {
		return nil, err
	}
	fn, ok := sym.(func([]any) (any, map[string]int64, error))
	if !ok {
		return nil, fmt.Errorf("native: plugin Run has wrong type %T", sym)
	}
	return fn, nil
}

// buildPlugin compiles src with the go tool into a plugin object and
// returns the object bytes. The source is stdlib-only, so it builds in
// a bare temp dir outside any module. The go tool assigns file-argument
// plugins the identity plugin/unnamed-<contenthash>, which is
// deterministic for fixed source and toolchain — two builds of the
// same generated source are interchangeable. (Overriding it with an
// -ldflags=-pluginpath is a trap: the linker still renames the
// exported symbols under the computed default, so Lookup on the
// overridden path finds nothing.)
func buildPlugin(goTool, src, key string) ([]byte, error) {
	dir, err := os.MkdirTemp("", "ngen-native-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srcPath := filepath.Join(dir, "kernel.go")
	if err := os.WriteFile(srcPath, []byte(src), 0o644); err != nil {
		return nil, err
	}
	out := filepath.Join(dir, "kernel.so")
	cmd := exec.Command(goTool, "build", "-buildmode=plugin", "-o", out, srcPath)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GO111MODULE=off", "CGO_ENABLED=1")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("native: go build failed: %v\n%s", err, msg)
	}
	return os.ReadFile(out)
}
