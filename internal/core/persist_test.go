package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// diskRuntime builds a fresh runtime (empty in-memory cache) attached
// to the given persistent cache directory, as `ngen -cachedir` does.
func diskRuntime(t *testing.T, dir string) *Runtime {
	t.Helper()
	rt := DefaultRuntime()
	d, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Disk = d
	return rt
}

// TestDiskCacheColdWarm is the cachepersist contract: a cold process
// pays one graph compile and stores the artifact; a fresh process
// sharing the directory performs zero graph compiles yet produces an
// identical artifact and a working program.
func TestDiskCacheColdWarm(t *testing.T) {
	dir := t.TempDir()

	rt1 := diskRuntime(t, dir)
	ResetFullCompiles()
	kn1, err := rt1.Compile(stageSumSquares(rt1))
	if err != nil {
		t.Fatal(err)
	}
	if got := FullCompiles(); got != 1 {
		t.Fatalf("cold compile: %d graph compiles, want 1", got)
	}
	if st := rt1.Disk.Stats(); st.Misses != 1 || st.Stores != 1 || st.Hits != 0 {
		t.Fatalf("cold disk stats %+v, want 1 miss / 1 store", st)
	}

	// Fresh runtime, fresh in-memory cache, same directory: the warm
	// path must lower from the persisted entry without a graph compile.
	rt2 := diskRuntime(t, dir)
	ResetFullCompiles()
	kn2, err := rt2.Compile(stageSumSquares(rt2))
	if err != nil {
		t.Fatal(err)
	}
	if got := FullCompiles(); got != 0 {
		t.Fatalf("warm compile: %d graph compiles, want 0", got)
	}
	if st := rt2.Disk.Stats(); st.Hits != 1 || st.Misses != 0 || st.Stores != 0 {
		t.Fatalf("warm disk stats %+v, want 1 hit", st)
	}
	if kn1.Source() != kn2.Source() || kn1.CompileCommand() != kn2.CompileCommand() {
		t.Fatal("warm artifact diverges from the cold one")
	}
	out, err := kn2.Call(10)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(285); out.I != want { // sum i^2, i<10
		t.Fatalf("warm-loaded kernel computed %d, want %d", out.I, want)
	}
}

// TestDiskCacheCorruptionTolerance: a truncated or scribbled entry must
// count as corrupt, be deleted, fall back to a full rebuild, and be
// rewritten so the next process hits again.
func TestDiskCacheCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	rt1 := diskRuntime(t, dir)
	if _, err := rt1.Compile(stageSumSquares(rt1)); err != nil {
		t.Fatal(err)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one persisted entry, got %v (%v)", ents, err)
	}
	if err := os.WriteFile(ents[0], []byte(`{"hash":"scribble`), 0o644); err != nil {
		t.Fatal(err)
	}

	rt2 := diskRuntime(t, dir)
	ResetFullCompiles()
	if _, err := rt2.Compile(stageSumSquares(rt2)); err != nil {
		t.Fatal(err)
	}
	if st := rt2.Disk.Stats(); st.Corrupt != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("corrupt-entry stats %+v, want 1 corrupt / 1 miss / 1 store", st)
	}
	if got := FullCompiles(); got != 1 {
		t.Fatalf("corrupt entry must force a full rebuild, got %d", got)
	}

	rt3 := diskRuntime(t, dir)
	if _, err := rt3.Compile(stageSumSquares(rt3)); err != nil {
		t.Fatal(err)
	}
	if st := rt3.Disk.Stats(); st.Hits != 1 {
		t.Fatalf("rewritten entry should hit, stats %+v", st)
	}
}

// TestDiskCacheOldEntryRebuilt: a compile entry written by the
// previous persistence format (v2: a "tier" field in the entry and the
// path, fmt2 in the fingerprint) is never served. Under its own file
// name it is simply not the current key's file; copied over the current
// key's file it fails the key check, counts as corrupt, and is rebuilt.
func TestDiskCacheOldEntryRebuilt(t *testing.T) {
	old, err := os.ReadFile("testdata/v2_entry.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"tier":"opt"`, `;fmt2;`, `"kernel":"sum_squares"`} {
		if !strings.Contains(string(old), field) {
			t.Fatalf("fixture lacks %s", field)
		}
	}
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "19438f9dbba58036-ddf1bd959d55c29a.json")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	compile := func(wantFull int64, wantStats DiskCacheStats) string {
		t.Helper()
		rt := diskRuntime(t, dir)
		ResetFullCompiles()
		kn, err := rt.Compile(stageSumSquares(rt))
		if err != nil {
			t.Fatal(err)
		}
		if out, err := kn.Call(10); err != nil || out.I != 285 {
			t.Fatalf("sum_squares(10) = %d, %v; want 285", out.I, err)
		}
		st := rt.Disk.Stats()
		st.Scans = 0
		if got := FullCompiles(); got != wantFull || st != wantStats {
			t.Fatalf("full compiles %d, disk %+v; want %d, %+v", got, st, wantFull, wantStats)
		}
		key := cacheKey{hash: kn.art.hash, name: "sum_squares", arch: rt.Arch.Name,
			toolchain: rt.Toolchain.Name + " " + rt.Toolchain.Version, backend: "vm"}
		return rt.Disk.path(key, rt.diskFingerprint())
	}
	cur := compile(1, DiskCacheStats{Misses: 1, Stores: 1})
	if cur == oldPath {
		t.Fatal("the current format reuses the old entry's file name")
	}
	if raw, _ := os.ReadFile(oldPath); string(raw) != string(old) {
		t.Fatal("the old entry was read and rewritten")
	}
	if err := os.WriteFile(cur, old, 0o644); err != nil {
		t.Fatal(err)
	}
	compile(1, DiskCacheStats{Misses: 1, Stores: 1, Corrupt: 1})
	compile(0, DiskCacheStats{Hits: 1})
}

// TestDiskCacheLRUEviction drives eviction white-box: three entries
// under a two-entry budget, with the oldest entry's LRU position
// refreshed by a hit, must evict the middle (least recently used) one.
func TestDiskCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.maxBytes = 1 << 30 // hold eviction off while sizing
	fp := "test-fp"
	key := func(h uint64) cacheKey {
		return cacheKey{hash: h, name: "k", arch: "haswell", toolchain: "gcc"}
	}
	art := &artifact{source: strings.Repeat("x", 512), command: "cc"}

	d.store(key(1), fp, art)
	size := func() int64 {
		info, err := os.Stat(d.path(key(1), fp))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}()
	d.store(key(2), fp, art)

	// Touch entry 1 with a far-future mtime so it is the most recently
	// used despite being written first.
	prev := nowForMtime
	nowForMtime = func() time.Time { return time.Now().Add(time.Hour) }
	defer func() { nowForMtime = prev }()
	if _, ok := d.load(key(1), fp); !ok {
		t.Fatal("entry 1 should load")
	}

	// Budget for two entries; storing the third must evict entry 2.
	d.maxBytes = 2*size + size/2
	d.store(key(3), fp, art)

	if st := d.Stats(); st.Evictions != 1 {
		t.Fatalf("want exactly 1 eviction, stats %+v", st)
	}
	if _, ok := d.load(key(2), fp); ok {
		t.Fatal("entry 2 (least recently used) should have been evicted")
	}
	if _, ok := d.load(key(1), fp); !ok {
		t.Fatal("entry 1 (refreshed) should have survived")
	}
	if _, ok := d.load(key(3), fp); !ok {
		t.Fatal("entry 3 (just stored) should have survived")
	}
}

// testKey is a compile-cache key whose entries differ only in hash.
func testKey(h uint64) cacheKey {
	return cacheKey{hash: h, name: "k", arch: "haswell", toolchain: "gcc"}
}

// jsonBytes sums the sizes of the .json entries in dir — the bytes the
// eviction budget governs.
func jsonBytes(t testing.TB, dir string) int64 {
	t.Helper()
	ents, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		info, err := os.Stat(e)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// setMtime stamps path with an mtime i seconds after a fixed epoch, so
// LRU order does not depend on the filesystem's timestamp granularity.
func setMtime(t *testing.T, path string, i int) {
	t.Helper()
	at := time.Unix(1_000_000_000+int64(i), 0)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCacheStoreError: a store that cannot write (its directory is
// gone) must not fail the compile; it is counted as a store error, not
// a store, in the stats, the counter and the published gauges.
func TestDiskCacheStoreError(t *testing.T) {
	dir := t.TempDir()
	rt := diskRuntime(t, dir)
	rt.Metrics = obs.NewRegistry()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	kn, err := rt.Compile(stageSumSquares(rt))
	if err != nil {
		t.Fatalf("a dropped store must not fail the compile: %v", err)
	}
	if out, err := kn.Call(10); err != nil || out.I != 285 {
		t.Fatalf("kernel computed (%v, %v), want 285", out.I, err)
	}
	if st := rt.Disk.Stats(); st.StoreErrors != 1 || st.Stores != 0 {
		t.Fatalf("stats %+v, want 1 store error / 0 stores", st)
	}
	if got := rt.Metrics.Counter("ngen.disk.store").Load(); got != 0 {
		t.Fatalf("ngen.disk.store = %d after a failed store, want 0", got)
	}
	rt.PublishMetrics()
	if got := rt.Metrics.Gauge("ngen.disk.store_errors").Load(); got != 1 {
		t.Fatalf("ngen.disk.store_errors = %d, want 1", got)
	}
}

// TestDiskCacheScanOnce: stores far under the budget, from several
// goroutines at once, scan the directory once, on the first store, and
// leave the running total equal to the directory's size.
func TestDiskCacheScanOnce(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	art := &artifact{source: strings.Repeat("x", 512), command: "cc"}
	const n, workers = 500, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := d.store(testKey(uint64(i)), "test-fp", art); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := d.Stats(); st.Stores != n || st.Scans != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want %d stores / 1 scan / 0 evictions", st, n)
	}
	d.mu.Lock()
	known := d.known
	d.mu.Unlock()
	if got := jsonBytes(t, dir); known != got {
		t.Fatalf("running total %d bytes, directory holds %d", known, got)
	}
}

// TestDiskCacheCrossingStoreScans: in a cache whose directory already
// sits just under the budget, the store that takes the running total
// over it scans and evicts the least-recently-used entry, and the
// stores before it do not scan.
func TestDiskCacheCrossingStoreScans(t *testing.T) {
	dir := t.TempDir()
	const prefill = 95
	fp := "test-fp"
	art := &artifact{source: strings.Repeat("x", 512), command: "cc"}

	// Write every entry once to learn its exact size, then drop the
	// ones the budgeted cache will store itself.
	fill, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, prefill+5)
	for i := range sizes {
		if err := fill.store(testKey(uint64(i)), fp, art); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(fill.path(testKey(uint64(i)), fp))
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = info.Size()
		setMtime(t, fill.path(testKey(uint64(i)), fp), i)
		if i >= prefill {
			os.Remove(fill.path(testKey(uint64(i)), fp))
		}
	}

	// Budget: everything up to entry prefill+3, plus half of the next.
	var budget int64
	for _, sz := range sizes[:prefill+4] {
		budget += sz
	}
	budget += sizes[prefill+4] / 2
	d, err := OpenDiskCache(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i := prefill; i < prefill+4; i++ {
		if err := d.store(testKey(uint64(i)), fp, art); err != nil {
			t.Fatal(err)
		}
		setMtime(t, d.path(testKey(uint64(i)), fp), i)
	}
	if st := d.Stats(); st.Scans != 1 || st.Evictions != 0 {
		t.Fatalf("under budget: stats %+v, want the first store's scan only", st)
	}
	if err := d.store(testKey(prefill+4), fp, art); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Scans != 2 || st.Evictions != 1 {
		t.Fatalf("crossing store: stats %+v, want 2 scans / 1 eviction", st)
	}
	if _, err := os.Stat(d.path(testKey(0), fp)); !os.IsNotExist(err) {
		t.Fatal("the least recently used entry should have been evicted")
	}
	if got := jsonBytes(t, dir); got > budget {
		t.Fatalf("directory holds %d bytes after the scan, budget %d", got, budget)
	}
}

// TestDiskCachePlanBudget: plan writes alone count toward the byte
// budget, so plans over a tiny budget evict the oldest plan.
func TestDiskCachePlanBudget(t *testing.T) {
	dir := t.TempDir()
	const budget = 1000
	d, err := OpenDiskCache(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	plan := []byte(strings.Repeat("p", 400))
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("p%d", i)
		if err := d.StorePlan(id, plan); err != nil {
			t.Fatal(err)
		}
		setMtime(t, d.PlanPath(id), i)
	}
	if st := d.Stats(); st.Evictions == 0 {
		t.Fatalf("plans over the budget evicted nothing, stats %+v", st)
	}
	if _, ok := d.LoadPlan("p0"); ok {
		t.Fatal("the oldest plan should have been evicted")
	}
	if got := jsonBytes(t, dir); got > budget {
		t.Fatalf("directory holds %d bytes, budget %d", got, budget)
	}
}

// TestDiskCacheSharedDirDrift: two caches interleaving stores over one
// directory each see only their own writes between scans, so the
// directory may exceed the budget, but never by more than the
// documented bound of an eighth of the budget per writer plus one
// entry.
func TestDiskCacheSharedDirDrift(t *testing.T) {
	dir := t.TempDir()
	fp := "test-fp"
	art := &artifact{source: strings.Repeat("x", 512), command: "cc"}
	probe, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.store(testKey(0), fp, art); err != nil {
		t.Fatal(err)
	}
	entry := jsonBytes(t, probe.Dir()) + 8 // checksum digits vary

	const budget = 64 << 10
	writers := make([]*DiskCache, 2)
	for i := range writers {
		if writers[i], err = OpenDiskCache(dir, budget); err != nil {
			t.Fatal(err)
		}
	}
	bound := budget + int64(len(writers))*budget/8 + entry
	const n = 600
	for i := 0; i < n; i++ {
		if err := writers[i%2].store(testKey(uint64(i)), fp, art); err != nil {
			t.Fatal(err)
		}
		if got := jsonBytes(t, dir); got > bound {
			t.Fatalf("after store %d the directory holds %d bytes, bound %d (budget %d)", i, got, bound, budget)
		}
	}
	var evictions int64
	for _, w := range writers {
		evictions += w.Stats().Evictions
	}
	if evictions == 0 {
		t.Fatal("no evictions: the test never filled the budget")
	}
}

// BenchmarkDiskCacheStore times one compile-entry store into a cache
// directory that already holds 0, 300 or 3000 entries. The stores
// cycle over 64 keys, so the directory holds at most 64 more entries
// than it was filled with at any b.N.
func BenchmarkDiskCacheStore(b *testing.B) {
	fp := "bench-fp"
	art := &artifact{source: strings.Repeat("x", 1024), command: "cc"}
	for _, prefill := range []int{0, 300, 3000} {
		b.Run(fmt.Sprintf("entries=%d", prefill), func(b *testing.B) {
			dir := b.TempDir()
			fill, err := OpenDiskCache(b.TempDir(), 0)
			if err != nil {
				b.Fatal(err)
			}
			fill.store(testKey(0), fp, art)
			raw, err := os.ReadFile(fill.path(testKey(0), fp))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < prefill; i++ {
				name := filepath.Join(dir, fmt.Sprintf("%016x-prefill.json", i))
				if err := os.WriteFile(name, raw, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			d, err := OpenDiskCache(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.store(testKey(uint64(i%64)+1<<32), fp, art)
			}
		})
	}
}

// TestSingleFlightDedup holds N-1 concurrent compiles of one key on a
// single flight: the builder runs once, every caller gets the same
// artifact, and the dedup counter records the waiters.
func TestSingleFlightDedup(t *testing.T) {
	c := NewCompileCache()
	key := cacheKey{hash: 7, name: "k", arch: "haswell", toolchain: "gcc"}
	const n = 8
	release := make(chan struct{})
	var calls atomic.Int32
	want := &artifact{source: "once"}

	var wg sync.WaitGroup
	arts := make([]*artifact, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			arts[i], errs[i] = c.once(key, func() (*artifact, error) {
				calls.Add(1)
				<-release
				return want, nil
			})
		}()
	}
	// Wait until every other caller is parked on the flight, then let
	// the builder finish.
	deadline := time.Now().Add(5 * time.Second)
	for c.dedups.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined the flight", c.dedups.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("builder ran %d times, want 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || arts[i] != want {
			t.Fatalf("caller %d got (%v, %v), want the shared artifact", i, arts[i], errs[i])
		}
	}
	if st := c.Stats(); st.Deduped != n-1 {
		t.Fatalf("Deduped = %d, want %d", st.Deduped, n-1)
	}

	// A failed flight must not poison the cache: the next caller
	// re-runs the builder.
	calls.Store(0)
	key2 := key
	key2.hash = 8
	if _, err := c.once(key2, func() (*artifact, error) {
		calls.Add(1)
		return nil, os.ErrInvalid
	}); err == nil {
		t.Fatal("failing builder should surface its error")
	}
	if art, err := c.once(key2, func() (*artifact, error) {
		calls.Add(1)
		return want, nil
	}); err != nil || art != want {
		t.Fatalf("retry after failed flight got (%v, %v)", art, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("failed flight must not be cached; builder ran %d times, want 2", got)
	}
}
