package core

// Persistent second level of the compile cache. The in-memory
// CompileCache dies with the process, so every `ngen` invocation used
// to re-verify and re-emit every kernel it touched. DiskCache stores
// the machine-independent compile products — generated C, native
// compile command, verifier verdict — content-addressed by the same
// key the memory cache uses (graph hash ⊕ kernel ⊕ microarch ⊕
// toolchain ⊕ backend) plus a toolchain fingerprint (Go runtime version,
// persistence format, feature set), so a stale or foreign entry can
// never be mistaken for a hit.
//
// A disk hit skips verification and C generation — the expensive
// "graph compile" — and goes straight to interpreter lowering, the
// analog of dlopen'ing a previously built shared object. Writes are
// atomic (temp file + rename in the cache directory), loads are
// corruption-tolerant (any parse, key, or checksum mismatch deletes
// the entry and falls back to a full rebuild), and the directory is
// kept under a byte budget by least-recently-used eviction (hits
// refresh mtimes).
//
// Eviction is one scan of the directory (evict), and a store does not
// run it every time. Each DiskCache keeps a running total of the .json
// bytes it knows about: a scan sets it to the directory's real size
// after eviction, and every compile-entry or plan write adds its
// length. A write scans only when it is the instance's first, when the
// total exceeds the budget, or when the instance has written more than
// an eighth of the budget since its last scan. The last rule bounds
// drift from other writers sharing the directory: with W writers the
// directory exceeds the budget by at most W·budget/8 plus one entry.
// Overwrites and deleted corrupt entries only make the total too high,
// which brings the next scan sooner. Stores into a cache under its
// budget therefore cost one file create each, not a directory scan; a
// cache held at its budget still scans on each store that crosses it.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/irverify"
)

// nowForMtime stamps LRU-refresh mtimes; a variable so eviction tests
// can order entries without sleeping.
var nowForMtime = time.Now

// persistVersion is bumped whenever the entry schema or the meaning of
// a field changes; it is folded into the fingerprint, so old entries
// miss instead of misparse. v2 added the execution-backend dimension to
// the key; v3 dropped the lowering-tier dimension (there is one tier).
const persistVersion = 3

// DefaultDiskCacheBytes is the eviction budget used by the CLI.
const DefaultDiskCacheBytes = 256 << 20

// DiskCache is an on-disk, content-addressed compile cache directory.
type DiskCache struct {
	dir      string
	maxBytes int64

	// mu serialises writes with evict scans and guards the running
	// byte accounting: known is the .json bytes this instance believes
	// the directory holds, sinceScan what it has written since its last
	// scan.
	mu        sync.Mutex
	known     int64
	sinceScan int64

	hits        atomic.Int64
	misses      atomic.Int64
	stores      atomic.Int64
	storeErrors atomic.Int64
	corrupt     atomic.Int64
	evictions   atomic.Int64
	scans       atomic.Int64
}

// OpenDiskCache opens (creating if needed) a cache directory with the
// given eviction budget in bytes (≤0 selects DefaultDiskCacheBytes).
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskCacheBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: disk cache: %w", err)
	}
	return &DiskCache{dir: dir, maxBytes: maxBytes}, nil
}

// Dir returns the cache directory.
func (d *DiskCache) Dir() string { return d.dir }

// DiskCacheStats is a point-in-time view of persistent-cache traffic.
// StoreErrors counts compile-entry writes that failed and were dropped;
// Scans counts eviction scans of the directory.
type DiskCacheStats struct {
	Hits, Misses, Stores, StoreErrors, Corrupt, Evictions, Scans int64
}

// Stats returns the cache's cumulative counters.
func (d *DiskCache) Stats() DiskCacheStats {
	return DiskCacheStats{
		Hits: d.hits.Load(), Misses: d.misses.Load(), Stores: d.stores.Load(),
		StoreErrors: d.storeErrors.Load(), Corrupt: d.corrupt.Load(),
		Evictions: d.evictions.Load(), Scans: d.scans.Load(),
	}
}

// diskEntry is the persisted form of one artifact. Program closures
// cannot serialise, so the entry carries everything needed to rebuild
// one cheaply: the verifier verdict (skipping irverify) and the
// generated C and link command (skipping cgen). Interpreter lowering
// re-runs on load — that is the dlopen analog, not a graph compile.
type diskEntry struct {
	Hash        string           `json:"hash"`
	Kernel      string           `json:"kernel"`
	Arch        string           `json:"arch"`
	Toolchain   string           `json:"toolchain"`
	Backend     string           `json:"backend"`
	Fingerprint string           `json:"fingerprint"`
	Source      string           `json:"source"`
	Command     string           `json:"command"`
	Verify      *irverify.Result `json:"verify"`
	Sum         uint64           `json:"sum"` // fnv-1a over the entry with Sum=0
}

func (e *diskEntry) checksum() uint64 {
	shadow := *e
	shadow.Sum = 0
	raw, err := json.Marshal(&shadow)
	if err != nil {
		return 0
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

// matches verifies the entry belongs to (key, fingerprint) and its
// checksum holds.
func (e *diskEntry) matches(key cacheKey, fp string) bool {
	return e.Hash == fmt.Sprintf("%016x", key.hash) &&
		e.Kernel == key.name &&
		e.Arch == key.arch &&
		e.Toolchain == key.toolchain &&
		e.Backend == key.backend &&
		e.Fingerprint == fp &&
		e.Sum == e.checksum()
}

// path derives the entry filename: the graph hash plus an fnv of the
// remaining key dimensions, so kernels sharing a graph under different
// toolchains or execution backends occupy distinct files.
func (d *DiskCache) path(key cacheKey, fp string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s",
		key.name, key.arch, key.toolchain, key.backend, fp)
	return filepath.Join(d.dir, fmt.Sprintf("%016x-%016x.json", key.hash, h.Sum64()))
}

// load returns the entry for (key, fingerprint) when present and
// intact. Corrupt or mismatched files are removed so the next store
// rewrites them.
func (d *DiskCache) load(key cacheKey, fp string) (*diskEntry, bool) {
	path := d.path(key, fp)
	raw, err := os.ReadFile(path)
	if err != nil {
		d.misses.Add(1)
		return nil, false
	}
	var ent diskEntry
	if json.Unmarshal(raw, &ent) != nil || !ent.matches(key, fp) {
		d.corrupt.Add(1)
		d.misses.Add(1)
		os.Remove(path) // best-effort: recompile will rewrite it
		return nil, false
	}
	d.hits.Add(1)
	now := nowForMtime()
	os.Chtimes(path, now, now) // refresh LRU position; best-effort
	return &ent, true
}

// store persists an artifact under (key, fingerprint) with an atomic
// rename, then accounts its bytes against the budget. A failed write
// is counted in StoreErrors and returned; the caller's compile stands.
func (d *DiskCache) store(key cacheKey, fp string, art *artifact) error {
	ent := &diskEntry{
		Hash:        fmt.Sprintf("%016x", key.hash),
		Kernel:      key.name,
		Arch:        key.arch,
		Toolchain:   key.toolchain,
		Backend:     key.backend,
		Fingerprint: fp,
		Source:      art.source,
		Command:     art.command,
		Verify:      art.verify,
	}
	ent.Sum = ent.checksum()
	raw, err := json.Marshal(ent)
	if err == nil {
		err = d.writeJSON(d.path(key, fp), "tmp-*.json", raw)
	}
	if err != nil {
		d.storeErrors.Add(1)
		return fmt.Errorf("core: disk cache store: %w", err)
	}
	d.stores.Add(1)
	return nil
}

// writeJSON atomically writes raw to path, an entry the eviction scan
// covers, through a temp file named by pattern; then it adds the bytes
// to the running total and scans when the total or this instance's
// writes since its last scan call for it.
func (d *DiskCache) writeJSON(path, pattern string, raw []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.writeAtomic(path, pattern, raw); err != nil {
		return err
	}
	n := int64(len(raw))
	d.known += n
	d.sinceScan += n
	if d.scans.Load() == 0 || d.known > d.maxBytes || d.sinceScan > d.maxBytes/8 {
		d.evict()
	}
	return nil
}

// writeAtomic writes data to a temp file in the cache directory and
// renames it to path. Called with mu held.
func (d *DiskCache) writeAtomic(path, pattern string, data []byte) error {
	tmp, err := os.CreateTemp(d.dir, pattern)
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// evict is the one eviction path: it scans the directory and removes
// least-recently-used .json entries until it fits the byte budget,
// then resets the running total to what the scan left. Called with mu
// held.
func (d *DiskCache) evict() {
	dents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	d.scans.Add(1)
	type fileInfo struct {
		path  string
		size  int64
		mtime int64
	}
	var files []fileInfo
	var total int64
	for _, de := range dents {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{
			path: filepath.Join(d.dir, de.Name()), size: info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
		total += info.Size()
	}
	if total > d.maxBytes {
		sort.Slice(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
		for _, f := range files {
			if total <= d.maxBytes {
				break
			}
			if os.Remove(f.path) == nil {
				total -= f.size
				d.evictions.Add(1)
			}
		}
	}
	d.known, d.sinceScan = total, 0
}

// --- blob sidecars -----------------------------------------------------------
//
// Backend build products (native plugin objects) persist as opaque
// .so sidecars next to the JSON entries, satisfying
// backend.ArtifactStore. Sidecars are deliberately exempt from the
// LRU eviction scan (which only considers .json files): a loaded Go
// plugin stays mapped for the process lifetime, so deleting its file
// out from under a running process buys nothing, and the canonical
// path must stay stable because the plugin runtime keys loaded modules
// by path.

// BlobPath returns the canonical sidecar path for key, whether or not
// a blob exists there.
func (d *DiskCache) BlobPath(key string) string {
	return filepath.Join(d.dir, "blob-"+key+".so")
}

// LoadBlob reports the canonical path of the stored blob for key, if
// present.
func (d *DiskCache) LoadBlob(key string) (string, bool) {
	p := d.BlobPath(key)
	if _, err := os.Stat(p); err != nil {
		return "", false
	}
	return p, true
}

// StoreBlob atomically writes data under key and returns its canonical
// path.
func (d *DiskCache) StoreBlob(key string, data []byte) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.BlobPath(key)
	if err := d.writeAtomic(p, "tmp-*.so", data); err != nil {
		return "", err
	}
	return p, nil
}

// --- plan sidecars -----------------------------------------------------------
//
// Calibrated execution plans (internal/plan) persist as plan-<id>.json
// entries in the same directory, satisfying plan.Store. They are
// ordinary .json files, so the LRU eviction scan covers them and their
// writes add to the running byte total that decides when it runs — a
// plan is regenerable by recalibration, exactly like a compile entry
// is by recompilation. Plans are write-once: the planner never rewrites a
// calibrated plan, so warm runs leave the files byte-identical (the
// planner-determinism test pins this).

// PlanPath returns the canonical path of the persisted plan for id.
func (d *DiskCache) PlanPath(id string) string {
	return filepath.Join(d.dir, "plan-"+id+".json")
}

// LoadPlan returns the persisted plan bytes for id, if present.
func (d *DiskCache) LoadPlan(id string) ([]byte, bool) {
	p := d.PlanPath(id)
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	now := nowForMtime()
	os.Chtimes(p, now, now) // refresh LRU position; best-effort
	return raw, true
}

// StorePlan atomically writes the plan bytes under id.
func (d *DiskCache) StorePlan(id string, data []byte) error {
	return d.writeJSON(d.PlanPath(id), "tmp-*.plan", data)
}

// diskFingerprint identifies everything outside the cache key that
// shapes a persisted artifact: the Go toolchain that built this
// binary, the persistence schema, and the exact feature set behind the
// microarchitecture name.
func (rt *Runtime) diskFingerprint() string {
	return fmt.Sprintf("%s;fmt%d;%s", runtime.Version(), persistVersion, rt.Arch.Features)
}
