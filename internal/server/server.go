package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Config sizes the daemon. Zero values pick serving defaults (one
// worker, queue of 16, in-memory-only job store, Haswell machine).
type Config struct {
	// Addr is the listen address (":0" picks an ephemeral port; the
	// bound address is printed and available via Addr()).
	Addr string
	// Workers is the job-executor pool size.
	Workers int
	// Queue bounds the pending-job queue; a full queue rejects
	// submissions with 429 + Retry-After instead of buffering without
	// limit (admission control).
	Queue int
	// Machine names the daemon's default microarchitecture ("" =
	// Haswell, the paper's platform).
	Machine string
	// Backend selects the execution backend ("" or "vm" = interpreter;
	// "native" degrades gracefully when unavailable).
	Backend string
	// CacheDir enables the persistent compile cache — a warm directory
	// makes serving compile-free.
	CacheDir string
	// StoreDir enables the filesystem job store; jobs survive restarts.
	StoreDir string
	// Drain bounds graceful shutdown: in-flight jobs get this long to
	// finish before their contexts are cancelled. Zero means 5s.
	Drain time.Duration
	// ResultCache enables the spec-keyed result cache: a repeated
	// identical request is answered from the stored result without
	// touching the queue. Entries live in a byte-budgeted memory LRU
	// and, when CacheDir is set, under <CacheDir>/results on disk.
	ResultCache bool
	// ResultCacheMem / ResultCacheDisk override the cache byte budgets
	// (zero picks 64 MiB / 256 MiB).
	ResultCacheMem  int64
	ResultCacheDisk int64
	// Coalesce enables request coalescing: concurrent identical
	// requests attach as followers to the in-flight leader job and
	// share its single execution, progress stream, and result.
	Coalesce bool
	// Resume re-enqueues sweep jobs that were pending or running when
	// the previous process died, continuing from their persisted
	// point checkpoints. Off (the zero value), such jobs recover as
	// failed — the pre-resume behavior.
	Resume bool
	// Plan controls the adaptive execution planner ("" or "auto"
	// enables it — per kernel × size bucket the daemon measures and
	// picks the fastest backend/lanes, persisting plans in
	// CacheDir; "off" pins the static interpreter path). Results are
	// byte-identical either way; see docs/PLANNER.md.
	Plan string
}

// Server is the ngend daemon: one shared base runtime (compile caches),
// per-tenant forked runtimes, a bounded FIFO job queue drained by a
// fixed worker pool, and a filesystem-backed job history.
type Server struct {
	cfg Config
	// RT is the base runtime every tenant forks from. Exposed so tests
	// can swap the backend (e.g. the nonexistent-GoTool trick).
	RT  *core.Runtime
	Reg *obs.Registry

	store   *fsStore
	jobs    *index
	tenants *tenantSet
	queue   chan *job

	// results is the spec-keyed result cache (nil when disabled).
	results *resultCache
	// inflight is the single-flight table: canonical spec hash → the
	// leader job currently queued or executing it. flightMu orders
	// lookups/registrations against leader completion; lock order is
	// flightMu > job.mu > stream.mu.
	flightMu sync.Mutex
	inflight map[string]*job

	httpSrv   *http.Server
	listener  net.Listener
	workers   sync.WaitGroup
	draining  atomic.Bool
	rejected  atomic.Int64
	coalesced atomic.Int64
	resumed   atomic.Int64

	// Test seams: beforeJob blocks a worker before it picks the job up
	// (queue-overflow tests), pointHook runs inside every sweep point
	// (cancellation tests). Both nil in production.
	beforeJob func()
	pointHook func()
}

// New builds a server from cfg: base runtime (machine, backend, disk
// cache), job store recovery, and the worker pool. The HTTP listener
// is not started until Start.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 5 * time.Second
	}

	rt, err := baseRuntime(cfg)
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:      cfg,
		RT:       rt,
		Reg:      obs.NewRegistry(),
		jobs:     newIndex(),
		tenants:  newTenantSet(rt),
		queue:    make(chan *job, cfg.Queue),
		inflight: map[string]*job{},
	}

	if cfg.ResultCache {
		dir := ""
		if cfg.CacheDir != "" {
			dir = filepath.Join(cfg.CacheDir, "results")
		}
		rc, err := newResultCache(dir, cfg.ResultCacheMem, cfg.ResultCacheDisk)
		if err != nil {
			return nil, err
		}
		s.results = rc
	}

	if cfg.StoreDir != "" {
		st, err := openFSStore(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = st
		if err := s.recover(); err != nil {
			return nil, err
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// baseRuntime assembles the daemon's shared runtime from the config.
func baseRuntime(cfg Config) (*core.Runtime, error) {
	rt := core.DefaultRuntime()
	if cfg.Machine != "" {
		arch, err := archFor(cfg.Machine)
		if err != nil {
			return nil, err
		}
		rt = rt.ForkTenant(arch)
	}
	if cfg.CacheDir != "" {
		d, err := core.OpenDiskCache(cfg.CacheDir, 0)
		if err != nil {
			return nil, err
		}
		rt.Disk = d
	}
	if cfg.Backend != "" && cfg.Backend != "vm" {
		if err := rt.UseBackend(cfg.Backend); err != nil {
			// Same graceful degradation as the CLI: serve on the
			// interpreter, results identical.
			fmt.Printf("ngend: backend %q unavailable, serving on vm: %v\n", cfg.Backend, err)
		}
	}
	switch cfg.Plan {
	case "", "auto":
		// Planner on by default: every tenant fork shares it, so
		// calibration from any job speeds all later identical shapes.
		// Plans persist beside the compile cache when CacheDir is set.
		rt.EnableAutoPlan()
	case "off":
	default:
		return nil, fmt.Errorf("unknown plan mode %q (auto | off)", cfg.Plan)
	}
	return rt, nil
}

// recover replays the job store. Terminal records become browsable
// history. Jobs that were pending or running when the process died:
// with Resume on, sweep jobs re-enqueue carrying their persisted point
// checkpoints (recover runs before the worker pool starts, so the
// buffered queue absorbs them); everything else — and every
// interrupted job with Resume off — is marked failed, because silently
// re-running side effects on boot would surprise more than a visible
// failure does.
func (s *Server) recover() error {
	recs, err := s.store.loadAll()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if !rec.State.Terminal() {
			if s.cfg.Resume && rec.Spec.Type == "sweep" && s.resumeJob(rec) {
				continue
			}
			rec.Error = fmt.Sprintf("ngend restarted while job was %s", rec.State)
			rec.State = StateFailed
			rec.FinishedNS = time.Now().UnixNano()
			if err := s.store.put(rec); err != nil {
				return err
			}
		}
		s.jobs.adopt(rec)
	}
	return nil
}

// resumeJob re-enqueues one interrupted sweep as pending, restoring
// its checkpoint map so the sweep skips every already-measured point.
// Reports false (caller falls back to the mark-failed path) only when
// the queue cannot hold the job.
func (s *Server) resumeJob(rec Record) bool {
	rec.State = StatePending
	rec.Error = ""
	rec.StartedNS = 0
	rec.Resumed = true
	j := s.jobs.readopt(rec)
	j.specHash = hashSpec(rec.Spec, s.RT.Arch.Name)
	if ck, err := s.store.loadCkpt(rec.ID); err == nil && len(ck) > 0 {
		j.ckpt = ck
	}
	select {
	case s.queue <- j:
	default:
		s.jobs.drop(j)
		return false
	}
	if s.cfg.Coalesce {
		s.inflight[j.specHash] = j
	}
	s.resumed.Add(1)
	s.persist(j)
	j.stream.publish(Event{Event: "state", State: StatePending}, false)
	return true
}

// submit validates, registers, persists and enqueues one job. Three
// fast paths precede the queue: a result-cache hit answers instantly
// as a terminal job; an identical in-flight job adopts the request as
// a coalesced follower; otherwise the job leads — it takes a queue
// slot (a full queue returns errBusy without registering anything)
// and registers in the single-flight table for later arrivals.
func (s *Server) submit(spec Spec) (*job, error) {
	if err := validateSpec(spec); err != nil {
		return nil, err
	}
	if s.draining.Load() {
		return nil, errDraining
	}
	hash := hashSpec(spec, s.RT.Arch.Name)

	if s.results != nil {
		if ent, ok := s.results.get(hash, canonicalSpec(spec, s.RT.Arch.Name)); ok {
			return s.cachedJob(spec, hash, ent), nil
		}
	}

	if s.cfg.Coalesce {
		return s.submitCoalescing(spec, hash)
	}

	// Reserve the queue slot first: admission control must not create
	// a job record it then cannot queue.
	j := s.jobs.add(spec)
	j.specHash = hash
	select {
	case s.queue <- j:
	default:
		s.jobs.drop(j)
		s.rejected.Add(1)
		return nil, errBusy
	}
	s.persist(j)
	j.stream.publish(Event{Event: "state", State: StatePending}, false)
	return j, nil
}

// cachedJob materializes a result-cache hit as an already-done job:
// browsable, streamable (single terminal event), persisted — but it
// never occupied a queue slot or executed anything. The tenant's job
// count still increments; its op counters don't, because no ops ran.
func (s *Server) cachedJob(spec Spec, hash string, ent resultEntry) *job {
	j := s.jobs.add(spec)
	j.specHash = hash
	now := time.Now().UnixNano()
	j.mu.Lock()
	j.rec.State = StateDone
	j.rec.StartedNS = now
	j.rec.FinishedNS = now
	j.rec.Result = ent.Result
	j.rec.ResultType = ent.ResultType
	j.rec.Cached = true
	j.mu.Unlock()
	j.cancel()
	s.tenants.get(spec.Tenant).absorb(nil)
	s.persist(j)
	j.stream.publish(Event{Event: "done", State: StateDone}, true)
	return j
}

// submitCoalescing is the single-flight submit path. The whole
// check-attach-or-lead sequence holds flightMu, so two identical
// concurrent submissions cannot both become leaders, and a follower
// can never attach to a leader that already cleared itself.
func (s *Server) submitCoalescing(spec Spec, hash string) (*job, error) {
	s.flightMu.Lock()
	if leader, ok := s.inflight[hash]; ok {
		leader.mu.Lock()
		if !leader.rec.State.Terminal() {
			f := s.jobs.add(spec)
			f.specHash = hash
			f.rec.CoalescedWith = leader.rec.ID
			// Copy the leader's event history before registering the
			// follower: publishJob fans out under leader.mu, so the
			// follower's stream sees every event exactly once.
			f.stream.adopt(leader.stream.history())
			leader.followers = append(leader.followers, f)
			leader.mu.Unlock()
			s.flightMu.Unlock()
			s.coalesced.Add(1)
			s.persist(f)
			return f, nil
		}
		// Leader reached a terminal state between hash lookup and
		// attach — stale entry; this request leads a fresh execution.
		leader.mu.Unlock()
		delete(s.inflight, hash)
	}

	j := s.jobs.add(spec)
	j.specHash = hash
	select {
	case s.queue <- j:
		s.inflight[hash] = j
		s.flightMu.Unlock()
	default:
		s.flightMu.Unlock()
		s.jobs.drop(j)
		s.rejected.Add(1)
		return nil, errBusy
	}
	s.persist(j)
	s.publishJob(j, Event{Event: "state", State: StatePending}, false)
	return j, nil
}

// publishJob fans one event out to the job's stream and — for
// non-terminal events — every follower's stream, while holding j.mu.
// The lock is what makes follower attachment gap-free: an attach
// either happens before the fan-out (the follower is in the list and
// receives the event live) or after it (the copied history already
// contains the event). Terminal events go to the leader's stream
// only; finalizeFollowers closes each follower with its own record.
func (s *Server) publishJob(j *job, ev Event, terminal bool) {
	j.mu.Lock()
	j.stream.publish(ev, terminal)
	if !terminal {
		for _, f := range j.followers {
			f.stream.publish(ev, false)
		}
	}
	j.mu.Unlock()
}

// clearInflight removes the job from the single-flight table if it is
// still the registered leader for its hash (a fresh leader may have
// replaced a terminal one already).
func (s *Server) clearInflight(j *job) {
	if j.specHash == "" {
		return
	}
	s.flightMu.Lock()
	if s.inflight[j.specHash] == j {
		delete(s.inflight, j.specHash)
	}
	s.flightMu.Unlock()
}

// finalizeFollowers adopts the leader's terminal record into every
// follower still open (one cancelled individually keeps its own
// state), persists them, closes their streams, and attributes one job
// (zero ops — the leader's tenant absorbed the execution's counts) to
// each follower's tenant. The follower set is frozen: attach refuses
// terminal leaders, and final is only taken after the leader's record
// turned terminal.
func (s *Server) finalizeFollowers(j *job, final Record) {
	j.mu.Lock()
	followers := j.followers
	j.followers = nil
	j.mu.Unlock()
	for _, f := range followers {
		f.mu.Lock()
		if f.rec.State.Terminal() {
			f.mu.Unlock()
			continue
		}
		f.rec.State = final.State
		f.rec.Error = final.Error
		f.rec.Result = final.Result
		f.rec.ResultType = final.ResultType
		f.rec.Plan = final.Plan
		f.rec.StartedNS = final.StartedNS
		f.rec.FinishedNS = final.FinishedNS
		frec := f.rec
		f.mu.Unlock()
		f.cancel()
		s.persist(f)
		f.stream.publish(Event{Event: "done", State: frec.State, Error: frec.Error}, true)
		s.tenants.get(frec.Spec.Tenant).absorb(nil)
	}
}

var (
	errBusy     = fmt.Errorf("job queue full")
	errDraining = fmt.Errorf("server is shutting down")
)

// worker drains the queue until it closes.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		if s.beforeJob != nil {
			s.beforeJob()
		}
		s.execute(j)
	}
}

// execute runs one job through its lifecycle, persisting every
// transition and publishing stream events — to its own stream and,
// through publishJob, to every coalesced follower's.
func (s *Server) execute(j *job) {
	j.mu.Lock()
	if j.rec.State != StatePending { // cancelled while queued
		j.mu.Unlock()
		s.clearInflight(j)
		return
	}
	j.rec.State = StateRunning
	j.rec.StartedNS = time.Now().UnixNano()
	j.mu.Unlock()
	s.persist(j)
	s.publishJob(j, Event{Event: "state", State: StateRunning}, false)

	payload, ctype, counts, err := s.runJob(j)
	if counts != nil {
		s.tenants.get(j.snapshot().Spec.Tenant).absorb(counts)
	}

	j.mu.Lock()
	j.rec.FinishedNS = time.Now().UnixNano()
	switch {
	case j.ctx.Err() != nil || err == context.Canceled:
		j.rec.State = StateCancelled
		j.rec.Error = "cancelled"
	case err != nil:
		j.rec.State = StateFailed
		j.rec.Error = err.Error()
	default:
		j.rec.State = StateDone
		j.rec.Result = payload
		j.rec.ResultType = ctype
	}
	final := j.rec
	j.mu.Unlock()
	j.cancel()
	// Unregister from the single-flight table before fan-out: any
	// identical request arriving from here on leads a fresh execution
	// (or hits the result cache, populated below).
	s.clearInflight(j)
	if final.State == StateDone && s.results != nil {
		s.results.put(j.specHash, canonicalSpec(final.Spec, s.RT.Arch.Name),
			final.Result, final.ResultType)
	}
	if final.State.Terminal() && s.store != nil {
		s.store.delCkpt(final.ID) // checkpoints are only for interrupted jobs
	}
	s.Reg.Histogram("server.job.us").Observe((final.FinishedNS - final.StartedNS) / 1e3)
	s.persist(j)
	s.publishJob(j, Event{Event: "done", State: final.State, Error: final.Error}, true)
	s.finalizeFollowers(j, final)
}

// cancelJob cancels a pending or running job. Pending jobs transition
// immediately; running jobs transition when the executor observes the
// context (sweeps poll it at point granularity).
func (s *Server) cancelJob(j *job) bool {
	j.mu.Lock()
	rec := j.rec
	if rec.State.Terminal() {
		j.mu.Unlock()
		return false
	}
	wasPending := rec.State == StatePending
	if wasPending {
		j.rec.State = StateCancelled
		j.rec.Error = "cancelled"
		j.rec.FinishedNS = time.Now().UnixNano()
	}
	final := j.rec
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	if wasPending {
		// A cancelled-while-queued leader never reaches the executor's
		// finalize path, so its followers (and the single-flight entry)
		// are settled here.
		s.clearInflight(j)
		s.persist(j)
		j.stream.publish(Event{Event: "done", State: StateCancelled, Error: "cancelled"}, true)
		s.finalizeFollowers(j, final)
	}
	return true
}

// persist writes the job's current record through the store (no-op
// without one).
func (s *Server) persist(j *job) {
	if s.store == nil {
		return
	}
	if err := s.store.put(j.snapshot()); err != nil {
		fmt.Printf("ngend: job store write failed: %v\n", err)
	}
}

// Start binds the listener and serves until Shutdown. It returns once
// the listener is bound; the printed line is the startup handshake
// scripts wait for.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	fmt.Printf("ngend: listening on %s\n", ln.Addr())
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Printf("ngend: serve: %v\n", err)
		}
	}()
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.listener == nil {
		return s.cfg.Addr
	}
	return s.listener.Addr().String()
}

// Shutdown drains gracefully: stop admitting, cancel still-queued
// jobs, give in-flight jobs the drain deadline to finish, then cancel
// whatever remains and close the HTTP server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	close(s.queue)

	// Cancel jobs still sitting in the queue — workers will skip them.
	for _, rec := range s.jobs.list() {
		if rec.State == StatePending {
			if j, ok := s.jobs.get(rec.ID); ok {
				s.cancelJob(j)
			}
		}
	}

	done := make(chan struct{})
	go func() { s.workers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.Drain):
		// Deadline passed: cancel in-flight jobs and wait for the
		// workers to observe it.
		for _, rec := range s.jobs.list() {
			if rec.State == StateRunning {
				if j, ok := s.jobs.get(rec.ID); ok {
					s.cancelJob(j)
				}
			}
		}
		<-done
	}

	if s.httpSrv != nil {
		return s.httpSrv.Shutdown(ctx)
	}
	return nil
}

// publishMetrics refreshes the server-level gauges and counters; the
// HTTP middleware maintains the per-endpoint series continuously.
func (s *Server) publishMetrics() {
	r := s.Reg
	r.Gauge("server.queue.depth").Set(int64(len(s.queue)))
	r.Gauge("server.queue.capacity").Set(int64(cap(s.queue)))
	r.Gauge("server.workers").Set(int64(s.cfg.Workers))
	r.Gauge("server.jobs.rejected").Set(s.rejected.Load())
	for state, n := range s.jobs.byState() {
		r.Gauge("server.jobs." + string(state)).Set(int64(n))
	}
	var dropped int64
	for _, rec := range s.jobs.list() {
		if j, ok := s.jobs.get(rec.ID); ok {
			dropped += j.stream.droppedCount()
		}
	}
	r.Gauge("server.stream.dropped").Set(dropped)
	r.Gauge("server.store.corrupt").Set(s.store.Corrupt())

	r.Gauge("server.coalesce.followers").Set(s.coalesced.Load())
	s.flightMu.Lock()
	r.Gauge("server.coalesce.inflight").Set(int64(len(s.inflight)))
	s.flightMu.Unlock()
	r.Gauge("server.resume.jobs").Set(s.resumed.Load())
	if rc := s.results; rc != nil {
		r.Gauge("server.resultcache.hits").Set(rc.hits.Load())
		r.Gauge("server.resultcache.misses").Set(rc.misses.Load())
		r.Gauge("server.resultcache.stores").Set(rc.stores.Load())
		r.Gauge("server.resultcache.evictions").Set(rc.evictions.Load())
		r.Gauge("server.resultcache.bytes").Set(rc.memSize())
	}

	cs := s.RT.CacheStats()
	r.Gauge("server.cache.hits").Set(cs.Hits)
	r.Gauge("server.cache.misses").Set(cs.Misses)
	r.Gauge("server.cache.entries").Set(int64(cs.Entries))
	if total := cs.Hits + cs.Misses; total > 0 {
		r.Gauge("server.cache.hit_ratio_pct").Set(cs.Hits * 100 / total)
	}
	r.Gauge("server.compile.full").Set(core.FullCompiles())
	if ds, ok := s.RT.DiskStats(); ok {
		r.Gauge("server.diskcache.hits").Set(ds.Hits)
		r.Gauge("server.diskcache.misses").Set(ds.Misses)
		r.Gauge("server.diskcache.stores").Set(ds.Stores)
	}
	for name, v := range s.RT.BackendCounters() {
		r.Gauge("server.backend." + name).Set(v)
	}
	if p := s.RT.Planner; p != nil {
		for name, v := range p.Stats() {
			r.Gauge("server.plan." + name).Set(v)
		}
		r.Gauge("server.plan.plans").Set(int64(len(p.Snapshot())))
	}
}
