package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/kernels"
	"repro/internal/server"
)

// The serve-mix open loop offers jobs at each of these rates (jobs/s)
// in turn, each for its share of the load phase. serveNominal indexes
// the rate job_p50_ms is reported at; it gets the longest step so its
// median rests on the most samples.
var serveSteps = []struct{ rate, share float64 }{{10, 0.2}, {20, 0.5}, {30, 0.3}}

const serveNominal = 1

// serveLimitMS is the fixed latency limit on each step's tail
// percentile: max_jobs_per_s is the highest rate step whose tail meets
// it with no refused or failed job and a drained queue.
const serveLimitMS = 500

// serveLoadShare is the share of --seconds the rate steps take
// together; the rest covers set-up, reference rendering, drains and
// the post-phase result checks.
const serveLoadShare = 0.75

// serveLoadSeconds is the load phase of a run: its share of --seconds,
// capped at the size a 30-second run gives, since the daemon keeps
// every job's result in memory and a longer load outgrows a small host.
func serveLoadSeconds(s *session) float64 { return min(s.seconds, 30) * serveLoadShare }

// Execute results are compared with the kernels' scalar Go references
// within a relative tolerance: the staged kernels fuse multiply-adds
// and reorder sums, so they round differently from the references.
const (
	linearTol = 1e-6 // saxpy: one fused multiply-add per element
	reduceTol = 1e-4 // mmm / dot: sums of up to 2^17 products, reordered
)

// The request mix, as shares of each step's jobs. Every step of every
// seed offers the same mix — the counts of each kind, the spread of
// sizes, the kernel proportions — and the seed decides the order, the
// arrival jitter and the exact sizes, so runs with different seeds put
// the same load on the daemon.
const (
	sweepShare  = 0.03 // small fig6a / fig7 sweeps (Java lane, checkpoints)
	burstShare  = 0.03 // arrivals of three identical concurrent requests (coalescing)
	repeatShare = 0.14 // exact repeats of an earlier request (result-cache reads)
	matrixShare = 0.06 // share of fresh execute jobs on the matrix kernels
)

// repeatAge is how long before its repeat a request must have been due,
// so a repeat reads the result cache instead of coalescing with a run
// still in flight (bursts exercise coalescing).
const repeatAge = 2 * time.Second

// mixJob is one scheduled request of the open loop.
type mixJob struct {
	step int
	// due is the send time as an offset from its step's start.
	due  time.Duration
	spec server.Spec
	kind string // fresh | repeat | burst | sweep
}

// linearKernels is one cycle of the kernels fresh vector-length jobs
// run, in proportion.
var linearKernels = []string{"saxpy", "saxpy", "saxpy_multi", "dot32", "dot32"}

var matrixKernels = []string{"mmm_blocked", "mmm_naive"}

var tenants = []string{"alice", "bob", "carol"}

// spread returns n stratified draws in [0, 1) in seeded order: one
// uniform draw from each of n equal strata, so every set covers the
// range evenly.
func (r *rng) spread(n int) []float64 {
	out := make([]float64, n)
	for i, j := range r.perm(n) {
		out[j] = (float64(i) + r.float64()) / float64(n)
	}
	return out
}

// genSchedule draws the open loop's requests from the seed. Per rate
// step, rate × its share of loadSeconds jobs arrive at the step's rate
// with seeded jitter (gaps uniform in [0.5, 1.5] of the mean, scaled to
// span the step). Fresh execute jobs run saxpy / saxpy_multi / dot32 at
// n spread over [2^10, 2^17) on a log scale, or mmm_blocked / mmm_naive
// at n spread over 8..128 (each matrix request at most once, so a fresh
// one never hits the result cache); small sweeps take one low and one
// high size of their figure's axis; repeats re-send a request due at
// least repeatAge earlier.
func genSchedule(seed uint64, loadSeconds float64) []mixJob {
	r := newRng(seed*0xD1B54A32D192ED03 + 7)
	seen := map[string]bool{}
	type past struct {
		spec server.Spec
		step int
		due  time.Duration
	}
	var history []past

	// Every low/high size pair of each figure's small axis, shuffled.
	figs := []string{"fig6a", "fig7"}
	sweeps := map[string][]server.Spec{}
	for i, ax := range [][3]int{{6, 10, 13}, {7, 10, 12}} {
		var pairs []server.Spec
		for a := ax[0]; a < ax[1]; a++ {
			for b := ax[1]; b <= ax[2]; b++ {
				pairs = append(pairs, server.Spec{Type: "sweep", Figure: figs[i], Sizes: []int{1 << a, 1 << b}})
			}
		}
		for _, j := range r.perm(len(pairs)) {
			sweeps[figs[i]] = append(sweeps[figs[i]], pairs[j])
		}
	}
	nextFig := 0
	sweep := func() server.Spec {
		for tries := 0; ; tries++ {
			fig := figs[nextFig%2]
			nextFig++
			sp := server.Spec{Type: "sweep", Figure: fig,
				Sizes: []int{1 << (6 + r.intn(3)), 1 << (9 + r.intn(2)), 1 << (11 + r.intn(2))}}
			if len(sweeps[fig]) > 0 {
				sp, sweeps[fig] = sweeps[fig][0], sweeps[fig][1:]
			} else if tries < 2 {
				continue // try the other figure's pairs first
			}
			if !seen[specKey(sp)] {
				seen[specKey(sp)] = true
				return sp
			}
		}
	}
	linear := func(kernel string, x float64) server.Spec {
		n, step := int(math.Exp2(10+7*x)), 1
		if kernel == "dot32" {
			n, step = max(32, n/32*32), 32 // the unrolled dot product steps 32 elements
		}
		sp := server.Spec{Type: "execute", Kernel: kernel, N: n}
		for seen[specKey(sp)] {
			sp.N += step
		}
		seen[specKey(sp)] = true
		return sp
	}
	// matrix takes the unused (kernel, n) request nearest to the drawn
	// size, preferring the drawn kernel.
	matrix := func(k int, x float64) (server.Spec, bool) {
		want := int(16 * x)
		for d := 0; d < 16; d++ {
			for _, i := range []int{want - d, want + d} {
				for _, kk := range []int{k, 1 - k} {
					sp := server.Spec{Type: "execute", Kernel: matrixKernels[kk], N: 8 * (1 + i)}
					if i >= 0 && i < 16 && !seen[specKey(sp)] {
						seen[specKey(sp)] = true
						return sp, true
					}
				}
			}
		}
		return server.Spec{}, false
	}

	var out []mixJob
	for step, st := range serveSteps {
		stepSeconds := st.share * loadSeconds
		jobs := int(st.rate * stepSeconds)
		nSweep := int(math.Round(sweepShare * float64(jobs)))
		nBurst := int(math.Round(burstShare * float64(jobs)))
		nRepeat := int(math.Round(repeatShare * float64(jobs)))
		nFresh := jobs - nSweep - 3*nBurst - nRepeat
		nMatrix := int(math.Round(matrixShare * float64(nFresh)))
		nLinear := nFresh - nMatrix + nBurst

		var cards []string
		for _, c := range []struct {
			kind string
			n    int
		}{{"sweep", nSweep}, {"burst", nBurst}, {"repeat", nRepeat}, {"matrix", nMatrix}, {"fresh", nFresh - nMatrix}} {
			for i := 0; i < c.n; i++ {
				cards = append(cards, c.kind)
			}
		}
		// This step's stratified sizes, consumed in arrival order. The
		// kernel cycle runs along the sizes in ascending order, so each
		// kernel gets the same spread of sizes and the step's output
		// bytes do not depend on the seed.
		linX, matX := r.spread(nLinear), r.spread(nMatrix)
		linK := make([]string, nLinear)
		offset := r.intn(len(linearKernels))
		for i, x := range linX {
			linK[i] = linearKernels[(int(x*float64(nLinear))+offset)%len(linearKernels)]
		}
		matK := r.perm(nMatrix)
		nextLinear := func() server.Spec {
			sp := linear(linK[0], linX[0])
			linK, linX = linK[1:], linX[1:]
			return sp
		}
		anyLinear := func() server.Spec {
			return linear(linearKernels[r.intn(len(linearKernels))], r.float64())
		}

		order := r.perm(len(cards))
		gaps := make([]float64, len(cards))
		for i := range gaps {
			gaps[i] = 0.5 + r.float64()
		}
		total, acc := sum(gaps), 0.0
		for a, ci := range order {
			due := time.Duration(acc / total * stepSeconds * float64(time.Second))
			acc += gaps[a]
			add := func(sp server.Spec, kind string) {
				sp.Tenant = tenants[r.intn(len(tenants))]
				out = append(out, mixJob{step: step, due: due, spec: sp, kind: kind})
			}
			fresh := func(sp server.Spec, kind string) {
				history = append(history, past{sp, step, due})
				add(sp, kind)
			}
			switch kind := cards[ci]; kind {
			case "sweep":
				fresh(sweep(), kind)
			case "burst":
				sp := nextLinear()
				fresh(sp, kind)
				add(sp, kind)
				add(sp, kind)
			case "repeat":
				var old []server.Spec
				for _, h := range history {
					if h.step < step || h.due <= due-repeatAge {
						old = append(old, h.spec)
					}
				}
				if len(old) == 0 { // nothing old enough yet, at the very start
					fresh(anyLinear(), "fresh")
					break
				}
				add(old[r.intn(len(old))], kind)
			case "matrix":
				sp, ok := matrix(matK[0]%2, matX[0])
				matK, matX = matK[1:], matX[1:]
				if !ok {
					sp = anyLinear()
				}
				fresh(sp, "fresh")
			default:
				fresh(nextLinear(), "fresh")
			}
		}
	}
	return out
}

// perm is a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// specKey identifies a request by what it computes (tenant excluded,
// as the daemon's own result cache does).
func specKey(sp server.Spec) string {
	return fmt.Sprintf("%s|%s|%d|%s|%v", sp.Type, sp.Kernel, sp.N, sp.Figure, sp.Sizes)
}

// daemon is an in-process ngend served over loopback HTTP.
type daemon struct {
	srv  *server.Server
	base string
}

// startDaemon is the serve-mix set-up: server.New with a fresh job
// store and cache directory, ngend's defaults (result cache, coalescing
// and resume on) except the planner, which is off because its picks
// under load make latencies unsteady (RATIONALE.md), and workers at the
// benchmark's concurrency; then Start, then GET /healthz until ok.
func startDaemon(s *session, dir string) (*daemon, error) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Workers: s.workers,
		CacheDir: filepath.Join(dir, "cache"), StoreDir: filepath.Join(dir, "store"),
		ResultCache: true, Coalesce: true, Resume: true, Plan: "off"})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, base: "http://" + srv.Addr()}
	client := newClient()
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); ; {
		var h server.Healthz
		code, err := getJSON(client, d.base+"/healthz", &h)
		if err == nil && code == http.StatusOK && h.Status == "ok" {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy: status %d, %v", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// newClient is one HTTP client holding at most one connection. The
// open loop uses two (nproc on the host the load is sized for).
func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func getJSON(c *http.Client, url string, v any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// jobOutcome is one scheduled job as the client saw it.
type jobOutcome struct {
	job    mixJob
	dueNS  int64 // wall-clock due time
	lagNS  int64 // how late the sender posted it
	id     string
	status int // POST status (202 accepted)
	rec    server.Record
	err    error // wrong output, failed job, refused, or transport error
	done   bool  // reached a terminal state the client saw
}

// latencyMS is the job's latency from its due time to its terminal
// state; refused and failed jobs count as infinitely late.
func (o *jobOutcome) latencyMS() float64 {
	if o.err != nil || !o.done {
		return math.Inf(1)
	}
	return float64(o.rec.FinishedNS-o.dueNS) / 1e6
}

// serveRun is one open-loop run's raw observations.
type serveRun struct {
	outcomes []*jobOutcome
	submit   []time.Duration // POST round trips
	metrics  map[string]int64
	storeB   int64
	compiles int64
}

// refTable renders a sweep request's expected table with a fresh
// default suite, before the timed phase.
func refTable(sp server.Spec) (string, error) {
	return bench.NewSuite().RunFigure(sp.Figure, sp.Sizes)
}

// waitDrained polls /healthz until no job is pending or running.
func waitDrained(c *http.Client, base string, limit time.Duration) error {
	for t0 := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		var h server.Healthz
		if _, err := getJSON(c, base+"/healthz", &h); err != nil {
			return err
		}
		if h.Jobs[server.StatePending]+h.Jobs[server.StateRunning] == 0 {
			return nil
		}
		if time.Since(t0) > limit {
			return fmt.Errorf("serve-mix: jobs still queued or running after %v", limit)
		}
	}
}

// runOpenLoop drives one fresh daemon through the schedule. Two sender
// goroutines, one connection each, post every job at its due time
// whatever the daemon is doing (an open loop); a job's latency runs
// from its due time to the FinishedNS the daemon records, so nothing
// needs to watch jobs while the load runs. Steps run in turn, each
// after the previous one has drained; once all have, every job's
// record is fetched and its output checked.
func runOpenLoop(s *session, sched []mixJob, tr *tracer) (*serveRun, error) {
	refs := map[string]string{}
	for _, j := range sched {
		if j.spec.Type == "sweep" && refs[specKey(j.spec)] == "" {
			text, err := refTable(j.spec)
			if err != nil {
				return nil, err
			}
			refs[specKey(j.spec)] = text
		}
	}

	d, err := startDaemon(s, s.dir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	clients := []*http.Client{newClient(), newClient()}
	for _, c := range clients {
		defer c.CloseIdleConnections()
	}
	var before server.Healthz
	if _, err := getJSON(clients[0], d.base+"/healthz", &before); err != nil {
		return nil, err
	}

	run := &serveRun{outcomes: make([]*jobOutcome, len(sched))}
	tracers := []*tracer{newTracerIf(tr), newTracerIf(tr)}
	submits := make([][]time.Duration, len(clients))
	for step := range serveSteps {
		if err := waitDrained(clients[0], d.base, 30*time.Second); err != nil {
			return nil, err
		}
		var idx []int
		for i, j := range sched {
			if j.step == step {
				idx = append(idx, i)
			}
		}
		stepStart := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					k := int(next.Add(1) - 1)
					if k >= len(idx) {
						return
					}
					j := sched[idx[k]]
					due := stepStart.Add(j.due)
					time.Sleep(time.Until(due))
					o := &jobOutcome{job: j, dueNS: due.UnixNano(), lagNS: time.Since(due).Nanoseconds()}
					body, _ := json.Marshal(j.spec)
					t0 := time.Now()
					o.status, o.id, o.err = post(clients[c], d.base+"/v1/jobs", body)
					rtt := time.Since(t0)
					submits[c] = append(submits[c], rtt)
					tracers[c].add("server.submit", rtt)
					if o.err == nil && o.status != http.StatusAccepted {
						o.err = fmt.Errorf("%s job refused: status %d", j.kind, o.status)
					}
					run.outcomes[idx[k]] = o
				}
			}(c)
		}
		wg.Wait()
	}
	if err := waitDrained(clients[0], d.base, 60*time.Second); err != nil {
		return nil, err
	}
	for c := range clients {
		run.submit = append(run.submit, submits[c]...)
		tr.merge(tracers[c])
	}

	// Post-phase: fetch each accepted job's record and check it.
	for _, o := range run.outcomes {
		if o.err != nil {
			continue
		}
		var rec server.Record
		var code int
		err := tr.span("server.fetch", func() (err error) {
			code, err = getJSON(clients[0], d.base+"/v1/jobs/"+o.id, &rec)
			return err
		})
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET job %s: status %d", o.id, code)
		}
		if err == nil {
			o.rec, o.done = rec, rec.State.Terminal()
			err = checkJob(o, refs)
		}
		o.err = err
		// Keep the timestamps, drop the payload: records are checked
		// one at a time so the client never holds every result.
		o.rec.Result = ""
	}

	var m struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if _, err := getJSON(clients[0], d.base+"/metrics", &m); err != nil {
		return nil, err
	}
	run.metrics = m.Gauges
	for k, v := range m.Counters {
		run.metrics[k] = v
	}
	var after server.Healthz
	if _, err := getJSON(clients[0], d.base+"/healthz", &after); err != nil {
		return nil, err
	}
	run.compiles = after.Compiles - before.Compiles
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if run.storeB, err = dirBytes(filepath.Join(s.dir, "store")); err != nil {
		return nil, err
	}
	return run, nil
}

func newTracerIf(tr *tracer) *tracer {
	if tr == nil {
		return nil
	}
	return newTracer()
}

// post submits one job and returns the status and, when accepted, the
// job id. Only the id is decoded: a result-cache hit answers with the
// whole result, which the post-phase check reads instead.
func post(c *http.Client, url string, body []byte) (int, string, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, "", nil
	}
	var rec struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rec)
	return resp.StatusCode, rec.ID, err
}

// checkJob verifies one terminal job: it must be done, a sweep's table
// must equal the suite's rendering, and an execute result must match
// the kernel's scalar Go reference on the daemon's deterministic
// inputs within the stated tolerance.
func checkJob(o *jobOutcome, refs map[string]string) error {
	rec, sp := o.rec, o.job.spec
	if rec.State != server.StateDone {
		return fmt.Errorf("%s job %s ended %s: %s", o.job.kind, rec.ID, rec.State, rec.Error)
	}
	if sp.Type == "sweep" {
		if rec.Result != refs[specKey(sp)] {
			return fmt.Errorf("sweep job %s (%s %v): table differs from the suite's", rec.ID, sp.Figure, sp.Sizes)
		}
		return nil
	}
	var res server.ExecResult
	if err := json.Unmarshal([]byte(rec.Result), &res); err != nil {
		return fmt.Errorf("execute job %s: %w", rec.ID, err)
	}
	if err := checkExec(sp, res); err != nil {
		return fmt.Errorf("execute job %s (%s n=%d): %w", rec.ID, sp.Kernel, sp.N, err)
	}
	return nil
}

// checkExec recomputes an execute job with the scalar references.
func checkExec(sp server.Spec, res server.ExecResult) error {
	n := sp.N
	switch sp.Kernel {
	case "saxpy", "saxpy_multi":
		a, b := randSlice(n, 1), randSlice(n, 2)
		kernels.RefSaxpy(a, b, 2.5)
		return closeF32s(res.Output, a, linearTol)
	case "mmm_blocked", "mmm_naive":
		a, b, c := randSlice(n*n, 3), randSlice(n*n, 4), make([]float32, n*n)
		kernels.RefMMM(a, b, c, n)
		return closeF32s(res.Output, c, reduceTol)
	case "dot32":
		a, b := randSlice(n, 7), randSlice(n, 8)
		want := kernels.RefDotF32(a, b)
		bits, ok := strings.CutPrefix(res.Result, "f32:")
		u, err := strconv.ParseUint(bits, 16, 32)
		if !ok || err != nil {
			return fmt.Errorf("result %q is not an f32", res.Result)
		}
		scale := 0.0
		for i := range a {
			scale += math.Abs(float64(a[i]) * float64(b[i]))
		}
		if got := float64(math.Float32frombits(uint32(u))); math.Abs(got-want) > reduceTol*scale {
			return fmt.Errorf("dot %g, reference %g", got, want)
		}
		return nil
	}
	return fmt.Errorf("no reference for kernel %q", sp.Kernel)
}

// closeF32s compares hex-encoded float32 outputs with a reference
// within a relative tolerance (absolute near zero).
func closeF32s(hex []string, want []float32, tol float64) error {
	if len(hex) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(hex), len(want))
	}
	for i, h := range hex {
		u, err := strconv.ParseUint(h, 16, 32)
		if err != nil {
			return fmt.Errorf("output %d: %w", i, err)
		}
		got, ref := float64(math.Float32frombits(uint32(u))), float64(want[i])
		if math.Abs(got-ref) > tol*math.Max(1, math.Abs(ref)) {
			return fmt.Errorf("output %d = %g, reference %g", i, got, ref)
		}
	}
	return nil
}

// stepStats summarises one rate step.
type stepStats struct {
	rate      float64
	lat       []float64 // ms per job, +Inf for refused/failed
	p50, tail float64
	bad       int
	drainMS   float64 // last terminal after the step's last due
	meets     bool
	goodput   float64 // jobs done within the limit per second of the step's wall
}

// serveSummary is what one open-loop run measured end to end.
type serveSummary struct {
	steps   []stepStats
	p50     float64 // median over every job of every step
	maxRate float64 // highest step meeting the limit
}

func summarize(run *serveRun) serveSummary {
	var sm serveSummary
	var all []float64
	for step, ss := range serveSteps {
		st := stepStats{rate: ss.rate}
		var firstDue, lastDue, lastEnd int64
		good := 0
		for _, o := range run.outcomes {
			if o.job.step != step {
				continue
			}
			l := o.latencyMS()
			st.lat = append(st.lat, l)
			if math.IsInf(l, 1) {
				st.bad++
			} else if l <= serveLimitMS {
				good++
			}
			if firstDue == 0 || o.dueNS < firstDue {
				firstDue = o.dueNS
			}
			lastDue = max(lastDue, o.dueNS)
			if o.done {
				lastEnd = max(lastEnd, o.rec.FinishedNS)
			}
		}
		st.p50 = median(st.lat)
		_, st.tail, _ = tail(st.lat)
		st.drainMS = float64(lastEnd-lastDue) / 1e6
		st.meets = st.bad == 0 && st.tail <= serveLimitMS && st.drainMS <= serveLimitMS
		if w := float64(lastEnd-firstDue) / 1e9; w > 0 {
			st.goodput = float64(good) / w
		}
		if st.meets {
			sm.maxRate = st.rate
		}
		all = append(all, st.lat...)
		sm.steps = append(sm.steps, st)
	}
	sm.p50 = median(all)
	return sm
}

// runServeMix is the serve-mix workload.
func runServeMix(s *session) error {
	run, err := runOpenLoop(s, genSchedule(s.seed, serveLoadSeconds(s)), nil)
	if err != nil {
		return err
	}
	for _, o := range run.outcomes {
		s.check(o.err)
	}
	sm := summarize(run)
	for _, st := range sm.steps {
		s.note("  rate %4.0f/s: %3d jobs  p50 %8.2f ms  tail %s ms  drain %.1f ms  goodput %.2f/s  meets %dms: %v",
			st.rate, len(st.lat), st.p50, tailLabel(st.lat), st.drainMS, st.goodput, serveLimitMS, st.meets)
	}
	nom, top := sm.steps[serveNominal], sm.steps[len(sm.steps)-1]
	s.set("p50_ms", "ms", finite(sm.p50))
	s.set("throughput_per_s", "1/s", top.goodput)
	s.note("p50_ms            %.3f ms: median job latency over all %d jobs of the three steps", sm.p50, len(run.outcomes))
	s.note("job_p50_ms        %.3f ms at the nominal %g jobs/s", nom.p50, nom.rate)
	s.note("job_p99_ms        %s ms at the nominal rate (highest percentile with >=10 samples beyond)", tailLabel(nom.lat))
	s.note("max_jobs_per_s    %g (highest step with tail <= %d ms, none refused or failed, queue drained)", sm.maxRate, serveLimitMS)
	s.note("throughput_per_s  %.3f jobs/s done within the limit at the top %g jobs/s step", top.goodput, top.rate)
	lags := lagsMS(run)
	_, lagTail, _ := tail(lags)
	s.note("loadgen.lag       %s ms%s", tailLabel(lags), behind(lagTail))
	return nil
}

func lagsMS(run *serveRun) []float64 {
	out := make([]float64, len(run.outcomes))
	for i, o := range run.outcomes {
		out[i] = float64(o.lagNS) / 1e6
	}
	return out
}

// behind flags a run whose senders fell behind their schedule by more
// than a tenth of the latency limit at the lag's tail: the offered load
// was then lower than the schedule says.
func behind(lagTailMS float64) string {
	if lagTailMS > serveLimitMS/10 {
		return "  SENDER FELL BEHIND: offered load below schedule"
	}
	return ""
}
