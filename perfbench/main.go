// Command perfbench is the repository's benchmark. It drives the
// program's public entry points from outside — bench.Suite.RunFigure,
// core.Runtime.Compile / Kernel.Call, hotspot.VM.Load /
// Method.InvokeAt, machine.Estimator.Estimate, and an in-process ngend
// (server.New) over loopback HTTP — on one of three workloads, checks
// every output against an independent reference, and prints one JSON
// result object as the last line of standard output.
//
//	bash perfbench/run.sh --workload figures|kernel-dev|serve-mix --seed N --seconds S --trace 0|1
//
// from the repository root (it reads results/ngen_all.txt and keeps its
// scratch files under .bench_build).
//
// With --trace 0 the run is untraced and reports the end-to-end
// metrics; with --trace 1 it replays every workload's layers under
// spans kept in this program's memory and reports the per-layer
// metrics. RATIONALE.md explains the workloads, the metrics and what
// each layer metric is expected to move. A correctness mismatch makes
// the command exit 1 after printing its result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workloads maps each workload name to its untraced driver.
var workloads = map[string]func(*session) error{
	"figures":    runFigures,
	"kernel-dev": runKernelDev,
	"serve-mix":  runServeMix,
}

// session is one benchmark invocation: its inputs and what it measured.
type session struct {
	workload string
	seed     uint64
	seconds  float64
	// workers is the daemon's worker count: the load is sized for a
	// 2-vCPU host, never above nproc.
	workers int
	// dir is this run's scratch directory (disk caches, job stores),
	// inside the checkout and removed on exit.
	dir string

	attempted, failed int
	mismatches        []string

	metrics map[string]metric
	// lines is the human-readable report printed above the JSON line.
	lines []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (s *session) set(name, unit string, v float64) {
	s.metrics[name] = metric{Value: v, Unit: unit}
}

// note adds one line to the human-readable report.
func (s *session) note(format string, args ...any) {
	s.lines = append(s.lines, fmt.Sprintf(format, args...))
}

// check counts one attempted operation and, when err is non-nil, one
// failure with its reason.
func (s *session) check(err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if len(s.mismatches) < 20 {
			s.mismatches = append(s.mismatches, err.Error())
		}
	}
}

func main() {
	workload := flag.String("workload", "", "figures | kernel-dev | serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 replays the layers under spans and reports per-layer metrics")
	probe := flag.String("setup-probe", "", "internal: time one cold set-up of a workload in this process and print seconds")
	flag.Parse()

	if *probe != "" {
		secs, err := setupProbe(*probe, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(strconv.FormatFloat(secs, 'g', -1, 64))
		return
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload figures|kernel-dev|serve-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	s, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range s.lines {
		fmt.Println(l)
	}
	for _, m := range s.mismatches {
		fmt.Println("MISMATCH:", m)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{s.failed == 0, s.attempted, s.failed, s.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if s.failed > 0 {
		os.Exit(1)
	}
}

// run executes one invocation in a fresh scratch directory.
func run(workload string, seed uint64, seconds float64, traced bool) (*session, error) {
	if _, err := os.Stat(figureRefPath); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	dir, err := os.MkdirTemp(scratchRoot(), "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s := &session{workload: workload, seed: seed, seconds: seconds,
		workers: benchWorkers(), dir: dir, metrics: map[string]metric{}}
	s.note("perfbench workload=%s seed=%d seconds=%g trace=%v workers=%d GOMAXPROCS=%d",
		workload, seed, seconds, traced, s.workers, runtime.GOMAXPROCS(0))

	if traced {
		err = runTraced(s)
	} else {
		err = runUntraced(s)
	}
	if err != nil {
		return nil, err
	}
	if s.attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	return s, nil
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(s *session) error {
	setup, err := setupSeconds(s.workload, s.seed)
	if err != nil {
		return err
	}
	if err := workloads[s.workload](s); err != nil {
		return err
	}
	s.set("setup_s", "s", setup)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	s.set("peak_rss_mb", "MB", rss)
	s.note("setup_s           %.4f s (median of %d cold set-ups, each in a fresh process)", setup, setupProbes)
	s.note("peak_rss_mb       %.1f MB", rss)
	s.note("failed_frac       %.4f (%d of %d operations)", float64(s.failed)/float64(max(s.attempted, 1)), s.failed, s.attempted)
	return nil
}

// scratchRoot is where runs keep their disk caches and job stores:
// under the build directory of the checkout, which .gitignore names.
func scratchRoot() string {
	root := os.Getenv("CARGO_TARGET_DIR")
	if root == "" {
		root = ".bench_build"
	}
	dir := filepath.Join(root, "perfbench-work")
	os.MkdirAll(dir, 0o755) // MkdirTemp reports a failure here
	return dir
}

// peakRSSMB is the process's peak resident set (getrusage's maxrss,
// the VmHWM of /proc/self/status).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// deadline is the end of a measured phase that starts now.
func (s *session) deadline() time.Time {
	return time.Now().Add(time.Duration(s.seconds * float64(time.Second)))
}

// sortedKeys lists a map's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// benchWorkers is the concurrency the load is sized for: a 2-vCPU
// host, and never more than nproc.
func benchWorkers() int { return min(runtime.NumCPU(), 2) }
