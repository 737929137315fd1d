package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many cold set-ups setup_s takes the median of.
// Each runs in a fresh child process: the spec index and the compile
// caches are process-wide, so only a new process pays the set-up a
// user pays on every start.
const setupProbes = 15

// setupSeconds runs the cold set-up probes for a workload, one child
// process at a time, and returns their median.
func setupSeconds(workload string, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	var secs []float64
	for i := 0; i < setupProbes; i++ {
		var out, errb bytes.Buffer
		cmd := exec.Command(self, "--setup-probe", workload, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe %s: %v: %s", workload, err, errb.String())
		}
		// The daemon prints its listen address first; the probe's
		// measurement is the last line.
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		v, err := strconv.ParseFloat(lines[len(lines)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe %s: %w", workload, err)
		}
		secs = append(secs, v)
	}
	return median(secs), nil
}

// setupProbe times one cold set-up of a workload in this (fresh)
// process, then tears it down untimed.
func setupProbe(workload string, seed uint64) (float64, error) {
	if _, ok := workloads[workload]; !ok {
		return 0, fmt.Errorf("unknown workload %q", workload)
	}
	dir, err := os.MkdirTemp(scratchRoot(), "probe-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	s := &session{workload: workload, seed: seed, workers: benchWorkers(), dir: dir, metrics: map[string]metric{}}
	start := time.Now()
	switch workload {
	case "figures":
		_, err = newFigureSuite()
	case "kernel-dev":
		_, err = newDevRuntime(dir)
	case "serve-mix":
		var d *daemon
		d, err = startDaemon(s, dir)
		if err == nil {
			elapsed := time.Since(start).Seconds()
			return elapsed, d.stop()
		}
	}
	return time.Since(start).Seconds(), err
}
