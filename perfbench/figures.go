package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/irverify"
	"repro/internal/kernels"
)

// figureRefPath holds the captured `ngen all` output; every figure
// table the benchmark renders must appear in it byte for byte.
const figureRefPath = "results/ngen_all.txt"

// newFigureSuite is the figures workload's set-up: the default static
// suite (vm backend, opt tier, no cache directory, no planner, one
// sweep worker), the verifier's spec index, and the first kernel
// compile. One worker is bench.NewSuite's default; it also keeps the
// pass time free of the straggler noise two workers on a shared 2-vCPU
// host add.
func newFigureSuite() (*bench.Suite, error) {
	suite := bench.NewSuite()
	irverify.SpecIndex()
	if _, err := suite.RT.Compile(kernels.StagedSaxpy(suite.RT.Arch.Features)); err != nil {
		return nil, fmt.Errorf("figures set-up: %w", err)
	}
	return suite, nil
}

// readRef loads the captured reference output.
func readRef() ([]byte, error) {
	ref, err := os.ReadFile(figureRefPath)
	if err != nil {
		return nil, fmt.Errorf("figure reference: %w", err)
	}
	return ref, nil
}

// checkFigure reports whether a rendered figure table appears verbatim,
// as a whole section, in the captured reference output.
func checkFigure(ref []byte, figure, text string) error {
	if !strings.HasSuffix(text, "\n") || !strings.Contains(string(ref), "\n"+text) {
		return fmt.Errorf("%s: table differs from %s", figure, figureRefPath)
	}
	return nil
}

// runFigures is the figures workload: full-size fig6a + fig6b + fig7
// passes through bench.Suite.RunFigure, repeated while another pass
// fits in the measured phase (at least two, so the median is not one
// sample). The
// figures' inputs are the paper's fixed axes, so the seed does not
// apply.
func runFigures(s *session) error {
	suite, err := newFigureSuite()
	if err != nil {
		return err
	}
	ref, err := readRef()
	if err != nil {
		return err
	}
	var passes []float64
	perFigure := map[string][]float64{}
	end := s.deadline()
	start := time.Now()
	for len(passes) < 2 || !time.Now().Add(secondsDur(median(passes))).After(end) {
		p0 := time.Now()
		for _, fig := range bench.FigureNames() {
			f0 := time.Now()
			text, err := suite.RunFigure(fig, nil)
			perFigure[fig] = append(perFigure[fig], time.Since(f0).Seconds())
			if err == nil {
				err = checkFigure(ref, fig, text)
			}
			s.check(err)
		}
		passes = append(passes, time.Since(p0).Seconds())
	}
	wall := time.Since(start).Seconds()
	figureS := median(passes)
	sweepsPerS := float64(len(passes)*len(bench.FigureNames())) / wall
	s.set("p50_ms", "ms", figureS*1e3)
	s.set("throughput_per_s", "1/s", sweepsPerS)
	s.note("figure_s          %.4f s (median of %d fig6a+fig6b+fig7 passes: %s)", figureS, len(passes), fmtList(passes))
	for _, fig := range bench.FigureNames() {
		s.note("  %-6s          %.4f s median", fig, median(perFigure[fig]))
	}
	s.note("throughput_per_s  %.4f figure sweeps/s", sweepsPerS)
	return nil
}

func secondsDur(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
