// Command ngend serves the reproduction's compile-and-execute pipeline
// as a long-running HTTP daemon: clients stage kernels, run them, and
// rerun the paper's figure sweeps as queued jobs with streamed
// progress. See docs/SERVER.md for the API and an operator runbook.
//
// Usage:
//
//	ngend [-addr :8035] [-workers N] [-queue N] [-machine name]
//	      [-backend name] [-cachedir dir] [-store dir] [-drain dur]
//	      [-resultcache] [-resultcache-mem MB] [-resultcache-disk MB]
//	      [-coalesce] [-resume] [-plan auto|off]
//
// The daemon prints "ngend: listening on <addr>" once the socket is
// bound, serves until SIGINT/SIGTERM, then drains in-flight jobs
// (bounded by -drain) before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro/internal/backend/native" // registers the native execution backend
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8035", "HTTP listen address (\":0\" picks an ephemeral port)")
	workers := flag.Int("workers", 1, "job executor pool size")
	queue := flag.Int("queue", 16, "pending-job queue bound (full queue returns 429)")
	machine := flag.String("machine", "", "default microarchitecture (empty = Haswell, the paper's platform)")
	backend := flag.String("backend", "", "execution backend: vm (default) or native (falls back to vm with a notice when unavailable)")
	cachedir := flag.String("cachedir", "", "persistent compile cache directory (warm starts serve compile-free)")
	store := flag.String("store", "", "job store directory (jobs survive restarts; empty = in-memory only)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown deadline for in-flight jobs")
	resultcache := flag.Bool("resultcache", true, "serve repeated identical requests from the spec-keyed result cache")
	resultcacheMem := flag.Int64("resultcache-mem", 0, "result-cache memory budget in MB (0 = 64)")
	resultcacheDisk := flag.Int64("resultcache-disk", 0, "result-cache disk budget in MB under <cachedir>/results (0 = 256)")
	coalesce := flag.Bool("coalesce", true, "coalesce concurrent identical requests into one execution")
	resume := flag.Bool("resume", true, "resume interrupted sweeps from persisted checkpoints after a restart")
	planMode := flag.String("plan", "auto", "adaptive execution planner: auto (measure and pick the fastest backend/lanes per kernel × size; plans persist under -cachedir) or off")
	flag.Parse()

	srv, err := server.New(server.Config{
		Addr:            *addr,
		Workers:         *workers,
		Queue:           *queue,
		Machine:         *machine,
		Backend:         *backend,
		CacheDir:        *cachedir,
		StoreDir:        *store,
		Drain:           *drain,
		ResultCache:     *resultcache,
		ResultCacheMem:  *resultcacheMem << 20,
		ResultCacheDisk: *resultcacheDisk << 20,
		Coalesce:        *coalesce,
		Resume:          *resume,
		Plan:            *planMode,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ngend:", err)
		os.Exit(1)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "ngend:", err)
		os.Exit(1)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("ngend: shutting down")

	ctx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ngend: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("ngend: stopped")
}
