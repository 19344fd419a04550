// Command vased serves the VASE toolchain over HTTP/JSON: parse, lint,
// synthesize and simulate endpoints sharing one content-addressed pipeline
// cache with single-flight deduplication, plus admission control,
// per-request deadlines mapped onto the anytime synthesis contract, and a
// /metrics endpoint.
//
// Usage:
//
//	vased -addr :8080 -cache-dir /var/cache/vase -cache-bytes 268435456
//
// Endpoints and request formats are documented in internal/server and
// DESIGN.md §14; quickstart curl examples are in the README.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vase/internal/exitcode"
	"vase/internal/pipeline"
	"vase/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache-dir", "", "persist compile and synthesis artifacts in this directory (content-addressed, shareable with the CLIs)")
	cacheBytes := flag.Int64("cache-bytes", 0, "byte budget for the on-disk cache; LRU artifacts are evicted beyond it (0 = unbounded)")
	memEntries := flag.Int("cache-entries", 0, "in-memory LRU entries (0 = default)")
	maxConcurrent := flag.Int("max-concurrent", 0, "simultaneously running requests (0 = all CPUs)")
	queueDepth := flag.Int("queue-depth", 0, "requests queued beyond -max-concurrent before shedding with 429 (0 = 4x max-concurrent)")
	queueWait := flag.Duration("queue-wait", 0, "longest a request queues before 503 (0 = 2s)")
	defaultTimeout := flag.Duration("default-timeout", 0, "per-request deadline when the client sends none (0 = 30s)")
	maxTimeout := flag.Duration("max-timeout", 0, "clamp on client-requested deadlines (0 = 5m)")
	flag.Parse()
	if flag.NArg() != 0 {
		usage(fmt.Errorf("unexpected arguments %v (usage: vased [flags])", flag.Args()))
	}

	pipe, err := pipeline.New(pipeline.Options{
		MemoryEntries: *memEntries,
		CacheDir:      *cacheDir,
		CacheBytes:    *cacheBytes,
	})
	if err != nil {
		fail(err)
	}
	srv, err := server.New(server.Config{
		Pipeline:        pipe,
		MaxConcurrent:   *maxConcurrent,
		QueueDepth:      *queueDepth,
		QueueWait:       *queueWait,
		DefaultDeadline: *defaultTimeout,
		MaxDeadline:     *maxTimeout,
	})
	if err != nil {
		fail(err)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "vased: listening on %s\n", *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "vased: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	exitcode.Fail("vased", exitcode.Error, err)
}

func usage(err error) {
	exitcode.Fail("vased", exitcode.Usage, err)
}
