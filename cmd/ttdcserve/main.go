// Command ttdcserve serves topology-transparent duty-cycling schedules
// over HTTP, memoizing construction so every distinct class
// (n, D, αT, αR, strategy) is built and encoded exactly once and then
// served from one LRU cache with singleflight deduplication, bounded by
// entry count (-cache) and by the bytes of its schedules and their
// encodings (-artifact-bytes).
//
// Usage:
//
//	ttdcserve -addr :8080 -cache 1024
//
// Fleet mode shards the keyspace across peers by consistent hashing and
// optionally pre-warms this peer's share of a duty-point lattice:
//
//	ttdcserve -addr :8080 -self http://host0:8080 \
//	    -peers http://host0:8080,http://host1:8080,http://host2:8080 \
//	    -warm 25:2,49:2
//
// Endpoints:
//
//	GET /schedule?n=25&D=2&alphaT=3&alphaR=5[&strategy=balanced]
//	    → JSON (default) or the binary wire frame with
//	      Accept: application/x-ttdc-wire / ?format=wire; strong ETags
//	      and If-None-Match revalidation on both.
//	GET /healthz      liveness probe
//	GET /metrics      cache, campaign-cache, latency, shard, and warmer
//	                  counters (JSON)
//
// SIGINT/SIGTERM shut down gracefully: the listener stops accepting, in-
// flight requests finish, and accepted campaign runs drain (bounded by
// -grace).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/schedcache"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ttdcserve:", err)
		os.Exit(1)
	}
}

// parseClasses parses "9:2,25:3" into warm classes.
func parseClasses(s string) ([]shard.Class, error) {
	var out []shard.Class
	for _, part := range strings.Split(s, ",") {
		nd := strings.Split(part, ":")
		if len(nd) != 2 {
			return nil, fmt.Errorf("warm class %q is not n:D", part)
		}
		n, err := strconv.Atoi(nd[0])
		if err != nil {
			return nil, fmt.Errorf("warm class %q: %v", part, err)
		}
		d, err := strconv.Atoi(nd[1])
		if err != nil {
			return nil, fmt.Errorf("warm class %q: %v", part, err)
		}
		out = append(out, shard.Class{N: n, D: d})
	}
	return out, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ttdcserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		capacity = fs.Int("cache", schedcache.DefaultCapacity, "max cached schedules, each with its encodings (LRU); campaign runs get a schedule cache of this size too")
		artBytes = fs.Int64("artifact-bytes", 0, "byte budget of the cached schedules and their encodings, and one of the same size for campaign runs' schedule cache (0 = 64 MiB)")
		maxAge   = fs.Int("max-age", serve.DefaultMaxAge, "Cache-Control max-age seconds (negative disables)")
		grace    = fs.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests and campaign runs")

		self     = fs.String("self", "", "this peer's base URL within -peers (enables sharding)")
		peers    = fs.String("peers", "", "comma-separated peer base URLs forming the consistent-hash ring")
		replicas = fs.Int("replicas", shard.DefaultReplicas, "virtual nodes per peer on the ring")

		warm      = fs.String("warm", "", "comma-separated n:D classes to pre-warm in the background")
		warmAT    = fs.Int("warm-alpha-t", 4, "warm lattice αT clip (0 = up to n)")
		warmAR    = fs.Int("warm-alpha-r", 8, "warm lattice αR clip (0 = up to n)")
		warmConc  = fs.Int("warm-concurrency", shard.DefaultWarmConcurrency, "concurrent warm constructions")
		warmCells = fs.Int64("warm-cells", shard.DefaultCellBudget, "warm budget in predicted schedule cells (n×L)")
		warmBytes = fs.Int64("warm-bytes", 0, "stop warming once the cache holds this many bytes of schedules and encodings (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	svc := serve.NewServiceBytes(*capacity, *artBytes)
	opts := serve.Options{MaxAge: *maxAge}
	if *maxAge == 0 {
		opts.MaxAge = -1 // flag 0 means "no header"; Options 0 means default
	}

	var fwd *shard.Forwarder
	if *peers != "" {
		if *self == "" {
			return fmt.Errorf("-peers requires -self")
		}
		f, err := shard.NewForwarder(shard.Config{
			Self:     *self,
			Peers:    strings.Split(*peers, ","),
			Replicas: *replicas,
		})
		if err != nil {
			return err
		}
		fwd = f
		opts.Forwarder = f
	}

	var warmer *shard.Warmer
	if *warm != "" {
		classes, err := parseClasses(*warm)
		if err != nil {
			return err
		}
		cfg := shard.WarmerConfig{
			Classes:   classes,
			MaxAlphaT: *warmAT, MaxAlphaR: *warmAR,
			Concurrency: *warmConc,
			CellBudget:  *warmCells,
			ByteBudget:  *warmBytes,
			Build:       svc.Schedule,
		}
		if *warmBytes > 0 {
			cfg.Stats = svc.Cache().Stats
		}
		if fwd != nil {
			cfg.Owns = func(k schedcache.Key) bool { return fwd.Owns(k.Canonical()) }
		}
		warmer, err = shard.NewWarmer(cfg)
		if err != nil {
			return err
		}
		opts.Warmer = warmer
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewHandler(svc, opts), ReadHeaderTimeout: 5 * time.Second}
	fmt.Fprintf(stdout, "ttdcserve: listening on %s (cache capacity %d)\n", ln.Addr(), *capacity)

	var wg sync.WaitGroup
	warmCtx, warmCancel := context.WithCancel(ctx)
	defer warmCancel()
	if warmer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := warmer.Run(warmCtx); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintln(stderr, "ttdcserve: warmer:", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr <- srv.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		warmCancel()
		wg.Wait()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "ttdcserve: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	err = srv.Shutdown(shCtx)
	if derr := svc.Drain(shCtx); derr != nil && err == nil {
		err = fmt.Errorf("draining campaign runs: %w", derr)
	}
	warmCancel()
	wg.Wait()
	return err
}
