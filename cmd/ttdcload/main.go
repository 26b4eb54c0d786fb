// Command ttdcload is the fleet-serving load generator: it drives a
// ttdcserve tier (real URLs or an in-process ring it spins up itself)
// with a reproducible key mix and reports client-observed hit/miss/304
// counts and latency quantiles as a BENCH_serve.json document.
//
// Usage:
//
//	ttdcload -inproc 3 -requests 12000 -c 16 -o BENCH_serve.json
//	ttdcload -targets http://h0:8080,http://h1:8080 -requests 50000
//
// The key universe is a deterministic duty-point lattice over a few
// network classes; keys are drawn zipf-distributed by default (a fleet
// re-requests its popular classes far more often than its tail) or
// uniformly with -mix uniform. Workers remember the ETag a key last
// returned and revalidate with If-None-Match, so a healthy tier serves a
// measurable share of 304s; half the requests negotiate the binary wire
// format, half JSON. Every worker derives its randomness from -seed, so
// two runs over the same flags issue the identical request sequence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/schedcache"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
)

// keyUniverse builds the deterministic request universe: duty points over
// small classes, popularity rank = enumeration order.
func keyUniverse(size int) []schedcache.Key {
	classes := []struct{ n, d int }{{9, 2}, {16, 2}, {25, 2}, {49, 2}, {25, 3}}
	var keys []schedcache.Key
	for _, c := range classes {
		keys = append(keys, schedcache.Key{N: c.n, D: c.d}) // the base point
		for at := 1; at <= 3 && len(keys) < size; at++ {
			for ar := 1; ar <= 4 && len(keys) < size; ar++ {
				for _, s := range []core.DivisionStrategy{core.Sequential, core.Balanced} {
					keys = append(keys, schedcache.Key{N: c.n, D: c.d, AlphaT: at, AlphaR: ar, Strategy: s})
				}
			}
		}
		if len(keys) >= size {
			break
		}
	}
	if len(keys) > size {
		keys = keys[:size]
	}
	return keys
}

// zipfCDF precomputes the cumulative distribution of 1/rank^s over the
// universe (s = 0 degenerates to uniform); sampling is a Float64 draw +
// binary search, so the only randomness source stays stats.RNG.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// sample draws a universe index: zipf via the CDF, or uniform.
func sample(rng *stats.RNG, cdf []float64) int {
	if cdf == nil {
		panic("nil cdf")
	}
	u := rng.Float64()
	i := sort.SearchFloat64s(cdf, u)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// workerResult is one worker's tally, merged after the run.
type workerResult struct {
	latencies []int64 // ns, one per completed request
	hits      int64
	misses    int64
	notMod    int64
	forwarded int64
	wire      int64
	errors    int64
	statuses  map[int]int64
}

// Counts is the client-observed outcome tally in BENCH_serve.json.
type Counts struct {
	Requests    int64 `json:"requests"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	NotModified int64 `json:"notModified"`
	Forwarded   int64 `json:"forwarded"`
	WireBodies  int64 `json:"wireBodies"`
	Errors      int64 `json:"errors"`
}

// Latency is the latency summary in BENCH_serve.json (nanoseconds).
type Latency struct {
	P50Ns  int64   `json:"p50Ns"`
	P90Ns  int64   `json:"p90Ns"`
	P99Ns  int64   `json:"p99Ns"`
	MaxNs  int64   `json:"maxNs"`
	MeanNs float64 `json:"meanNs"`
}

// PeerReport is one peer's server-side counters scraped after the run.
// The cache fields count the peer's one artifact cache: each lookup is
// one hit or one miss, and Constructions counts the misses that built.
// LocalNotModified is the part of NotModified the peer answered for keys
// other peers own, from digests learned across the forward hop.
type PeerReport struct {
	Peer             string `json:"peer"`
	Requests         int64  `json:"requests"`
	NotModified      int64  `json:"notModified"`
	LocalNotModified int64  `json:"localNotModified"`
	CacheHits        int64  `json:"cacheHits"`
	CacheMisses      int64  `json:"cacheMisses"`
	CacheEvictions   int64  `json:"cacheEvictions"`
	Constructions    int64  `json:"constructions"`
	LoopRejects      int64  `json:"loopRejects"`
	LocalFallbacks   int64  `json:"localFallbacks"`
}

// File is the BENCH_serve.json document.
type File struct {
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	NumCPU      int              `json:"numCPU"`
	Peers       int              `json:"peers"`
	Concurrency int              `json:"concurrency"`
	Keys        int              `json:"keys"`
	Mix         string           `json:"mix"`
	Seed        uint64           `json:"seed"`
	DurationNs  int64            `json:"durationNs"`
	Counts      Counts           `json:"counts"`
	Latency     Latency          `json:"latency"`
	Statuses    map[string]int64 `json:"statuses"`
	PeerReports []PeerReport     `json:"peerReports,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ttdcload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ttdcload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		targets  = fs.String("targets", "", "comma-separated ttdcserve base URLs to load")
		inproc   = fs.Int("inproc", 0, "spin up this many in-process peers instead of -targets")
		requests = fs.Int("requests", 10000, "total requests to issue")
		conc     = fs.Int("c", 8, "concurrent workers")
		keys     = fs.Int("keys", 64, "key universe size")
		mix      = fs.String("mix", "zipf", "key mix: zipf or uniform")
		zipfS    = fs.Float64("zipf-s", 1.1, "zipf exponent (mix=zipf)")
		seed     = fs.Uint64("seed", 1, "base RNG seed")
		out      = fs.String("o", "", "output file (empty = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *requests <= 0 || *conc <= 0 || *keys <= 0 {
		return fmt.Errorf("-requests, -c, and -keys must be positive")
	}
	if *mix != "zipf" && *mix != "uniform" {
		return fmt.Errorf("-mix must be zipf or uniform")
	}

	var urls []string
	if *inproc > 0 {
		ring, cleanup, err := startRing(*inproc)
		if err != nil {
			return err
		}
		defer cleanup()
		urls = ring
	} else {
		if *targets == "" {
			return fmt.Errorf("need -targets or -inproc")
		}
		urls = strings.Split(*targets, ",")
	}

	universe := keyUniverse(*keys)
	paths := make([]string, len(universe))
	for i, k := range universe {
		paths[i] = "/schedule?" + k.Canonical()
	}
	var cdf []float64
	if *mix == "zipf" {
		cdf = zipfCDF(len(paths), *zipfS)
	} else {
		cdf = zipfCDF(len(paths), 0) // s=0 degenerates to uniform
	}

	doc := &File{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Peers: len(urls), Concurrency: *conc, Keys: len(paths),
		Mix: *mix, Seed: *seed,
	}

	results := make([]workerResult, *conc)
	per := *requests / *conc
	extra := *requests % *conc
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		count := per
		if w < extra {
			count++
		}
		wg.Add(1)
		go func(w, count int) {
			defer wg.Done()
			results[w] = runWorker(client, urls, paths, cdf, stats.DeriveSeed(*seed, uint64(w)), count, w%2 == 0)
		}(w, count)
	}
	wg.Wait()
	doc.DurationNs = int64(time.Since(start))

	// Merge.
	var all []int64
	doc.Statuses = make(map[string]int64)
	for _, r := range results {
		all = append(all, r.latencies...)
		doc.Counts.Hits += r.hits
		doc.Counts.Misses += r.misses
		doc.Counts.NotModified += r.notMod
		doc.Counts.Forwarded += r.forwarded
		doc.Counts.WireBodies += r.wire
		doc.Counts.Errors += r.errors
		for code, c := range r.statuses {
			doc.Statuses[fmt.Sprintf("%d", code)] += c
		}
	}
	doc.Counts.Requests = int64(len(all)) + doc.Counts.Errors
	doc.Latency = summarize(all)

	for _, u := range urls {
		pr, err := scrapePeer(client, u)
		if err != nil {
			fmt.Fprintf(stderr, "ttdcload: scraping %s: %v\n", u, err)
			continue
		}
		doc.PeerReports = append(doc.PeerReports, pr)
	}

	payload, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	payload = append(payload, '\n')
	if *out == "" {
		_, err = stdout.Write(payload)
		return err
	}
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ttdcload: %d requests, p50=%s p99=%s, %d hits / %d misses / %d 304s -> %s\n",
		doc.Counts.Requests,
		time.Duration(doc.Latency.P50Ns), time.Duration(doc.Latency.P99Ns),
		doc.Counts.Hits, doc.Counts.Misses, doc.Counts.NotModified, *out)
	return nil
}

// startRing boots n in-process peers wired into one consistent-hash ring,
// exactly as the integration tests and `make bench-serve` use it.
func startRing(n int) (urls []string, cleanup func(), err error) {
	type holder struct {
		mu sync.Mutex
		h  http.Handler
	}
	holders := make([]*holder, n)
	servers := make([]*httptest.Server, n)
	for i := range holders {
		hd := &holder{}
		holders[i] = hd
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hd.mu.Lock()
			h := hd.h
			hd.mu.Unlock()
			h.ServeHTTP(w, r)
		}))
		urls = append(urls, servers[i].URL)
	}
	cleanup = func() {
		for _, s := range servers {
			s.Close()
		}
	}
	for i := range holders {
		f, ferr := shard.NewForwarder(shard.Config{Self: urls[i], Peers: urls})
		if ferr != nil {
			cleanup()
			return nil, nil, ferr
		}
		h := serve.NewHandler(serve.NewService(256), serve.Options{Forwarder: f})
		holders[i].mu.Lock()
		holders[i].h = h
		holders[i].mu.Unlock()
	}
	return urls, cleanup, nil
}

// runWorker issues count requests, remembering per-key ETags so repeat
// draws revalidate. wantWire selects the binary representation for this
// worker's requests.
func runWorker(client *http.Client, urls, paths []string, cdf []float64, seed uint64, count int, wantWire bool) workerResult {
	rng := stats.NewRNG(seed)
	res := workerResult{statuses: make(map[int]int64)}
	etags := make(map[int]string, len(paths))
	for i := 0; i < count; i++ {
		ki := sample(rng, cdf)
		entry := urls[rng.Intn(len(urls))]
		req, err := http.NewRequest(http.MethodGet, entry+paths[ki], nil)
		if err != nil {
			res.errors++
			continue
		}
		if wantWire {
			req.Header.Set("Accept", serve.WireContentType)
		}
		if tag := etags[ki]; tag != "" {
			req.Header.Set("If-None-Match", tag)
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			res.errors++
			continue
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close() //nolint:errcheck // drained above
		if cerr != nil {
			res.errors++
			continue
		}
		res.latencies = append(res.latencies, int64(time.Since(t0)))
		res.statuses[resp.StatusCode]++
		if tag := resp.Header.Get("ETag"); tag != "" {
			etags[ki] = tag
		}
		switch resp.StatusCode {
		case http.StatusOK:
			switch resp.Header.Get(shard.CacheHeader) {
			case "hit":
				res.hits++
			case "miss":
				res.misses++
			}
			if resp.Header.Get("Content-Type") == serve.WireContentType {
				res.wire++
			}
		case http.StatusNotModified:
			res.notMod++
		}
		if sb := resp.Header.Get(shard.ServedByHeader); sb != "" && sb != entry {
			res.forwarded++
		}
	}
	return res
}

// summarize sorts the merged latencies and extracts the quantiles.
func summarize(ns []int64) Latency {
	if len(ns) == 0 {
		return Latency{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	q := func(p float64) int64 {
		i := int(p * float64(len(ns)-1))
		return ns[i]
	}
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	return Latency{
		P50Ns:  q(0.50),
		P90Ns:  q(0.90),
		P99Ns:  q(0.99),
		MaxNs:  ns[len(ns)-1],
		MeanNs: sum / float64(len(ns)),
	}
}

// scrapePeer pulls the server-side counters that cross-check the client
// tally — in particular loopRejects, which must be zero on a consistent
// ring.
func scrapePeer(client *http.Client, base string) (PeerReport, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return PeerReport{}, err
	}
	defer resp.Body.Close() //nolint:errcheck // test scrape
	var m struct {
		Cache       serve.ArtifactStats  `json:"cache"`
		Requests    int64                `json:"requests"`
		NotModified int64                `json:"not_modified"`
		Shard       *shard.Metrics       `json:"shard"`
		Validators  serve.ValidatorStats `json:"validators"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return PeerReport{}, err
	}
	pr := PeerReport{
		Peer:             base,
		Requests:         m.Requests,
		NotModified:      m.NotModified,
		LocalNotModified: m.Validators.LocalNotModified,
		CacheHits:        m.Cache.Hits,
		CacheMisses:      m.Cache.Misses,
		CacheEvictions:   m.Cache.Evictions,
		Constructions:    m.Cache.Constructions,
	}
	if m.Shard != nil {
		pr.LoopRejects = m.Shard.LoopRejects
		pr.LocalFallbacks = m.Shard.LocalFallbacks
	}
	return pr, nil
}
