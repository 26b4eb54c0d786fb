package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/schedcache"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Ring workload shape. The ring's hash gives the peers 74, 181 and 49 of
// the universe's keys, and a peer caches only the keys it owns, so under
// the zipf skew both the hit/304 path and the miss → Construct → encode →
// evict path carry a measurable share.
const (
	ringCapacity   = 64    // entries in each peer's schedule and artifact caches
	ringUniverse   = 304   // distinct keys: the lattice keys within ringMaxCells
	ringMaxCells   = 40000 // n×L bound on a key, so one miss stays a few ms
	ringZipfS      = 1.1   // key popularity exponent
	ringFixedRate  = 800.0 // offered rate of the latency phase, requests/s
	ringP99LimitMs = 50.0  // p99 limit that defines sustained_rps
	ringBootBatch  = 40    // boots timed as one set-up sample
	ringColdPasses = 2     // cold passes per round, each on a fresh ring
	ringClimb      = 1.5   // rate ratio between climbing probes of the search
	ringBracket    = 1.6   // sweeps cover [knee/ringBracket, knee·ringBracket]
	ringSweepN     = 13    // probes per sweep
	ringProbeN     = 1500  // requests per search probe: p99 needs 1000
	ringWindowN    = 1200  // requests per latency window: p99 needs 1000
	ringColdN      = 1600  // requests of a cold pass, which also warms the caches
)

// peerNames are the ring's fixed logical URLs. Ownership hashes these
// names, so the key → owner map repeats exactly from run to run; each run
// resolves them to its own loopback listeners (see dialPeer).
var peerNames = []string{"http://peer0.ttdc.invalid", "http://peer1.ttdc.invalid", "http://peer2.ttdc.invalid"}

// opHeader carries the client's request id to the entry peer's trace
// wrapper. The forwarder does not relay it, so owner-side spans are
// matched to their entry span by URI and interval instead.
const opHeader = "X-Perfbench-Op"

// peerAddrs maps "host:port" of each logical peer URL to the listener
// currently serving it.
var peerAddrs = struct {
	sync.RWMutex
	m map[string]string
}{m: map[string]string{}}

// installResolver routes the process's default transport — the one every
// shard.Forwarder hop uses — through dialPeer, so the logical peer names
// never reach a real resolver.
func installResolver() { http.DefaultTransport = newTransport(8) }

func dialPeer(ctx context.Context, network, addr string) (net.Conn, error) {
	peerAddrs.RLock()
	real, ok := peerAddrs.m[addr]
	peerAddrs.RUnlock()
	if !ok {
		return nil, fmt.Errorf("perfbench: %s is not an in-process peer", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, real)
}

func newTransport(idlePerHost int) *http.Transport {
	return &http.Transport{
		DialContext:         dialPeer,
		MaxIdleConnsPerHost: idlePerHost,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

// ringKey is one key of the universe with its reference artifact, built
// by a fresh single serve.Service before the run.
type ringKey struct {
	key  schedcache.Key
	path string
	ref  *serve.Artifact
}

// etag is the entity tag a correct peer sends for the key's representation.
func (k *ringKey) etag(wantWire bool) string {
	if wantWire {
		return `"` + k.ref.Digest + `-w"`
	}
	return `"` + k.ref.Digest + `-j"`
}

func (k *ringKey) body(wantWire bool) []byte {
	if wantWire {
		return k.ref.Wire
	}
	return k.ref.JSON
}

// ringUniverseFor builds the key universe: every key of a lattice of
// small classes and duty caps that builds within ringMaxCells, in an
// order drawn from the seed. Position in the order is popularity rank, so
// the seed decides which keys are hot but not which keys exist.
func ringUniverseFor(seed uint64) ([]ringKey, error) {
	var keys []ringKey
	for _, n := range []int{9, 12, 16, 20, 25, 30, 36, 49, 64} {
		for _, d := range []int{2, 3} {
			for at := 1; at <= 4; at++ {
				for _, mul := range []int{1, 2, 3} {
					for _, st := range []core.DivisionStrategy{core.Sequential, core.Balanced} {
						k := schedcache.Key{N: n, D: d, AlphaT: at, AlphaR: at * mul, Strategy: st}
						a, _, err := serve.NewService(1).Artifact(k)
						if err != nil || k.N*a.Frame.Schedule.L() > ringMaxCells {
							continue
						}
						keys = append(keys, ringKey{key: k, path: "/schedule?" + k.Canonical(), ref: a})
					}
				}
			}
		}
	}
	if len(keys) != ringUniverse {
		return nil, fmt.Errorf("ring universe has %d keys, want %d", len(keys), ringUniverse)
	}
	rng := stats.NewRNG(stats.DeriveSeed(seed, 1))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys, nil
}

// ringReq is one generated request.
type ringReq struct {
	key   int
	entry int
	wire  bool
}

// ringRequests draws n requests from the seed's stream: zipf-ranked keys
// in stratified draws, a uniform entry peer, and a fair coin between wire
// and JSON.
func ringRequests(seed, stream uint64, n int) []ringReq {
	rng := stats.NewRNG(stats.DeriveSeed(seed, stream))
	ranks := stratifiedRanks(rng, zipfCDF(ringUniverse, ringZipfS), n)
	reqs := make([]ringReq, n)
	for i, k := range ranks {
		reqs[i] = ringReq{key: k, entry: rng.Intn(len(peerNames)), wire: rng.Intn(2) == 0}
	}
	return reqs
}

// ring is one booted 3-peer tier, built as ttdcload builds it.
type ring struct {
	servers []*http.Server
	wg      sync.WaitGroup
}

func hostPort(url string) string { return strings.TrimPrefix(url, "http://") + ":80" }

// bootRing starts the peers; wrap, when set, wraps each peer's handler.
func bootRing(wrap func(peer int, h http.Handler) http.Handler) (*ring, error) {
	lns := make([]net.Listener, 0, len(peerNames))
	for range peerNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	peerAddrs.Lock()
	for i, name := range peerNames {
		peerAddrs.m[hostPort(name)] = lns[i].Addr().String()
	}
	peerAddrs.Unlock()
	r := &ring{}
	for i, name := range peerNames {
		f, err := shard.NewForwarder(shard.Config{Self: name, Peers: peerNames})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			r.close()
			return nil, err
		}
		var h http.Handler = serve.NewHandler(serve.NewService(ringCapacity), serve.Options{Forwarder: f})
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := &http.Server{Handler: h}
		r.servers = append(r.servers, srv)
		r.wg.Add(1)
		go func(ln net.Listener) {
			defer r.wg.Done()
			srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
		}(lns[i])
	}
	return r, nil
}

// close stops every peer and waits for their serve loops to return.
func (r *ring) close() {
	for _, s := range r.servers {
		s.Close()
	}
	r.wg.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// ringClient is the load generator's side: one connection pool per
// worker, and the last ETag seen for each key and representation.
type ringClient struct {
	clients []*http.Client
	keys    []ringKey
	tr      *tracer // nil when untraced

	mu    sync.Mutex
	etags map[[2]int]string
}

func newRingClient(keys []ringKey, workers int, tr *tracer) *ringClient {
	c := &ringClient{keys: keys, tr: tr, etags: map[[2]int]string{}}
	for w := 0; w < workers; w++ {
		c.clients = append(c.clients, &http.Client{Transport: newTransport(1), Timeout: 10 * time.Second})
	}
	return c
}

// forget drops every remembered ETag, as a client that has seen nothing.
func (c *ringClient) forget() {
	c.mu.Lock()
	c.etags = map[[2]int]string{}
	c.mu.Unlock()
}

func (c *ringClient) closeIdle() {
	for _, cl := range c.clients {
		cl.Transport.(*http.Transport).CloseIdleConnections()
	}
}

// waitReady blocks until every peer answers /healthz.
func (c *ringClient) waitReady() error {
	for _, name := range peerNames {
		for attempt := 0; ; attempt++ {
			resp, err := c.clients[0].Get(name + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if attempt == 1000 {
				return fmt.Errorf("peer %s never answered /healthz", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// outcome is what one request observed.
type outcome struct {
	status    int
	miss      bool
	forwarded bool
	clientID  int // span id of the client span; -1 when untraced
	problem   string
}

// do sends one request and checks the answer against the reference.
func (c *ringClient) do(w int, rq ringReq, op int64, buf *bytes.Buffer) outcome {
	k := &c.keys[rq.key]
	out := outcome{clientID: -1}
	req, err := http.NewRequest(http.MethodGet, peerNames[rq.entry]+k.path, nil)
	if err != nil {
		out.problem = err.Error()
		return out
	}
	if rq.wire {
		req.Header.Set("Accept", serve.WireContentType)
	}
	tagKey := [2]int{rq.key, 0}
	if rq.wire {
		tagKey[1] = 1
	}
	c.mu.Lock()
	sent := c.etags[tagKey]
	c.mu.Unlock()
	if sent != "" {
		req.Header.Set("If-None-Match", sent)
	}
	var start int64
	if c.tr != nil {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
		start = c.tr.now()
	}
	resp, err := c.clients[w].Do(req)
	if err != nil {
		out.problem = err.Error()
		return out
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		out.clientID = c.tr.add(span{Parent: -1, Name: "ring.client", Kind: kindRun, Op: op, Start: start, End: c.tr.now()})
	}
	if err != nil {
		out.problem = err.Error()
		return out
	}
	out.status = resp.StatusCode
	out.miss = resp.Header.Get(shard.CacheHeader) == "miss"
	out.forwarded = resp.Header.Get(shard.ServedByHeader) != peerNames[rq.entry]
	want := k.etag(rq.wire)
	switch resp.StatusCode {
	case http.StatusOK:
		switch {
		case resp.Header.Get("ETag") != want:
			out.problem = fmt.Sprintf("%s: ETag %s, want %s", k.path, resp.Header.Get("ETag"), want)
		case !bytes.Equal(buf.Bytes(), k.body(rq.wire)):
			out.problem = fmt.Sprintf("%s (wire=%v): body differs from a fresh service's", k.path, rq.wire)
		default:
			c.mu.Lock()
			c.etags[tagKey] = want
			c.mu.Unlock()
		}
	case http.StatusNotModified:
		if sent != want || resp.Header.Get("ETag") != want {
			out.problem = fmt.Sprintf("%s: 304 for tag %q, current tag is %s", k.path, sent, want)
		}
	default:
		out.problem = fmt.Sprintf("%s: status %d", k.path, resp.StatusCode)
	}
	return out
}

// phase is one open-loop pass over a request list.
type phase struct {
	reqs []ringReq
	outs []outcome
	lat  []time.Duration
	late []time.Duration
}

func (c *ringClient) run(reqs []ringReq, rate float64, opBase int64, res *result) phase {
	p := phase{reqs: reqs, outs: make([]outcome, len(reqs))}
	bufs := c.buffers()
	p.lat, p.late = openLoop(len(reqs), len(c.clients), rate, func(w, i int) {
		p.outs[i] = c.do(w, reqs[i], opBase+int64(i), bufs[w])
	})
	record(res, p.outs)
	return p
}

// runClosed sends reqs back to back over the client connections and
// returns the time from the first send to the last drained body.
func (c *ringClient) runClosed(reqs []ringReq, opBase int64, res *result) time.Duration {
	outs := make([]outcome, len(reqs))
	bufs := c.buffers()
	d := closedLoop(len(reqs), len(c.clients), func(w, i int) {
		outs[i] = c.do(w, reqs[i], opBase+int64(i), bufs[w])
	})
	record(res, outs)
	return d
}

func (c *ringClient) buffers() []*bytes.Buffer {
	bufs := make([]*bytes.Buffer, len(c.clients))
	for i := range bufs {
		bufs[i] = new(bytes.Buffer)
	}
	return bufs
}

// record counts the requests and fails the run on any request's problem.
func record(res *result, outs []outcome) {
	for _, o := range outs {
		res.attempted++
		if o.problem != "" {
			res.failed++
		}
		res.check(o.problem == "", "%s", o.problem)
	}
}

// passes reports whether the phase met the p99 limit without a growing
// backlog: the final tenth of the requests must not be sent later, on
// median, than half the limit.
func (p phase) passes() bool {
	for _, o := range p.outs {
		if o.problem != "" {
			return false
		}
	}
	p99, ok := percentile(msSorted(p.lat), 0.99)
	if !ok || p99 > ringP99LimitMs {
		return false
	}
	tail := p.late[len(p.late)*9/10:]
	return median(msSorted(tail)) <= ringP99LimitMs/2
}

// peerCounters is the part of a peer's /metrics the benchmark reads. The
// artifact LRU's counts come from the "artifacts" block; "cache" is the
// schedcache layer beneath it, which only sees artifact misses.
type peerCounters struct {
	Cache       map[string]int64    `json:"cache"`
	Artifacts   serve.ArtifactStats `json:"artifacts"`
	Requests    int64               `json:"requests"`
	NotModified int64               `json:"not_modified"`
	Shard       *shard.Metrics      `json:"shard"`
}

func (c *ringClient) scrape() ([]peerCounters, error) {
	out := make([]peerCounters, len(peerNames))
	for i, name := range peerNames {
		resp, err := c.clients[0].Get(name + "/metrics")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode %s/metrics: %w", name, err)
		}
		if out[i].Shard == nil {
			return nil, fmt.Errorf("%s/metrics has no shard block", name)
		}
	}
	return out, nil
}

// checkRouting fails the run on any loop reject or local fallback: on a
// consistent, healthy ring every forward reaches its owner.
func checkRouting(res *result, peers []peerCounters) {
	for i, p := range peers {
		res.check(p.Shard.LoopRejects == 0 && p.Shard.LocalFallbacks == 0,
			"%s: %d loop rejects, %d local fallbacks", peerNames[i], p.Shard.LoopRejects, p.Shard.LocalFallbacks)
	}
}

// ringWorkers is the client connection count: one process, at most nproc.
func ringWorkers() int { return min(2, runtime.NumCPU()) }

// ringBench is a client and the ring it currently drives.
type ringBench struct {
	ring   *ring
	client *ringClient
	wrap   func(int, http.Handler) http.Handler
	probes uint64
}

// newRingBench makes a client with no ring yet; wrap, when set, wraps
// each peer's handler of every ring it boots.
func newRingBench(keys []ringKey, tr *tracer, wrap func(int, http.Handler) http.Handler) *ringBench {
	return &ringBench{client: newRingClient(keys, ringWorkers(), tr), wrap: wrap}
}

// boot replaces s's ring with a freshly booted one n times over
// and returns the mean time from boot until every peer answers /healthz.
// Closing the previous ring is not timed.
func (s *ringBench) boot(n int) (time.Duration, error) {
	var total time.Duration
	for b := 0; b < n; b++ {
		s.close()
		t0 := time.Now()
		r, err := bootRing(s.wrap)
		if err != nil {
			return 0, err
		}
		s.ring = r
		if err := s.client.waitReady(); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return total / time.Duration(n), nil
}

// coldPass sends the seed's fixed list of ringColdN requests closed-loop
// into the ring's cold caches, from a client that remembers no ETags, and
// returns the time from the first send to the last drained body. It
// leaves the caches warm for the timed phases that follow.
func (s *ringBench) coldPass(cfg config, res *result) time.Duration {
	s.client.forget()
	return s.client.runClosed(ringRequests(cfg.seed, 2, ringColdN), 0, res)
}

// warmRing boots s's first ring and warms its caches with a cold pass.
func warmRing(cfg config, res *result, s *ringBench) (*ringBench, error) {
	if _, err := s.boot(1); err != nil {
		s.close()
		return nil, err
	}
	s.coldPass(cfg, res)
	return s, nil
}

// close stops the current ring, if any.
func (s *ringBench) close() {
	if s.ring != nil {
		s.ring.close()
		s.ring = nil
	}
	s.client.closeIdle()
}

// latencyWindow runs n requests of stream 10+k at ringFixedRate.
func (s *ringBench) latencyWindow(cfg config, res *result, k, n int, opBase int64) phase {
	return s.client.run(ringRequests(cfg.seed, 10+uint64(k), n), ringFixedRate, opBase, res)
}

// ringEndToEnd measures the ring in rounds until the budget is spent, so
// that every metric samples the whole run, and reports medians over the
// rounds. A round, ringColdPasses times over, boots ringBootBatch rings in
// a row, timing each until it answers (a setup_s sample), and sends the
// cold pass into the last ring's cold caches (a wall_s sample); it then
// runs a latency window on the warm ring (p50_ms and p99_ms) and a round
// of the rate search: the first round climbs to a rough knee, later ones
// sweep across it (sustained_rps).
func ringEndToEnd(cfg config) (*result, error) {
	res := newResult()
	keys, err := ringUniverseFor(cfg.seed)
	if err != nil {
		return nil, err
	}
	s := newRingBench(keys, nil, nil)
	defer s.close()

	var setups, sSteal, walls, cSteal, p50s, p99s, wSteal, rates, rSteal []float64
	var knee float64
	samples := 0
	start := time.Now()
	for k, last := 0, time.Duration(0); k < 3 || time.Since(start)+last < cfg.budget; k++ {
		t0 := time.Now()
		for c := 0; c < ringColdPasses; c++ {
			runtime.GC()
			c0 := readCPU()
			d, err := s.boot(ringBootBatch)
			if err != nil {
				return nil, err
			}
			c1 := readCPU()
			w := s.coldPass(cfg, res)
			setups = append(setups, d.Seconds())
			sSteal = append(sSteal, stealShare(c0, c1))
			walls = append(walls, w.Seconds())
			cSteal = append(cSteal, stealShare(c1, readCPU()))
		}
		c2 := readCPU()
		p := s.latencyWindow(cfg, res, k, ringWindowN, 0)
		c3 := readCPU()
		lat := msSorted(p.lat)
		p99, ok := percentile(lat, 0.99)
		if !ok {
			return nil, fmt.Errorf("latency window holds %d samples; p99 needs 1000", len(lat))
		}
		samples += len(lat)
		p50s = append(p50s, median(lat))
		p99s = append(p99s, p99)
		wSteal = append(wSteal, stealShare(c2, c3))
		if k == 0 {
			if err := s.noteFirstWindow(res, keys, p); err != nil {
				return nil, err
			}
			knee = s.climb(cfg, res)
		} else {
			// Each sweep centres on the estimates so far, so one unlucky
			// probe in the climb cannot keep the knee out of range.
			if len(rates) > 0 {
				knee = median(rates)
			}
			rates = append(rates, s.sweep(cfg, res, knee))
			rSteal = append(rSteal, stealShare(c3, readCPU()))
		}
		last = time.Since(t0)
	}
	final, err := s.client.scrape()
	if err != nil {
		return nil, err
	}
	checkRouting(res, final)

	res.set("setup_s", median(quietest(setups, sSteal)))
	res.set("wall_s", median(quietest(walls, cSteal)))
	res.set("p50_ms", median(quietest(p50s, wSteal)))
	res.set("p99_ms", median(quietest(p99s, wSteal)))
	res.set("sustained_rps", median(quietest(rates, rSteal)))
	res.set("peak_rss_mb", peakRSSMB())
	res.note("%d rounds; set-up per boot %.6f s (batches of %d); cold pass of %d closed-loop requests %.4f s",
		len(p50s), setups, ringBootBatch, ringColdN, walls)
	res.note("latency windows of %d requests at %g/s (%d samples), p50 %.3f ms; rate estimates %.0f; %d clients",
		ringWindowN, ringFixedRate, samples, p50s, rates, ringWorkers())
	res.note("host CPU steal share per boot batch %.3f, cold pass %.3f, window %.3f, search round %.3f; medians use the quieter half",
		sSteal, cSteal, wSteal, rSteal)
	res.note("error_rate %g ratio (%d of %d requests)", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	return res, nil
}

// noteFirstWindow records how many keys each peer owns, the first
// window's traffic mix, and the per-peer request counts after it. The
// counts depend only on the seed: the cold pass and the first window are
// fixed request lists, and ownership hashes fixed peer names.
func (s *ringBench) noteFirstWindow(res *result, keys []ringKey, p phase) error {
	f, err := shard.NewForwarder(shard.Config{Self: peerNames[0], Peers: peerNames})
	if err != nil {
		return err
	}
	owned := map[string]int{}
	for _, k := range keys {
		owned[f.Owner(k.key.Canonical())]++
	}
	counts, err := s.client.scrape()
	if err != nil {
		return err
	}
	var forwarded, misses, notMod int
	for _, o := range p.outs {
		if o.forwarded {
			forwarded++
		}
		if o.miss {
			misses++
		}
		if o.status == http.StatusNotModified {
			notMod++
		}
	}
	per := make([]string, len(counts))
	own := make([]string, len(counts))
	for i, pc := range counts {
		per[i] = strconv.FormatInt(pc.Requests, 10)
		own[i] = strconv.Itoa(owned[peerNames[i]])
	}
	late := msSorted(p.late)
	res.note("keys owned per peer %s, against %d-entry caches", strings.Join(own, "/"), ringCapacity)
	res.note("first window: %d misses, %d not modified; send lateness p50 %.3f ms, max %.3f ms",
		misses, notMod, median(late), late[len(late)-1])
	res.note("per-peer /schedule requests after the first window: %s; forward share %.6f",
		strings.Join(per, "/"), ratio(float64(forwarded), float64(len(p.outs))))
	return nil
}

// probe runs one search probe at rate r and reports whether it passed.
func (s *ringBench) probe(cfg config, res *result, r float64) bool {
	s.probes++
	return s.client.run(ringRequests(cfg.seed, 100+s.probes, ringProbeN), r, 0, res).passes()
}

// climb finds a rough knee: from twice the latency rate it climbs by
// ringClimb until a probe fails, and returns the log-midpoint of the last
// rate that passed and the one that failed.
func (s *ringBench) climb(cfg config, res *result) float64 {
	last := ringFixedRate
	for r := 2 * ringFixedRate; ; r *= ringClimb {
		if !s.probe(cfg, res, r) {
			return math.Sqrt(last * r)
		}
		last = r
	}
}

// sweep probes ringSweepN rates spaced geometrically over
// [around/ringBracket, around·ringBracket] once each and counts the
// passes. Where passing is monotone in the rate, m passes put the highest
// passing rate at the m-th step; near the knee single probes pass or fail
// by chance, and counting over the whole sweep averages those flips
// instead of letting one of them decide, as a bisection would.
func (s *ringBench) sweep(cfg config, res *result, around float64) float64 {
	lo := around / ringBracket
	step := math.Pow(ringBracket*ringBracket, 1/float64(ringSweepN-1))
	passed := 0
	for i := 0; i < ringSweepN; i++ {
		if s.probe(cfg, res, lo*math.Pow(step, float64(i))) {
			passed++
		}
	}
	if passed == 0 {
		return lo / step
	}
	return lo * math.Pow(step, float64(passed-1))
}

// ringLayers are the ring path's per-layer metrics.
var ringLayers = []metricDef{
	{"loadgen.lateness_p99_ms", "ms"},
	{"ring.client_ms", "ms"},
	{"ring.client_ms.count", "count"},
	{"shard.forward_share", "ratio"},
	{"shard.hop_ms", "ms"},
	{"shard.hop_ms.count", "count"},
	{"serve.handler_ms", "ms"},
	{"serve.handler_ms.count", "count"},
	{"serve.not_modified_share", "ratio"},
	{"serve.artifact_hit_ratio", "ratio"},
	{"serve.artifact_evictions", "count"},
	{"schedcache.hit_ratio", "ratio"},
	{"schedcache.constructions", "count"},
	{"serve.artifact_build_ms", "ms"},
	{"serve.artifact_build_ms.count", "count"},
	{"core.build_ms", "ms"},
	{"core.build_ms.count", "count"},
	{"core.avg_throughput_ms", "ms"},
	{"core.avg_throughput_ms.count", "count"},
	{"wire.encode_ms", "ms"},
	{"wire.encode_ms.count", "count"},
	{"ring.unattributed_share", "ratio"},
}

// traceHandler records one span per /schedule call a peer serves: an
// entry span (carrying the client's op id) or, for a forwarded request,
// an owner span.
func traceHandler(tr *tracer) func(int, http.Handler) http.Handler {
	return func(peer int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := tr.now()
			h.ServeHTTP(w, r)
			if r.URL.Path != "/schedule" {
				return
			}
			name, op := "ring.entry", int64(-1)
			if r.Header.Get(shard.ForwardedHeader) != "" {
				name = "ring.owner"
			} else if v, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64); err == nil {
				op = v
			}
			tr.add(span{Parent: -1, Name: name, Kind: kindRun, Op: op, Start: start, End: tr.now(),
				Attr: strconv.Itoa(peer) + " " + r.URL.RequestURI()})
		})
	}
}

// ringTraced runs the latency phase with spans on, links them into
// client → entry → owner trees, replays the build of every key that
// missed, and reports the ring's per-layer metrics.
func ringTraced(cfg config, tr *tracer, res *result, overhead bool) error {
	keys, err := ringUniverseFor(cfg.seed)
	if err != nil {
		return err
	}
	var plainMean float64
	if overhead {
		s, err := warmRing(cfg, res, newRingBench(keys, nil, nil))
		if err != nil {
			return err
		}
		plainMean = mean(msSorted(s.latencyWindow(cfg, res, 0, 2*ringWindowN, 0).lat))
		s.close()
	}
	s, err := warmRing(cfg, res, newRingBench(keys, tr, traceHandler(tr)))
	if err != nil {
		return err
	}
	defer s.close()
	before, err := s.client.scrape()
	if err != nil {
		return err
	}
	const opBase = 1 << 40 // keeps the traced phase's ids apart from the cold pass's
	p := s.latencyWindow(cfg, res, 0, 2*ringWindowN, opBase)
	after, err := s.client.scrape()
	if err != nil {
		return err
	}
	checkRouting(res, after)
	if overhead {
		res.set("trace.overhead_share", (mean(msSorted(p.lat))-plainMean)/plainMean)
	}

	// Link spans: entry spans by op id; each owner span to the forwarded
	// request with its URI whose entry span most recently started before
	// it and was still open. The owner's span can end a moment after the
	// entry's: its server may flush the last body bytes before its
	// handler returns.
	spans := tr.snapshot()
	entryOf := map[int64]int{}
	var ownerSpans []int
	for _, sp := range spans {
		switch {
		case sp.Name == "ring.entry" && sp.Op >= opBase:
			entryOf[sp.Op] = sp.ID
		case sp.Name == "ring.owner":
			ownerSpans = append(ownerSpans, sp.ID)
		}
	}
	pending := map[string][]int{} // URI -> forwarded request indices
	for i, o := range p.outs {
		e, ok := entryOf[opBase+int64(i)]
		if !ok || o.clientID < 0 {
			return fmt.Errorf("request %d has no entry span", i)
		}
		tr.setParent(e, o.clientID)
		if o.forwarded {
			uri := keys[p.reqs[i].key].path
			pending[uri] = append(pending[uri], i)
		}
	}
	ownerOf := make([]int, len(p.outs))
	for i := range ownerOf {
		ownerOf[i] = -1
	}
	for _, id := range ownerSpans {
		sp := spans[id]
		_, uri, _ := strings.Cut(sp.Attr, " ")
		best := -1
		for _, i := range pending[uri] {
			entry := spans[entryOf[opBase+int64(i)]]
			if ownerOf[i] < 0 && entry.Start <= sp.Start && sp.Start <= entry.End &&
				(best < 0 || entry.Start > spans[entryOf[opBase+int64(best)]].Start) {
				best = i
			}
		}
		if best >= 0 {
			ownerOf[best] = id
			tr.setParent(id, entryOf[opBase+int64(best)])
		}
	}
	unmatched := 0
	for i, o := range p.outs {
		if o.forwarded && ownerOf[i] < 0 {
			unmatched++
		}
	}
	res.note("ring trace: %d forwarded requests have no matching owner span", unmatched)
	spans = tr.snapshot()
	self := selfTimes(spans)

	var client, hop, handler, hitHandler layerStat
	var totalLat, totalLate float64
	misses := map[int]int{}
	forwarded := 0
	for i, o := range p.outs {
		e := entryOf[opBase+int64(i)]
		client.add(self[o.clientID])
		serving := e
		if o.forwarded {
			forwarded++
			hop.add(self[e])
			if ownerOf[i] >= 0 {
				serving = ownerOf[i]
			}
		}
		handler.add(spans[serving].dur())
		if o.miss {
			misses[p.reqs[i].key]++
		} else {
			hitHandler.add(spans[serving].dur())
		}
		totalLat += float64(p.lat[i])
		totalLate += float64(p.late[i])
	}

	build, sched, avg, enc, err := replayBuilds(tr, keys, misses)
	if err != nil {
		return err
	}
	nMiss := build.n
	explained := totalLate + float64(client.total+hop.total+hitHandler.total) +
		float64(build.total) + float64(nMiss)*ratio(float64(hitHandler.total), float64(hitHandler.n))

	var notMod, artHits, artMiss, evict, scHits, scMiss, cons int64
	for i := range after {
		notMod += after[i].NotModified - before[i].NotModified
		artHits += after[i].Artifacts.Hits - before[i].Artifacts.Hits
		artMiss += after[i].Artifacts.Misses - before[i].Artifacts.Misses
		evict += after[i].Artifacts.Evictions - before[i].Artifacts.Evictions
		scHits += after[i].Cache["hits"] - before[i].Cache["hits"]
		scMiss += after[i].Cache["misses"] - before[i].Cache["misses"]
		cons += after[i].Cache["constructions"] - before[i].Cache["constructions"]
	}
	n := float64(len(p.outs))
	p99Late, ok := percentile(msSorted(p.late), 0.99)
	if !ok {
		return fmt.Errorf("traced phase holds %d samples; p99 needs 1000", len(p.late))
	}
	res.set("loadgen.lateness_p99_ms", p99Late)
	res.set("ring.client_ms", client.meanMs())
	res.set("ring.client_ms.count", float64(client.n))
	res.set("shard.forward_share", float64(forwarded)/n)
	res.set("shard.hop_ms", hop.meanMs())
	res.set("shard.hop_ms.count", float64(hop.n))
	res.set("serve.handler_ms", handler.meanMs())
	res.set("serve.handler_ms.count", float64(handler.n))
	res.set("serve.not_modified_share", float64(notMod)/n)
	res.set("serve.artifact_hit_ratio", ratio(float64(artHits), float64(artHits+artMiss)))
	res.set("serve.artifact_evictions", float64(evict))
	res.set("schedcache.hit_ratio", ratio(float64(scHits), float64(scHits+scMiss)))
	res.set("schedcache.constructions", float64(cons))
	res.set("serve.artifact_build_ms", build.meanMs())
	res.set("serve.artifact_build_ms.count", float64(nMiss))
	res.set("core.build_ms", sched.meanMs())
	res.set("core.build_ms.count", float64(sched.n))
	res.set("core.avg_throughput_ms", avg.meanMs())
	res.set("core.avg_throughput_ms.count", float64(avg.n))
	res.set("wire.encode_ms", enc.meanMs())
	res.set("wire.encode_ms.count", float64(enc.n))
	res.set("ring.unattributed_share", (totalLat-explained)/totalLat)
	return nil
}

// replayBuilds repeats, once per key that missed, the cold build a miss
// costs — Service.Artifact on a fresh service — and then its three stages
// one by one, each as a root replay span: serve.artifact_build is the
// whole build, and the stage spans break it down. Each replay is weighted
// by the key's miss count.
func replayBuilds(tr *tracer, keys []ringKey, misses map[int]int) (build, sched, avg, enc layerStat, err error) {
	idx := make([]int, 0, len(misses))
	for k := range misses {
		idx = append(idx, k)
	}
	sort.Ints(idx)
	for _, ki := range idx {
		k := keys[ki].key
		var a *serve.Artifact
		bid := tr.timed("serve.artifact_build", kindReplay, -1, -1, func() {
			a, _, err = serve.NewService(1).Artifact(k)
		})
		if err != nil {
			return
		}
		var s *core.Schedule
		sid := tr.timed("core.build", kindReplay, -1, -1, func() { s, err = schedcache.Build(k) })
		if err != nil {
			return
		}
		var rat *big.Rat
		aid := tr.timed("core.avg_throughput", kindReplay, -1, -1, func() { rat = core.AvgThroughput(s, k.D) })
		frame := &wire.Frame{N: k.N, D: k.D, AlphaT: k.AlphaT, AlphaR: k.AlphaR, Strategy: k.Strategy,
			Schedule: s, AvgThroughput: rat, ActiveFraction: s.ActiveFraction()}
		var digest string
		eid := tr.timed("wire.encode", kindReplay, -1, -1, func() {
			var b []byte
			if b, err = wire.Encode(frame); err == nil {
				digest = wire.Digest(b)
			}
		})
		if err != nil {
			return
		}
		if digest != a.Digest {
			err = fmt.Errorf("replayed encode of %s digests to %s, the service's to %s", k.Canonical(), digest, a.Digest)
			return
		}
		for c := 0; c < misses[ki]; c++ {
			build.add(tr.get(bid).dur())
			sched.add(tr.get(sid).dur())
			avg.add(tr.get(aid).dur())
			enc.add(tr.get(eid).dur())
		}
	}
	return
}
