package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

func TestKeyUniverseDeterministic(t *testing.T) {
	a, b := keyUniverse(64), keyUniverse(64)
	if len(a) != 64 {
		t.Fatalf("universe size %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("universe not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i, k := range a {
		if err := k.Validate(); err != nil {
			t.Fatalf("universe[%d] = %+v invalid: %v", i, k, err)
		}
	}
}

func TestZipfSampling(t *testing.T) {
	cdf := zipfCDF(16, 1.1)
	if cdf[len(cdf)-1] != 1 {
		t.Fatalf("CDF does not end at 1: %v", cdf[len(cdf)-1])
	}
	rng := stats.NewRNG(7)
	counts := make([]int, 16)
	for i := 0; i < 10000; i++ {
		counts[sample(rng, cdf)]++
	}
	// Rank 0 must dominate the tail under zipf.
	if counts[0] <= counts[15] {
		t.Fatalf("zipf head %d <= tail %d", counts[0], counts[15])
	}
	// Uniform (s=0): head and tail within a factor of 2 at 10k draws.
	u := zipfCDF(16, 0)
	rng2 := stats.NewRNG(7)
	ucounts := make([]int, 16)
	for i := 0; i < 10000; i++ {
		ucounts[sample(rng2, u)]++
	}
	if ucounts[0] > 2*ucounts[15] || ucounts[15] > 2*ucounts[0] {
		t.Fatalf("uniform mix skewed: head %d tail %d", ucounts[0], ucounts[15])
	}
	// Same seed, same draws.
	r1, r2 := stats.NewRNG(3), stats.NewRNG(3)
	for i := 0; i < 100; i++ {
		if sample(r1, cdf) != sample(r2, cdf) {
			t.Fatal("sampling not reproducible")
		}
	}
}

func TestSummarize(t *testing.T) {
	if got := summarize(nil); got != (Latency{}) {
		t.Fatalf("empty summarize = %+v", got)
	}
	ns := make([]int64, 100)
	for i := range ns {
		ns[i] = int64(100 - i) // reversed, so summarize must sort
	}
	l := summarize(ns)
	if l.P50Ns != 50 || l.P90Ns != 90 || l.P99Ns != 99 || l.MaxNs != 100 {
		t.Fatalf("quantiles = %+v", l)
	}
	if l.MeanNs != 50.5 {
		t.Fatalf("mean = %v", l.MeanNs)
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{}, // no targets, no inproc
		{"-inproc", "2", "-requests", "0"},
		{"-inproc", "2", "-mix", "pareto"},
	} {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestLoadAgainstInprocRing is the fleet acceptance run: >=10k requests
// against a 3-peer in-process ring must complete with zero errors, zero
// forwarding loops, measurable 304s, and a well-formed BENCH document.
func TestLoadAgainstInprocRing(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-request integration run")
	}
	outPath := filepath.Join(t.TempDir(), "BENCH_serve.json")
	err := run([]string{
		"-inproc", "3", "-requests", "10000", "-c", "16",
		"-keys", "48", "-seed", "42", "-o", outPath,
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc File
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_serve.json not JSON: %v", err)
	}
	if doc.Counts.Requests < 10000 || doc.Counts.Errors != 0 {
		t.Fatalf("counts = %+v", doc.Counts)
	}
	if doc.Counts.Hits == 0 || doc.Counts.Misses == 0 {
		t.Fatalf("no cache traffic measured: %+v", doc.Counts)
	}
	if doc.Counts.NotModified == 0 {
		t.Fatalf("no 304s measured: %+v", doc.Counts)
	}
	if doc.Counts.Forwarded == 0 {
		t.Fatalf("a 3-peer ring should forward some requests: %+v", doc.Counts)
	}
	if doc.Counts.WireBodies == 0 {
		t.Fatalf("no wire bodies served: %+v", doc.Counts)
	}
	if doc.Latency.P50Ns <= 0 || doc.Latency.P99Ns < doc.Latency.P50Ns {
		t.Fatalf("latency summary = %+v", doc.Latency)
	}
	if doc.GOMAXPROCS <= 0 || doc.NumCPU <= 0 {
		t.Fatalf("header missing CPU info: gomaxprocs=%d numCPU=%d", doc.GOMAXPROCS, doc.NumCPU)
	}
	if len(doc.PeerReports) != 3 {
		t.Fatalf("peer reports = %d, want 3", len(doc.PeerReports))
	}
	var serverRequests, server304, local304 int64
	for _, pr := range doc.PeerReports {
		if pr.LoopRejects != 0 {
			t.Fatalf("peer %s recorded %d forwarding loops", pr.Peer, pr.LoopRejects)
		}
		serverRequests += pr.Requests
		server304 += pr.NotModified
		local304 += pr.LocalNotModified
	}
	// Entry peers answer revalidations of remote keys they have relayed.
	if local304 == 0 || local304 > server304 {
		t.Fatalf("peers answered %d of their %d 304s locally", local304, server304)
	}
	// Every client request (plus forwarded hops) landed on some peer.
	if serverRequests < doc.Counts.Requests {
		t.Fatalf("servers saw %d requests, clients sent %d", serverRequests, doc.Counts.Requests)
	}
	if server304 < doc.Counts.NotModified {
		t.Fatalf("servers counted %d 304s, clients observed %d", server304, doc.Counts.NotModified)
	}
	// Statuses must be only 200 and 304.
	for code := range doc.Statuses {
		if code != "200" && code != "304" {
			t.Fatalf("unexpected status %s: %v", code, doc.Statuses)
		}
	}
}

// TestPeerReportsCountArtifactHits pins the per-peer cache counters to the
// one cache that answers repeats: with four keys over 300 requests every
// key repeats, each key is built once by its owner, and every lookup an
// owner makes is counted once, as a hit or as a miss.
func TestPeerReportsCountArtifactHits(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-inproc", "3", "-requests", "300", "-c", "2", "-keys", "4", "-seed", "7"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var doc File
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counts.Errors != 0 {
		t.Fatalf("counts = %+v", doc.Counts)
	}
	var requests, local304, hits, misses, constructions int64
	for _, pr := range doc.PeerReports {
		if pr.CacheMisses < pr.Constructions {
			t.Fatalf("peer %s: %d constructions from %d misses", pr.Peer, pr.Constructions, pr.CacheMisses)
		}
		requests += pr.Requests
		local304 += pr.LocalNotModified
		hits += pr.CacheHits
		misses += pr.CacheMisses
		constructions += pr.Constructions
	}
	if hits == 0 {
		t.Fatalf("repeated keys recorded no cache hits: %+v", doc.PeerReports)
	}
	if constructions != int64(doc.Keys) {
		t.Fatalf("constructions = %d, want one per key (%d)", constructions, doc.Keys)
	}
	// A peer looks a key up for every request it neither relayed nor
	// answered from a learned digest.
	if lookups := requests - doc.Counts.Forwarded - local304; hits+misses != lookups {
		t.Fatalf("hits %d + misses %d != %d lookups (%d requests, %d forwarded, %d local 304s)",
			hits, misses, lookups, requests, doc.Counts.Forwarded, local304)
	}
}
