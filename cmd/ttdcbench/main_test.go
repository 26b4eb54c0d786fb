package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/engine
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCampaignWorkers1   	       2	  11346089 ns/op	  588560 B/op	   11269 allocs/op
BenchmarkCampaignWorkersMax-8 	       2	   5673044 ns/op	  571296 B/op	   11115 allocs/op
BenchmarkSweepWorkers1      	       1	 423707670 ns/op	25939616 B/op	  743498 allocs/op
BenchmarkSweepWorkersMax    	       1	 211853835 ns/op	25932320 B/op	  743456 allocs/op
BenchmarkCacheWarm          	50000000	        34.1 ns/op
PASS
ok  	repro/internal/engine	0.862s
goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCheckRequirement3N31D3Naive  	     416	   2869913 ns/op	   10168 B/op	     155 allocs/op
BenchmarkCheckRequirement3N31D3Prefix-8 	    2794	    447110 ns/op	    3912 B/op	      46 allocs/op
PASS
ok  	repro/internal/core	5.151s
goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSaturationCampaignLegacy 	       5	 240000000 ns/op
BenchmarkSaturationCampaignFast 	     500	   2400000 ns/op
BenchmarkShardedSlotsShards1    	      10	    100000 ns/op
BenchmarkShardedSlotsShardsMax  	      10	     95000 ns/op
PASS
ok  	repro/internal/sim	3.1s
`

func TestParseAndDerive(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(nil, strings.NewReader(sample), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var doc File
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || !strings.Contains(doc.CPU, "Xeon") {
		t.Errorf("header = %+v", doc)
	}
	if doc.GOMAXPROCS <= 0 || doc.NumCPU <= 0 {
		t.Errorf("CPU header: gomaxprocs=%d numCPU=%d", doc.GOMAXPROCS, doc.NumCPU)
	}
	if len(doc.Benchmarks) != 11 {
		t.Fatalf("parsed %d benchmarks, want 11", len(doc.Benchmarks))
	}
	// The -8 suffix is stripped into Procs; memory columns survive.
	if doc.Benchmarks[1].Name != "BenchmarkCampaignWorkersMax" || doc.Benchmarks[1].BytesPerOp != 571296 {
		t.Errorf("benchmarks[1] = %+v", doc.Benchmarks[1])
	}
	if doc.Benchmarks[0].Procs != 1 || doc.Benchmarks[1].Procs != 8 {
		t.Errorf("procs = %d, %d; want 1, 8", doc.Benchmarks[0].Procs, doc.Benchmarks[1].Procs)
	}
	// Fractional ns/op parses.
	if doc.Benchmarks[4].NsPerOp != 34.1 || doc.Benchmarks[4].Iterations != 50000000 {
		t.Errorf("benchmarks[4] = %+v", doc.Benchmarks[4])
	}
	if len(doc.Speedups) != 5 {
		t.Fatalf("speedups = %+v", doc.Speedups)
	}
	// Campaign's comparison side ran under -8, so the pair is a real
	// parallel measurement and must not be flagged single-core.
	if doc.Speedups[0].Name != "Campaign" || doc.Speedups[0].Speedup < 1.99 || doc.Speedups[0].Speedup > 2.01 ||
		doc.Speedups[0].SingleCore {
		t.Errorf("speedups[0] = %+v", doc.Speedups[0])
	}
	// Both Sweep sides ran without a -N suffix (GOMAXPROCS=1): the
	// Workers pair is flagged so nobody reads it as parallel scaling.
	if doc.Speedups[1].Name != "Sweep" || !doc.Speedups[1].SingleCore {
		t.Errorf("speedups[1] = %+v", doc.Speedups[1])
	}
	// The kernel Naive/Prefix pair derives an old-vs-new speedup too.
	if doc.Speedups[2].Name != "CheckRequirement3N31D3" ||
		doc.Speedups[2].Speedup < 6.41 || doc.Speedups[2].Speedup > 6.43 {
		t.Errorf("speedups[2] = %+v", doc.Speedups[2])
	}
	// The simulator Legacy/Fast pair is algorithmic: both sides ran on one
	// core here, and it still must not be flagged — the ratio is valid.
	if doc.Speedups[3].Name != "SaturationCampaign" ||
		doc.Speedups[3].Speedup < 99 || doc.Speedups[3].Speedup > 101 ||
		doc.Speedups[3].SingleCore {
		t.Errorf("speedups[3] = %+v", doc.Speedups[3])
	}
	// Shards1/ShardsMax on one core is the other flagged parallel pair.
	if doc.Speedups[4].Name != "ShardedSlots" || !doc.Speedups[4].SingleCore {
		t.Errorf("speedups[4] = %+v", doc.Speedups[4])
	}
}

func TestNoBenchmarksErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(nil, strings.NewReader("PASS\nok x 0.1s\n"), &out, &errOut); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

// TestRepeatedRunsFold checks that the lines of `go test -count` fold
// into one entry per benchmark: medians for an odd and an even run
// count, the fastest and slowest ns/op, the run count, custom units, and
// a speedup taken from the two medians.
func TestRepeatedRunsFold(t *testing.T) {
	const counted = `pkg: repro/internal/bitset
BenchmarkWindowLegacy-2 	10	 300 ns/op	 0 B/op	 0 allocs/op
BenchmarkWindowFast-2   	40	  25 ns/op	 0 B/op	 0 allocs/op
BenchmarkWindowLegacy-2 	12	 100 ns/op	 0 B/op	 0 allocs/op
BenchmarkWindowFast-2   	50	  15 ns/op	 0 B/op	 0 allocs/op
BenchmarkWindowLegacy-2 	11	 200 ns/op	 0 B/op	 0 allocs/op
BenchmarkScale 	1	 9000 ns/op	 8 B/op	 3 allocs/op	 311 peakRSS-MB
BenchmarkScale 	1	 7000 ns/op	 8 B/op	 5 allocs/op	 313 peakRSS-MB
`
	var out, errOut bytes.Buffer
	if err := run(nil, strings.NewReader(counted), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var doc File
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("%d entries, want one per benchmark name: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	legacy, fast, scale := doc.Benchmarks[0], doc.Benchmarks[1], doc.Benchmarks[2]
	if legacy.Name != "BenchmarkWindowLegacy" || legacy.Runs != 3 || legacy.NsPerOp != 200 ||
		legacy.MinNsPerOp != 100 || legacy.MaxNsPerOp != 300 || legacy.Iterations != 11 || legacy.Procs != 2 {
		t.Errorf("legacy = %+v, want 3 runs, median 200 in [100, 300], 11 iterations", legacy)
	}
	if fast.Name != "BenchmarkWindowFast" || fast.Runs != 2 || fast.NsPerOp != 20 ||
		fast.MinNsPerOp != 15 || fast.MaxNsPerOp != 25 || fast.Iterations != 45 {
		t.Errorf("fast = %+v, want 2 runs, median 20 in [15, 25], 45 iterations", fast)
	}
	if scale.Runs != 2 || scale.NsPerOp != 8000 || scale.AllocsPerOp != 4 || scale.BytesPerOp != 8 ||
		scale.Extra["peakRSS-MB"] != 312 {
		t.Errorf("scale = %+v, want medians 8000 ns, 4 allocs, 8 B, 312 peakRSS-MB", scale)
	}
	if len(doc.Speedups) != 1 || doc.Speedups[0].Name != "Window" ||
		doc.Speedups[0].SerialNs != 200 || doc.Speedups[0].MaxNs != 20 || doc.Speedups[0].Speedup != 10 {
		t.Errorf("speedups = %+v, want Window 200/20 = 10 from the medians", doc.Speedups)
	}
}
