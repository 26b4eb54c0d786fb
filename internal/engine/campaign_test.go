package engine

import (
	"context"
	"strings"
	"testing"

	ttdc "repro"
	"repro/internal/schedcache"
	"repro/internal/stats"
)

func TestExpandOrderAndCount(t *testing.T) {
	c := &Campaign{
		N:            []int{9, 16},
		D:            []int{2, 3},
		Duty:         []DutyPoint{{}, {AlphaT: 2, AlphaR: 4}},
		Replications: 3,
	}
	specs, err := c.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*2*2*3 {
		t.Fatalf("expanded to %d jobs, want 24", len(specs))
	}
	// n outermost, then D, then duty, then rep.
	if specs[0].N != 9 || specs[0].D != 2 || specs[0].AlphaT != 0 || specs[0].Rep != 0 {
		t.Fatalf("specs[0] = %+v", specs[0])
	}
	if specs[1].Rep != 1 {
		t.Fatalf("specs[1].Rep = %d, want 1", specs[1].Rep)
	}
	if specs[3].AlphaT != 2 || specs[3].AlphaR != 4 {
		t.Fatalf("specs[3] = %+v", specs[3])
	}
	if specs[12].N != 16 {
		t.Fatalf("specs[12].N = %d, want 16", specs[12].N)
	}
	// IDs are unique.
	seen := make(map[string]bool)
	for _, sp := range specs {
		if seen[sp.ID()] {
			t.Fatalf("duplicate job ID %s", sp.ID())
		}
		seen[sp.ID()] = true
	}
}

func TestJobSeedsMatchDeriveSeed(t *testing.T) {
	c := &Campaign{N: []int{9}, D: []int{2}, Replications: 4, Seed: 99}
	jobs, err := Jobs(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		if want := stats.DeriveSeed(99, uint64(i)); job.Seed != want {
			t.Fatalf("job %d seed = %d, want %d", i, job.Seed, want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		c    Campaign
		want string
	}{
		{"no n", Campaign{D: []int{2}}, "at least one n"},
		{"no d", Campaign{N: []int{9}}, "at least one n and one D"},
		{"n too small", Campaign{N: []int{1}, D: []int{2}}, "outside [2"},
		{"n too large", Campaign{N: []int{MaxCampaignN + 1}, D: []int{2}}, "outside [2"},
		{"bad construction", Campaign{Construction: "magic", N: []int{9}, D: []int{2}}, "unknown construction"},
		{"bad topology", Campaign{Topology: "torus", N: []int{9}, D: []int{2}}, "unknown topology"},
		{"bad workload", Campaign{Workload: "ping", N: []int{9}, D: []int{2}}, "unknown workload"},
		{"bad strategy", Campaign{Strategy: "greedy", N: []int{9}, D: []int{2}}, "strategy"},
		{"half duty", Campaign{N: []int{9}, D: []int{2}, Duty: []DutyPoint{{AlphaT: 2}}}, "both caps"},
		{"negative duty", Campaign{N: []int{9}, D: []int{2}, Duty: []DutyPoint{{AlphaT: -1, AlphaR: -1}}}, "negative duty"},
		{"rate", Campaign{N: []int{9}, D: []int{2}, Rate: 2}, "rate"},
		{"frames", Campaign{N: []int{9}, D: []int{2}, Frames: maxFrames + 1}, "frames"},
		{"radius", Campaign{N: []int{9}, D: []int{2}, Radius: 3}, "radius"},
		{"sink", Campaign{N: []int{9}, D: []int{2}, Sink: -1}, "sink"},
		{"replications", Campaign{N: []int{9}, D: []int{2}, Replications: maxReplications + 1}, "replications"},
		{"too many jobs", Campaign{N: make([]int, 300), D: make([]int, 300), Replications: 10}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "too many jobs" {
				for i := range tc.c.N {
					tc.c.N[i] = 9
				}
				for i := range tc.c.D {
					tc.c.D[i] = 2
				}
			}
			err := tc.c.Validate()
			if err == nil {
				t.Fatal("validated")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestDecodeCampaign(t *testing.T) {
	c, err := DecodeCampaign(strings.NewReader(
		`{"name":"demo","n":[9,16],"d":[2],"duty":[{"alphaT":2,"alphaR":4}],"workload":"flood","seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "demo" || len(c.N) != 2 || c.Workload != "flood" || c.Seed != 5 {
		t.Fatalf("decoded %+v", c)
	}
	if _, err := DecodeCampaign(strings.NewReader(`{"n":[9],"d":[2],"alphaT":[2]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeCampaign(strings.NewReader(`{`)); err == nil {
		t.Fatal("truncated document accepted")
	}
	if _, err := DecodeCampaign(strings.NewReader(`{"n":[0],"d":[2]}`)); err == nil {
		t.Fatal("out-of-range n accepted")
	}
}

// TestExecuteJobWorkloads smoke-runs each workload once on a tiny class.
func TestExecuteJobWorkloads(t *testing.T) {
	for _, workload := range []string{"analysis", "saturation", "convergecast", "flood"} {
		t.Run(workload, func(t *testing.T) {
			c := &Campaign{N: []int{9}, D: []int{2}, Workload: workload, Frames: 2, Seed: 3}
			specs, err := c.Expand()
			if err != nil {
				t.Fatal(err)
			}
			m, err := ExecuteJob(context.Background(), specs[0], stats.DeriveSeed(3, 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.L <= 0 {
				t.Fatalf("metrics = %+v", m)
			}
			if workload == "analysis" && m.AvgThroughput == "" {
				t.Fatal("analysis produced no throughput")
			}
			if workload == "flood" && m.Covered == 0 {
				t.Fatal("flood covered nobody")
			}
		})
	}
}

// TestScheduleMemoSharesBase pins the campaign memo's layout: the duty
// points of a class run Construct on one memoized base, the base job
// reuses it, and each duty-cycled schedule matches a direct build. With a
// schedule cache every polynomial job goes through Get instead, so its
// frame-length budget check still sees every construction.
func TestScheduleMemoSharesBase(t *testing.T) {
	spec := func(alphaT, alphaR int, strategy string) JobSpec {
		return JobSpec{Construction: "polynomial", N: 25, D: 2, AlphaT: alphaT, AlphaR: alphaR, Strategy: strategy}
	}
	specs := []JobSpec{spec(3, 5, ""), spec(4, 8, ""), spec(3, 5, "balanced"), spec(0, 0, ""), spec(0, 0, "balanced")}
	memo := &schedMemo{m: make(map[schedKey]*schedEntry)}
	got := make([]*ttdc.Schedule, len(specs))
	for i, sp := range specs {
		s, err := buildSchedule(sp, nil, memo)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = s
	}
	if len(memo.m) != 4 {
		t.Fatalf("memo holds %d entries, want one base and three duty points", len(memo.m))
	}
	base, err := ttdc.PolynomialSchedule(25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[3] != got[4] || got[3] != memo.m[schedKey{construction: "polynomial", n: 25, d: 2}].s {
		t.Fatal("the base jobs do not share the memoized base")
	}
	for i, sp := range specs[:3] {
		strategy, _ := schedcache.ParseStrategy(sp.Strategy)
		want, err := ttdc.Construct(base, ttdc.ConstructOptions{AlphaT: sp.AlphaT, AlphaR: sp.AlphaR, D: sp.D, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		if got[i].L() != want.L() {
			t.Fatalf("%s: L = %d, want %d", sp.ID(), got[i].L(), want.L())
		}
		for k := 0; k < want.L(); k++ {
			if !got[i].T(k).Equal(want.T(k)) || !got[i].R(k).Equal(want.R(k)) {
				t.Fatalf("%s: slot %d differs from a direct build", sp.ID(), k)
			}
		}
	}

	cache := schedcache.NewTrusted(8)
	memo = &schedMemo{m: make(map[schedKey]*schedEntry)}
	for _, sp := range specs {
		if _, err := buildSchedule(sp, cache, memo); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Constructions != 4 {
		t.Fatalf("cache constructions = %d, want 4 (three duty points and the base)", st.Constructions)
	}
}
