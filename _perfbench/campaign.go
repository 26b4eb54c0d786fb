package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ttdc "repro"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/topology"
)

// campaignChecked is how many jobs per campaign are re-run alone through
// engine.ExecuteJob and byte-compared with their journal record.
const campaignChecked = 3

// campaignDocs generates the workload's two campaign documents from the
// seed: a saturation campaign over an (αT, αR) grid on regular topologies
// above topology.DenseLimit, so they use CSR adjacency, then a
// convergecast campaign on a grid with replications. The seed draws the
// class sizes from narrow ranges, the order of the duty points, and the
// campaign seeds, so the work per run hardly depends on it; every grid
// point constructs.
func campaignDocs(seed uint64) ([][]byte, error) {
	rng := stats.NewRNG(stats.DeriveSeed(seed, 10))
	// Even sizes: Regularish needs n·D even for D = 3.
	n1 := topology.DenseLimit + 100 + 2*rng.Intn(100)
	satDuty := []engine.DutyPoint{{AlphaT: 250, AlphaR: 2000}, {AlphaT: 400, AlphaR: 2500}, {AlphaT: 500, AlphaR: 4000}}
	ccDuty := []engine.DutyPoint{{AlphaT: 20, AlphaR: 120}, {AlphaT: 40, AlphaR: 200}}
	for _, duty := range [][]engine.DutyPoint{satDuty, ccDuty} {
		rng.Shuffle(len(duty), func(i, j int) { duty[i], duty[j] = duty[j], duty[i] })
	}
	docs := []engine.Campaign{{
		Name: "saturation", N: []int{n1, n1 + 600}, D: []int{2, 3}, Duty: satDuty,
		Topology: "regular", Workload: "saturation", Frames: 2, Seed: rng.Uint64(),
	}, {
		// A square class size: the grid topology rounds n up to a square.
		Name: "convergecast", N: []int{400}, D: []int{4}, Duty: ccDuty,
		Topology: "grid", Workload: "convergecast", Frames: 3, Replications: 60, Seed: rng.Uint64(),
	}}
	out := make([][]byte, len(docs))
	for i := range docs {
		b, err := json.Marshal(&docs[i])
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// campaignRun is one spec → journal pass over one document.
type campaignRun struct {
	camp    *engine.Campaign
	specs   []engine.JobSpec
	journal string
	report  *engine.Report
	setup   time.Duration // DecodeCampaign + Expand + Jobs + OpenJournal
	run     time.Duration // until Run returns with every record journaled
	jobLat  []time.Duration
}

// runCampaign takes one document from spec to journal. With a tracer the
// set-up calls and every Job.Run are spans; op numbers jobs from opBase.
func runCampaign(doc []byte, journal string, tr *tracer, opBase int64) (*campaignRun, error) {
	if err := os.Remove(journal); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	r := &campaignRun{journal: journal}
	stage := func(name string, fn func()) {
		if tr != nil {
			tr.timed(name, kindRun, -1, -1, fn)
		} else {
			fn()
		}
	}
	var err error
	var jobs []engine.Job
	var j *engine.Journal
	t0 := time.Now()
	if stage("engine.decode", func() { r.camp, err = engine.DecodeCampaign(bytes.NewReader(doc)) }); err != nil {
		return nil, err
	}
	if stage("engine.expand", func() { r.specs, err = r.camp.Expand() }); err != nil {
		return nil, err
	}
	if stage("engine.jobs", func() { jobs, err = engine.Jobs(r.camp, nil) }); err != nil {
		return nil, err
	}
	if stage("engine.open_journal", func() { j, err = engine.OpenJournal(journal) }); err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	defer j.Close()

	r.jobLat = make([]time.Duration, len(jobs))
	for i := range jobs {
		inner := jobs[i].Run
		jobs[i].Run = func(ctx context.Context) (v any, err error) {
			if tr != nil {
				tr.timed("engine.job", kindRun, opBase+int64(i), -1, func() { v, err = inner(ctx) })
				return v, err
			}
			t := time.Now()
			v, err = inner(ctx)
			r.jobLat[i] = time.Since(t)
			return v, err
		}
	}
	t1 := time.Now()
	r.report, err = engine.New(engine.Options{Journal: j}).Run(context.Background(), jobs)
	r.run = time.Since(t1)
	if err != nil {
		return nil, err
	}
	return r, j.Close()
}

// checkCampaign verifies one pass: every job ok, the journal reopened
// through OpenJournal holds one record per job in Expand order, and every
// saturation job meets Theorem 1's floor MinLinkThroughput ≥ 1/L (it
// applies because Regularish has degree exactly D). With deep set, a
// seeded sample of jobs is re-run alone and byte-compared.
func checkCampaign(res *result, r *campaignRun, seed uint64, deep bool) {
	name := r.camp.Name
	res.attempted += int64(len(r.specs))
	for _, rec := range r.report.Records {
		if rec.Status != engine.StatusOK {
			res.failed++
			res.check(false, "%s job %s: %s", name, rec.ID, rec.Error)
		}
	}
	j, err := engine.OpenJournal(r.journal)
	if err != nil {
		res.check(false, "%s: reopen journal: %v", name, err)
		return
	}
	recs := j.Records()
	j.Close()
	res.check(len(recs) == len(r.specs), "%s: journal holds %d records for %d jobs", name, len(recs), len(r.specs))
	for i := 0; i < min(len(recs), len(r.specs)); i++ {
		rec := recs[i]
		res.check(rec.Index == i && rec.ID == r.specs[i].ID() && rec.Status == engine.StatusOK,
			"%s: journal record %d is #%d %s (%s), want %s ok", name, i, rec.Index, rec.ID, rec.Status, r.specs[i].ID())
		if r.specs[i].Workload == "saturation" {
			var m struct {
				L   int     `json:"l"`
				Min float64 `json:"minLinkThroughput"`
			}
			err := json.Unmarshal(rec.Result, &m)
			res.check(err == nil && m.L > 0 && m.Min*float64(m.L) >= 1-1e-9,
				"%s job %s: min link throughput %v below Theorem 1's floor 1/%d", name, rec.ID, m.Min, m.L)
		}
	}
	if !deep || len(recs) != len(r.specs) {
		return
	}
	rng := stats.NewRNG(stats.DeriveSeed(seed, 20))
	for _, i := range rng.Perm(len(r.specs))[:min(campaignChecked, len(r.specs))] {
		m, err := engine.ExecuteJob(context.Background(), r.specs[i], stats.DeriveSeed(r.camp.Seed, uint64(i)), nil)
		if err != nil {
			res.check(false, "%s job %s re-run alone: %v", name, r.specs[i].ID(), err)
			continue
		}
		b, err := json.Marshal(m)
		res.check(err == nil && bytes.Equal(b, recs[i].Result), "%s job %s re-run alone marshals differently", name, r.specs[i].ID())
	}
}

// campaignPass runs both documents back to back.
func campaignPass(cfg config, docs [][]byte, pass int, tr *tracer) ([]*campaignRun, error) {
	runs := make([]*campaignRun, len(docs))
	for i, doc := range docs {
		path := filepath.Join(cfg.build, "work", fmt.Sprintf("campaign-%d-%d.jsonl", pass%2, i))
		r, err := runCampaign(doc, path, tr, int64(pass*100000+i*10000))
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	return runs, nil
}

func campaignEndToEnd(cfg config) (*result, error) {
	res := newResult()
	docs, err := campaignDocs(cfg.seed)
	if err != nil {
		return nil, err
	}
	type pass struct {
		setup, wall time.Duration
		jobLat      []time.Duration
		jobs        int
	}
	var passes []pass
	var steal []float64
	// Passes continue past the budget until the quieter half holds enough
	// jobs for a p99, but never past hardStop.
	deadline := time.Now().Add(cfg.budget)
	hardStop := time.Now().Add(max(3*cfg.budget, 150*time.Second))
	for {
		c0 := readCPU()
		runs, err := campaignPass(cfg, docs, len(passes), nil)
		if err != nil {
			return nil, err
		}
		steal = append(steal, stealShare(c0, readCPU()))
		var p pass
		for _, r := range runs {
			checkCampaign(res, r, cfg.seed, len(passes) == 0)
			p.setup += r.setup
			p.wall += r.run
			p.jobLat = append(p.jobLat, r.jobLat...)
			p.jobs += len(r.specs)
		}
		passes = append(passes, p)
		quietJobs := 0
		for _, i := range quietIdx(steal) {
			quietJobs += passes[i].jobs
		}
		if now := time.Now(); now.After(hardStop) || (now.After(deadline) && quietJobs >= 100*minBeyond) {
			break
		}
	}
	var setups, walls []float64
	var lat []time.Duration
	var jobs int
	var busy time.Duration
	for _, i := range quietIdx(steal) {
		setups = append(setups, passes[i].setup.Seconds())
		walls = append(walls, passes[i].wall.Seconds())
		lat = append(lat, passes[i].jobLat...)
		jobs += passes[i].jobs
		busy += passes[i].wall
	}
	sorted := msSorted(lat)
	p99, ok := percentile(sorted, 0.99)
	if !ok {
		return nil, fmt.Errorf("campaign passes hold %d job samples; p99 needs 1000", len(sorted))
	}
	res.set("setup_s", median(setups))
	res.set("wall_s", median(walls))
	res.set("p50_ms", median(sorted))
	res.set("p99_ms", p99)
	res.set("sustained_rps", float64(jobs)/busy.Seconds())
	res.set("peak_rss_mb", peakRSSMB())
	res.note("%d passes of %d jobs; medians over the %d with the least host CPU steal (steal shares %.3f)",
		len(passes), passes[0].jobs, len(walls), steal)
	res.note("job latency over %d samples; error_rate %g ratio", len(sorted), ratio(float64(res.failed), float64(res.attempted)))
	return res, nil
}

// campaignLayers are the campaign path's per-layer metrics.
var campaignLayers = []metricDef{
	{"engine.decode_ms", "ms"},
	{"engine.decode_ms.count", "count"},
	{"engine.expand_ms", "ms"},
	{"engine.expand_ms.count", "count"},
	{"engine.job_ms", "ms"},
	{"engine.job_ms.count", "count"},
	{"engine.worker_idle_share", "ratio"},
	{"core.schedule_build_ms", "ms"},
	{"core.schedule_build_ms.count", "count"},
	{"topology.build_ms", "ms"},
	{"topology.build_ms.count", "count"},
	{"sim.kernel_build_ms", "ms"},
	{"sim.kernel_build_ms.count", "count"},
	{"sim.saturation_frame_ms", "ms"},
	{"sim.saturation_frame_ms.count", "count"},
	{"sim.node_slots_per_s", "1/s"},
	{"sim.convergecast_frame_ms", "ms"},
	{"sim.convergecast_frame_ms.count", "count"},
	{"sim.collision_slots", "count"},
	{"engine.journal_append_ms", "ms"},
	{"engine.journal_append_ms.count", "count"},
	{"engine.journal_bytes", "bytes"},
	{"campaign.unattributed_share", "ratio"},
}

// campaignTraced runs one traced pass, then replays each build stage once
// per distinct schedule, graph and kernel, one simulation per kernel, and
// every journal append, and reports the campaign's per-layer metrics.
func campaignTraced(cfg config, tr *tracer, res *result, overhead bool) error {
	docs, err := campaignDocs(cfg.seed)
	if err != nil {
		return err
	}
	// With overhead measured, an untraced pass after a warm-up pass is the
	// baseline for the traced one.
	var plain time.Duration
	if overhead {
		for pass := 0; pass < 2; pass++ {
			runs, err := campaignPass(cfg, docs, pass, nil)
			if err != nil {
				return err
			}
			plain = 0
			for _, r := range runs {
				checkCampaign(res, r, cfg.seed, false)
				plain += r.setup + r.run
			}
		}
	}
	first := len(tr.snapshot())
	runs, err := campaignPass(cfg, docs, 2, tr)
	if err != nil {
		return err
	}
	var traced, setup, workerTime time.Duration
	workers := runtime.GOMAXPROCS(0)
	for _, r := range runs {
		checkCampaign(res, r, cfg.seed, false)
		traced += r.setup + r.run
		setup += r.setup
		workerTime += r.run * time.Duration(workers)
	}
	if overhead {
		res.set("trace.overhead_share", (traced.Seconds()-plain.Seconds())/plain.Seconds())
	}
	byName := map[string]layerStat{}
	for _, sp := range tr.snapshot()[first:] {
		st := byName[sp.Name]
		st.add(sp.dur())
		byName[sp.Name] = st
	}
	jobs, decode, expand := byName["engine.job"], byName["engine.decode"], byName["engine.expand"]
	res.set("engine.decode_ms", decode.meanMs())
	res.set("engine.decode_ms.count", float64(decode.n))
	res.set("engine.expand_ms", expand.meanMs())
	res.set("engine.expand_ms.count", float64(expand.n))
	res.set("engine.job_ms", jobs.meanMs())
	res.set("engine.job_ms.count", float64(jobs.n))
	res.set("engine.worker_idle_share", 1-float64(jobs.total)/float64(workerTime))

	explained, err := replayCampaign(tr, res, runs)
	if err != nil {
		return err
	}
	total := float64(setup + workerTime)
	res.set("campaign.unattributed_share", (float64(jobs.total)-explained)/total)
	return nil
}

// replayCampaign repeats the stage calls the traced pass made inside its
// jobs and returns the job time they explain, in ns: every distinct
// schedule, graph and kernel build once, plus each job's simulation,
// estimated from one replayed run of its kernel.
func replayCampaign(tr *tracer, res *result, runs []*campaignRun) (float64, error) {
	type schedKey struct{ n, d, at, ar int }
	type graphKey struct {
		topo string
		n, d int
	}
	scheds := map[schedKey]*ttdc.Schedule{}
	graphs := map[graphKey]*ttdc.Graph{}
	simNs := map[string]int64{} // kernel key -> one replayed run
	var schedB, graphB, kernB, satF, ccF layerStat
	var nodeSlots float64
	var satNs int64
	var explained float64
	var collisions float64
	var journalBytes int64
	var appendS layerStat

	for _, r := range runs {
		for i, spec := range r.specs {
			sk := schedKey{spec.N, spec.D, spec.AlphaT, spec.AlphaR}
			s, ok := scheds[sk]
			if !ok {
				var err error
				id := tr.timed("core.schedule_build", kindReplay, -1, -1, func() {
					var base *ttdc.Schedule
					if base, err = ttdc.PolynomialSchedule(spec.N, spec.D); err == nil {
						s, err = ttdc.Construct(base, ttdc.ConstructOptions{AlphaT: spec.AlphaT, AlphaR: spec.AlphaR, D: spec.D})
					}
				})
				if err != nil {
					return 0, err
				}
				scheds[sk] = s
				schedB.add(tr.get(id).dur())
			}
			gk := graphKey{spec.Topology, spec.N, spec.D}
			g, ok := graphs[gk]
			if !ok {
				id := tr.timed("topology.build", kindReplay, -1, -1, func() {
					if spec.Topology == "regular" {
						g = ttdc.Regularish(spec.N, spec.D)
					} else {
						side := 1
						for side*side < spec.N {
							side++
						}
						g = ttdc.Grid(side, side)
					}
				})
				graphs[gk] = g
				graphB.add(tr.get(id).dur())
			}
			kk := fmt.Sprintf("%s/%v", spec.Workload, sk)
			if gk.topo == "grid" {
				kk += fmt.Sprintf("/%d", gk.n)
			}
			if _, ok := simNs[kk]; !ok {
				var err error
				var sid int
				switch spec.Workload {
				case "saturation":
					var k *ttdc.SaturationKernel
					kid := tr.timed("sim.kernel_build", kindReplay, -1, -1, func() { k, err = ttdc.NewSaturationKernel(s, g.N()) })
					if err != nil {
						return 0, err
					}
					kernB.add(tr.get(kid).dur())
					sid = tr.timed("sim.saturation", kindReplay, -1, -1, func() {
						_, err = k.RunSharded(g, spec.Frames, ttdc.DefaultEnergy(), spec.Shards)
					})
					d := tr.get(sid).dur()
					satF.n += spec.Frames
					satF.total += d
					satNs += d
					nodeSlots += float64(g.N()) * float64(s.L()) * float64(spec.Frames)
				case "convergecast":
					var k *ttdc.ConvergecastKernel
					kid := tr.timed("sim.kernel_build", kindReplay, -1, -1, func() { k, err = ttdc.NewConvergecastKernel(g, s, spec.Sink) })
					if err != nil {
						return 0, err
					}
					kernB.add(tr.get(kid).dur())
					cfg := ttdc.ConvergecastConfig{Sink: spec.Sink, Rate: spec.Rate, Frames: spec.Frames,
						Seed: stats.DeriveSeed(r.camp.Seed, uint64(i)), Shards: spec.Shards}
					sid = tr.timed("sim.convergecast", kindReplay, -1, -1, func() { _, err = k.Run(cfg) })
					d := tr.get(sid).dur()
					ccF.n += spec.Frames
					ccF.total += d
				}
				if err != nil {
					return 0, err
				}
				simNs[kk] = tr.get(sid).dur()
			}
			explained += float64(simNs[kk])
		}
		for _, rec := range r.report.Records {
			var m struct {
				Collisions int `json:"collisions"`
			}
			if err := json.Unmarshal(rec.Result, &m); err != nil {
				return 0, err
			}
			collisions += float64(m.Collisions)
		}
		info, err := os.Stat(r.journal)
		if err != nil {
			return 0, err
		}
		journalBytes += info.Size()
		if err := replayJournal(tr, r, &appendS); err != nil {
			return 0, err
		}
	}
	explained += float64(schedB.total + graphB.total + kernB.total)
	res.set("core.schedule_build_ms", schedB.meanMs())
	res.set("core.schedule_build_ms.count", float64(schedB.n))
	res.set("topology.build_ms", graphB.meanMs())
	res.set("topology.build_ms.count", float64(graphB.n))
	res.set("sim.kernel_build_ms", kernB.meanMs())
	res.set("sim.kernel_build_ms.count", float64(kernB.n))
	res.set("sim.saturation_frame_ms", satF.meanMs())
	res.set("sim.saturation_frame_ms.count", float64(satF.n))
	res.set("sim.node_slots_per_s", ratio(nodeSlots, float64(satNs)/1e9))
	res.set("sim.convergecast_frame_ms", ccF.meanMs())
	res.set("sim.convergecast_frame_ms.count", float64(ccF.n))
	res.set("sim.collision_slots", collisions)
	res.set("engine.journal_append_ms", appendS.meanMs())
	res.set("engine.journal_append_ms.count", float64(appendS.n))
	res.set("engine.journal_bytes", float64(journalBytes))
	return explained, nil
}

// replayJournal appends every record of the run to a fresh journal,
// timing each Journal.Append.
func replayJournal(tr *tracer, r *campaignRun, st *layerStat) error {
	path := r.journal + ".replay"
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	j, err := engine.OpenJournal(path)
	if err != nil {
		return err
	}
	for _, rec := range r.report.Records {
		id := tr.timed("engine.journal_append", kindReplay, -1, -1, func() { err = j.Append(rec) })
		if err != nil {
			j.Close()
			return err
		}
		st.add(tr.get(id).dur())
	}
	if err := j.Close(); err != nil {
		return err
	}
	return os.Remove(path)
}
