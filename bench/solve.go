package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// solveSpec is a library workload: jobs run on shares distributed once in
// set-up, the way the paper and internal/expt time the kernels.
type solveSpec struct {
	build func(sz sizes, seed uint64) (*graph.Graph, *partition.Partition, error)
	match matching.ParallelOptions
	color coloring.ParallelOptions
}

func buildGrid(sz sizes, seed uint64) (*graph.Graph, *partition.Partition, error) {
	g, err := gen.Grid2D(sz.grid, sz.grid, true, seed)
	if err != nil {
		return nil, nil, err
	}
	part, err := partition.Grid2D(sz.grid, sz.grid, 2, 2)
	return g, part, err
}

func buildRMAT(sz sizes, seed uint64) (*graph.Graph, *partition.Partition, error) {
	g, err := gen.RMAT(sz.rmatScale, 8, true, seed)
	if err != nil {
		return nil, nil, err
	}
	part, err := partition.Multilevel(g, ranks, partition.MultilevelOptions{Seed: 1})
	return g, part, err
}

var solveSpecs = map[string]solveSpec{
	"solve_grid": {build: buildGrid,
		color: coloring.ParallelOptions{SuperstepSize: 1000, CommMode: coloring.CommNeighbors}},
	"solve_rmat": {build: buildRMAT,
		color: coloring.ParallelOptions{SuperstepSize: 1000, CommMode: coloring.CommNeighbors}},
	// One record per message is the paper's no-bundling ablation; broadcast
	// with short supersteps is the chattiest coloring variant.
	"solve_rmat_chatty": {build: buildRMAT,
		match: matching.ParallelOptions{MaxBundleBytes: 17},
		color: coloring.ParallelOptions{SuperstepSize: 100, CommMode: coloring.CommBroadcast}},
}

const solveWarmupJobs = 4

type solveRun struct {
	spec solveSpec
	sz   sizes
	seed uint64

	g      *graph.Graph
	part   *partition.Partition
	shares []*dgraph.DistGraph
	world  *mpi.World
	mres   []*matching.ParallelResult
	cres   []*coloring.ParallelResult
	next   int // index of the next job; alternates the kinds and seeds the coloring

	refWeight float64
	refCard   int
	maxDeg    int
	errs      int // result-check failures reported on standard error so far
}

func (s *solveRun) setup() (err error) {
	if s.g, s.part, err = s.spec.build(s.sz, s.seed); err != nil {
		return err
	}
	if s.shares, err = dgraph.Distribute(s.g, s.part); err != nil {
		return err
	}
	if s.world, err = mpi.NewWorld(ranks, mpi.WithDeadline(2*time.Minute)); err != nil {
		return err
	}
	s.mres = make([]*matching.ParallelResult, ranks)
	s.cres = make([]*coloring.ParallelResult, ranks)
	s.next = 0
	for i := 0; i < solveWarmupJobs; i++ {
		if _, err := s.job(nil, false); err != nil {
			return err
		}
	}
	return nil
}

func (s *solveRun) reference() error {
	ref := matching.LocallyDominant(s.g)
	s.refWeight, s.refCard, s.maxDeg = ref.Weight(s.g), ref.Cardinality(), s.g.MaxDegree()
	return nil
}

func (s *solveRun) close() {}

func (s *solveRun) peakRSSMB() (float64, error) { return vmHWM(os.Getpid()) }

// job runs one job: Reset, World.Run of the kernel on the prebuilt shares,
// Gather. With check set it then verifies the result, outside the timed part.
func (s *solveRun) job(tr *tracer, check bool) (jobRec, error) {
	i := s.next
	s.next++
	rec := jobRec{kind: i % 2, weightRatio: 1}
	jid := int32(i + 1)
	color := s.spec.color
	color.Seed = s.seed*1_000_003 + uint64(i)

	root := tr.begin("job."+kindNames[rec.kind], 0, jid)
	start := time.Now()
	if _, err := s.world.Reset(); err != nil {
		return rec, err
	}
	run := tr.begin("mpi.World.Run", root, jid)
	err := s.world.Run(func(c *mpi.Comm) (err error) {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		if rec.kind == kindMatch {
			s.mres[c.Rank()], err = matching.Parallel(c, s.shares[c.Rank()], s.spec.match)
		} else {
			s.cres[c.Rank()], err = coloring.Parallel(c, s.shares[c.Rank()], color)
		}
		if tr != nil {
			tr.add(kindPkg[rec.kind]+".Parallel", run, jid, t0, time.Now())
		}
		return err
	})
	tr.end(run)
	if err != nil {
		return rec, err
	}
	gather := tr.begin(kindPkg[rec.kind]+".Gather", root, jid)
	var mates matching.Mates
	var colors coloring.Colors
	if rec.kind == kindMatch {
		mates, err = matching.Gather(s.shares, s.mres)
	} else {
		colors, err = coloring.Gather(s.shares, s.cres)
	}
	tr.end(gather)
	rec.end = time.Now()
	rec.lat = rec.end.Sub(start)
	tr.end(root)
	if err != nil {
		return rec, err
	}

	st := s.world.TotalStats()
	rec.wireBytes, rec.msgs = st.SentBytes, st.SentMsgs
	if rec.kind == kindMatch {
		for _, r := range s.mres {
			rec.outer = max(rec.outer, r.OuterIterations)
			rec.records += r.Records
			rec.bundles += r.Bundles
		}
	} else {
		rec.colors, rec.rounds = s.cres[0].NumColors, s.cres[0].Rounds
		for _, r := range s.cres {
			rec.conflicts += r.Conflicts
		}
	}
	if !check {
		return rec, nil
	}
	if rec.kind == kindMatch {
		weight := mates.Weight(s.g)
		rec.weightRatio = weight / s.refWeight
		switch {
		case math.Abs(weight-s.refWeight) > 1e-9*s.refWeight:
			err = fmt.Errorf("weight %v, sequential %v", weight, s.refWeight)
		case mates.Cardinality() != s.refCard:
			err = fmt.Errorf("cardinality %d, sequential %d", mates.Cardinality(), s.refCard)
		default:
			err = mates.VerifyMaximal(s.g)
		}
	} else {
		if rec.colors > s.maxDeg+1 {
			err = fmt.Errorf("%d colors on maximum degree %d", rec.colors, s.maxDeg)
		} else {
			err = colors.Verify(s.g)
		}
	}
	rec.ok = err == nil
	if err != nil && s.errs < 5 {
		s.errs++
		fmt.Fprintf(os.Stderr, "bench: %s job %d failed its check: %v\n", kindNames[rec.kind], i, err)
	}
	return rec, nil
}

func (s *solveRun) measure(d time.Duration, tr *tracer) (*window, error) {
	m := startMeter(d)
	var jobs []jobRec
	for !m.done() || len(jobs)%2 == 1 {
		rec, err := s.job(tr, true)
		if err != nil {
			m.window(nil, false)
			return nil, err
		}
		jobs = append(jobs, rec)
	}
	return m.window(jobs, false), nil
}

func (s *solveRun) layers(plain, traced *window, tr *tracer, out map[string]float64) error {
	// Allocation and GC per job, over a short untraced stretch of its own so
	// that nothing else in this process is counted.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const memJobs = 10
	for i := 0; i < memJobs; i++ {
		if _, err := s.job(nil, false); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	out["go.alloc_mb_per_job"] = float64(after.TotalAlloc-before.TotalAlloc) / memJobs / (1 << 20)
	out["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	out["go.gc_pause_ms_total"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	prof, err := profileStages(tr, s.g, s.part, s.spec.match, s.spec.color)
	if err != nil {
		return err
	}
	prof.fill(s.g, s.part, out)
	// Kernel and gather times come from the traced jobs (many samples), not
	// from the one-off profile.
	byJob := map[int32][]span{}
	for _, sp := range tr.spans {
		if sp.Job != 0 {
			byJob[sp.Job] = append(byJob[sp.Job], sp)
		}
	}
	var kernel, imbalance, covered [2][]float64
	for _, spans := range byJob {
		var jobMs, runMs, gatherMs, slowest, sum float64
		kind := kindMatch
		for _, sp := range spans {
			dur := float64(sp.End-sp.Start) / 1e6
			switch sp.Name {
			case "job.color":
				kind = kindColor
				jobMs = dur
			case "job.match":
				jobMs = dur
			case "mpi.World.Run":
				runMs = dur
			case "matching.Gather", "coloring.Gather":
				gatherMs = dur
			case "matching.Parallel", "coloring.Parallel":
				slowest = max(slowest, dur)
				sum += dur
			}
		}
		kernel[kind] = append(kernel[kind], slowest)
		imbalance[kind] = append(imbalance[kind], slowest/(sum/ranks))
		covered[kind] = append(covered[kind], (runMs+gatherMs)/jobMs)
	}
	n := float64(s.g.NumVertices())
	for kind, pkg := range kindPkg {
		k := median(kernel[kind])
		out[pkg+".kernel_ms"] = k
		out[pkg+".rank_imbalance"] = median(imbalance[kind])
		out[pkg+".gather_ms"] = median(spanDurs(tr.spans, pkg+".Gather"))
		out[pkg+".par_over_seq"] = k / prof.k[kind].seqMs
	}
	jobs := func(f func(*jobRec) float64) []float64 { return traced.pick(kindMatch, f) }
	out["matching.outer_iters_p50"] = median(jobs(func(j *jobRec) float64 { return float64(j.outer) }))
	out["matching.records_per_job"] = mean(jobs(func(j *jobRec) float64 { return float64(j.records) }))
	out["matching.bundles_per_job"] = mean(jobs(func(j *jobRec) float64 { return float64(j.bundles) }))
	out["coloring.conflict_frac"] = out["coloring.conflicts_per_job"] / n
	out["replay.coverage_frac"] = (median(covered[kindMatch]) + median(covered[kindColor])) / 2
	return nil
}
