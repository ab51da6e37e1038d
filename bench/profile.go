package main

import (
	"bytes"
	"strings"
	"time"

	"repro/dmgm"
	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/order"
	"repro/internal/partition"
)

// kindProfile holds the stage times, in ms, of one job of one kind.
type kindProfile struct {
	seqMs, apiMs, kernelMs, gatherMs, verifyMs, writeMs float64
	result                                              string // serialized result, for the service replay
}

// profile holds the stage times of one input: every public function a job
// passes through, called alone, in the order the daemon calls them.
type profile struct {
	textReadMs, textMiB, dmgbEncodeMs, dmgbDecodeMs, dmgbMiB float64
	fingerprintMs, multilevelMs, distributeMs, ghostFrac     float64
	k                                                        [2]kindProfile
}

// stage times fn under a span: the median of three runs, or of as many as fit
// in 0.6 s, so that one collection or one stolen slice does not decide a row.
func stage(tr *tracer, name string, fn func() error) (float64, error) {
	var runs []float64
	for total := 0.0; len(runs) < 3 && total < 600; total += runs[len(runs)-1] {
		id := tr.begin(name, 0, 0)
		start := time.Now()
		err := fn()
		runs = append(runs, ms(time.Since(start)))
		tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	return median(runs), nil
}

// profileStages replays one match job and one color job on g stage by stage.
// part is the partition the workload's jobs run on; Multilevel is timed as
// well, since it is what the daemon runs on a partition-cache miss.
func profileStages(tr *tracer, g *graph.Graph, part *partition.Partition, mo matching.ParallelOptions, co coloring.ParallelOptions) (*profile, error) {
	p := &profile{}
	var err error

	var text bytes.Buffer
	if err := graph.WriteText(&text, g); err != nil {
		return nil, err
	}
	p.textMiB = float64(text.Len()) / (1 << 20)
	if p.textReadMs, err = stage(tr, "graph.ReadText", func() error {
		_, err := graph.ReadText(bytes.NewReader(text.Bytes()))
		return err
	}); err != nil {
		return nil, err
	}
	var enc []byte
	if p.dmgbEncodeMs, err = stage(tr, "graph.EncodeDMGB", func() (err error) {
		enc, err = graph.EncodeDMGB(g)
		return err
	}); err != nil {
		return nil, err
	}
	p.dmgbMiB = float64(len(enc)) / (1 << 20)
	if p.dmgbDecodeMs, err = stage(tr, "graph.ReadDMGB", func() error {
		_, err := graph.ReadDMGB(bytes.NewReader(enc))
		return err
	}); err != nil {
		return nil, err
	}
	p.fingerprintMs, _ = stage(tr, "graph.Fingerprint", func() error { graph.Fingerprint(g); return nil })
	if p.multilevelMs, err = stage(tr, "partition.Multilevel", func() error {
		_, err := partition.Multilevel(g, ranks, partition.MultilevelOptions{Seed: 1})
		return err
	}); err != nil {
		return nil, err
	}
	var shares []*dgraph.DistGraph
	if p.distributeMs, err = stage(tr, "dgraph.Distribute", func() (err error) {
		shares, err = dgraph.Distribute(g, part)
		return err
	}); err != nil {
		return nil, err
	}
	ghosts, slots := 0, 0
	for _, d := range shares {
		ghosts += d.NGhost
		slots += d.NLocal + d.NGhost
	}
	p.ghostFrac = float64(ghosts) / float64(slots)
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		return nil, err
	}

	// Match.
	m := &p.k[kindMatch]
	m.seqMs, _ = stage(tr, "matching.LocallyDominant", func() error { matching.LocallyDominant(g); return nil })
	mres := make([]*matching.ParallelResult, ranks)
	if m.kernelMs, err = stage(tr, "matching.Parallel", func() error {
		if _, err := w.Reset(); err != nil {
			return err
		}
		return w.Run(func(c *mpi.Comm) (err error) {
			mres[c.Rank()], err = matching.Parallel(c, shares[c.Rank()], mo)
			return err
		})
	}); err != nil {
		return nil, err
	}
	var mates matching.Mates
	if m.gatherMs, err = stage(tr, "matching.Gather", func() (err error) {
		mates, err = matching.Gather(shares, mres)
		return err
	}); err != nil {
		return nil, err
	}
	if m.verifyMs, err = stage(tr, "matching.VerifyMaximal", func() error { return mates.VerifyMaximal(g) }); err != nil {
		return nil, err
	}
	if m.writeMs, err = stage(tr, "matching.WriteMates", func() error {
		var sb strings.Builder
		err := matching.WriteMates(&sb, mates)
		m.result = sb.String()
		return err
	}); err != nil {
		return nil, err
	}
	if m.apiMs, err = stage(tr, "dmgm.MatchParallelWorld", func() error {
		if _, err := w.Reset(); err != nil {
			return err
		}
		_, err := dmgm.MatchParallelWorld(w, g, part, dmgm.MatchParallelOptions{BundleBytes: mo.MaxBundleBytes})
		return err
	}); err != nil {
		return nil, err
	}

	// Color.
	c := &p.k[kindColor]
	if c.seqMs, err = stage(tr, "coloring.Greedy", func() error {
		_, err := coloring.Greedy(g, order.Natural, 1)
		return err
	}); err != nil {
		return nil, err
	}
	cres := make([]*coloring.ParallelResult, ranks)
	if c.kernelMs, err = stage(tr, "coloring.Parallel", func() error {
		if _, err := w.Reset(); err != nil {
			return err
		}
		return w.Run(func(cm *mpi.Comm) (err error) {
			cres[cm.Rank()], err = coloring.Parallel(cm, shares[cm.Rank()], co)
			return err
		})
	}); err != nil {
		return nil, err
	}
	var colors coloring.Colors
	if c.gatherMs, err = stage(tr, "coloring.Gather", func() (err error) {
		colors, err = coloring.Gather(shares, cres)
		return err
	}); err != nil {
		return nil, err
	}
	if c.verifyMs, err = stage(tr, "coloring.Verify", func() error { return colors.Verify(g) }); err != nil {
		return nil, err
	}
	if c.writeMs, err = stage(tr, "coloring.WriteColors", func() error {
		var sb strings.Builder
		err := coloring.WriteColors(&sb, colors)
		c.result = sb.String()
		return err
	}); err != nil {
		return nil, err
	}
	if c.apiMs, err = stage(tr, "dmgm.ColorParallelWorld", func() error {
		if _, err := w.Reset(); err != nil {
			return err
		}
		_, err := dmgm.ColorParallelWorld(w, g, part, dmgm.ColorParallelOptions{
			SuperstepSize: co.SuperstepSize, CommMode: co.CommMode, Seed: co.Seed})
		return err
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// fill writes the rows every workload takes from the profile.
func (p *profile) fill(g *graph.Graph, part *partition.Partition, out map[string]float64) {
	pm := partition.Measure(g, part)
	m, c := &p.k[kindMatch], &p.k[kindColor]
	for name, v := range map[string]float64{
		"graph.text_read_ms":      p.textReadMs,
		"graph.text_mb_per_s":     p.textMiB / (p.textReadMs / 1000),
		"graph.dmgb_decode_ms":    p.dmgbDecodeMs,
		"graph.dmgb_encode_ms":    p.dmgbEncodeMs,
		"graph.dmgb_mb_per_s":     p.dmgbMiB / (p.dmgbDecodeMs / 1000),
		"graph.fingerprint_ms":    p.fingerprintMs,
		"partition.multilevel_ms": p.multilevelMs,
		"partition.edge_cut_frac": pm.CutFraction,
		"partition.imbalance":     pm.Imbalance,
		"dgraph.distribute_ms":    p.distributeMs,
		"dgraph.ghost_frac":       p.ghostFrac,
		"matching.verify_ms":      m.verifyMs,
		"matching.write_ms":       m.writeMs,
		"matching.seq_ms":         m.seqMs,
		"coloring.verify_ms":      c.verifyMs,
		"coloring.write_ms":       c.writeMs,
		"coloring.seq_ms":         c.seqMs,
		"dmgm.api_overhead_ms":    m.apiMs - (p.distributeMs + m.kernelMs + m.gatherMs),
	} {
		out[name] = v
	}
}
