// Command dmgm-trace summarizes a trace written by the -trace flag of
// dmgm-match / dmgm-color: per-rank timelines, per-phase time and traffic
// breakdowns, and a load-imbalance / critical-path summary — the terminal
// companion to loading the same file in chrome://tracing or Perfetto.
//
// Usage:
//
//	dmgm-trace out.json
//	dmgm-trace -details out.json      # include inner-loop (detail) spans
//	dmgm-trace -metrics-only out.json # just the embedded registry
//
// With -watch it becomes a live dashboard instead: point it at the -http
// endpoint(s) of a running dmgm-match / dmgm-color job and it polls /snapshot
// and redraws a per-rank, per-tag-family traffic and imbalance view until the
// run exits.
//
//	dmgm-trace -watch localhost:7070
//	dmgm-trace -watch -interval 500ms localhost:7070 localhost:7071
//
// With -replay it feeds the recorded per-phase durations and traffic into the
// α–β–γ performance model and reports how well the model explains each phase.
//
//	dmgm-trace -replay out.json
//
// With -job it renders the span tree a dmgm-serve daemon retained for one
// slow or failed job (docs/PROTOCOL.md §9) as an indented tree — service
// spans (admit, queue wait, partition, run, cache deposit) with the
// distributed run's per-rank phases nested under them:
//
//	dmgm-trace -job http://localhost:8321/v1/jobs/job-000042/trace
//	dmgm-trace -job saved-trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

func main() {
	details := flag.Bool("details", false, "include nested detail spans (inner loops, supersteps) in the timelines")
	metricsOnly := flag.Bool("metrics-only", false, "print only the embedded metrics registry")
	watchMode := flag.Bool("watch", false, "poll live -http endpoint(s) instead of reading a trace file; args are host:port or URLs, one per worker")
	interval := flag.Duration("interval", time.Second, "poll interval for -watch")
	watchIters := flag.Int("watch-iters", 0, "stop -watch after this many frames (0 = until the endpoints disappear)")
	noClear := flag.Bool("no-clear", false, "do not clear the terminal between -watch frames (append frames instead)")
	replayMode := flag.Bool("replay", false, "feed the recorded phases into the performance model and report predicted-vs-observed error")
	jobMode := flag.Bool("job", false, "render a dmgm-serve job trace (GET /v1/jobs/{id}/trace); arg is that URL or a file of its JSON")
	flag.Parse()
	if *jobMode {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: dmgm-trace -job <http://host:port/v1/jobs/ID/trace | trace.json>")
			os.Exit(2)
		}
		os.Exit(jobTrace(flag.Arg(0)))
	}
	if *watchMode {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: dmgm-trace -watch [-interval 1s] <host:port|url> ...")
			os.Exit(2)
		}
		os.Exit(watch(flag.Args(), *interval, *watchIters, !*noClear))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dmgm-trace [-details] [-metrics-only] [-replay] <trace.json>")
		os.Exit(2)
	}
	tf, err := obs.ReadTraceFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-trace: %v\n", err)
		os.Exit(1)
	}
	if *replayMode {
		os.Exit(replay(tf))
	}
	if !*metricsOnly {
		report(tf, *details)
	}
	if tf.Metrics != nil {
		printMetrics(tf.Metrics)
	}
}

// agg accumulates one (rank, span-name) row.
type agg struct {
	count       int64
	durUS       float64 // microseconds
	msgs, bytes int64
	detail      bool
}

func report(tf *obs.TraceFile, details bool) {
	// rank -> name -> aggregate; only complete "X" spans count, and metadata /
	// counter events are skipped.
	perRank := map[int]map[string]*agg{}
	var ranks []int
	var dropped int64
	for _, e := range tf.Events {
		if e.Ph == "C" && e.Name == "obs.spans_dropped" {
			dropped += e.ArgInt("dropped")
			continue
		}
		if e.Ph != "X" {
			continue
		}
		m := perRank[e.PID]
		if m == nil {
			m = map[string]*agg{}
			perRank[e.PID] = m
			ranks = append(ranks, e.PID)
		}
		a := m[e.Name]
		if a == nil {
			a = &agg{detail: e.Cat == "detail"}
			m[e.Name] = a
		}
		a.count++
		a.durUS += e.Dur
		a.msgs += e.ArgInt("msgs")
		a.bytes += e.ArgInt("bytes")
	}
	if len(ranks) == 0 {
		fmt.Println("no spans in trace")
		return
	}
	sort.Ints(ranks) // DriverPID sorts last, after the real ranks

	fmt.Println("== per-rank timelines ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tspan\tcount\ttotal\tmean\tmsgs\tbytes")
	for _, r := range ranks {
		m := perRank[r]
		for _, name := range obs.SortedKeys(m) {
			a := m[name]
			if a.detail && !details {
				continue
			}
			label := name
			if a.detail {
				label += " (detail)"
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%s\t%d\t%s\n",
				rankLabel(r), label, a.count, fmtUS(a.durUS), fmtUS(a.durUS/float64(a.count)), a.msgs, fmtBytes(a.bytes))
		}
	}
	w.Flush()
	if dropped > 0 {
		fmt.Printf("(%d spans dropped by ring wraparound; raise -trace-spans)\n", dropped)
	}

	// Per-phase breakdown: top-level phases only, aggregated across worker
	// ranks (the driver's phases are sequential and excluded from imbalance).
	type phaseRow struct {
		totalUS, maxUS float64
		maxRank        int
		msgs, bytes    int64
		nRanks         int
	}
	phases := map[string]*phaseRow{}
	for _, r := range ranks {
		if r == obs.DriverPID {
			continue
		}
		for name, a := range perRank[r] {
			if a.detail {
				continue
			}
			p := phases[name]
			if p == nil {
				p = &phaseRow{maxRank: -1}
				phases[name] = p
			}
			p.totalUS += a.durUS
			p.msgs += a.msgs
			p.bytes += a.bytes
			p.nRanks++
			if a.durUS > p.maxUS {
				p.maxUS, p.maxRank = a.durUS, r
			}
		}
	}
	if len(phases) == 0 {
		return
	}
	fmt.Println("\n== per-phase breakdown (across ranks) ==")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\tranks\ttotal\tmax(rank)\timbalance\tmsgs\tbytes")
	var critUS float64
	for _, name := range obs.SortedKeys(phases) {
		p := phases[name]
		avg := p.totalUS / float64(p.nRanks)
		imb := 1.0
		if avg > 0 {
			imb = p.maxUS / avg
		}
		critUS += p.maxUS
		fmt.Fprintf(w, "%s\t%d\t%s\t%s(r%d)\t%.2fx\t%d\t%s\n",
			name, p.nRanks, fmtUS(p.totalUS), fmtUS(p.maxUS), p.maxRank, imb, p.msgs, fmtBytes(p.bytes))
	}
	w.Flush()
	// The critical path sums each phase's straggler: what a bulk-synchronous
	// schedule of these phases would cost. Imbalance is max/avg per phase.
	fmt.Printf("\ncritical path (sum of per-phase maxima): %s\n", fmtUS(critUS))
}

func printMetrics(m *obs.MetricsSnapshot) {
	if len(m.Counters) > 0 || len(m.Gauges) > 0 {
		fmt.Println("\n== metrics ==")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, k := range obs.SortedKeys(m.Counters) {
			fmt.Fprintf(w, "%s\t%d\n", k, m.Counters[k])
		}
		for _, k := range obs.SortedKeys(m.Gauges) {
			fmt.Fprintf(w, "%s\t%d (gauge)\n", k, m.Gauges[k])
		}
		w.Flush()
	}
	printFamilyTable(m)
	if len(m.PerRank) > 0 {
		fmt.Println("\n== per-rank counters ==")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, k := range obs.SortedKeys(m.PerRank) {
			vals := m.PerRank[k]
			var sum int64
			for _, v := range vals {
				sum += v
			}
			fmt.Fprintf(w, "%s\ttotal %d\t%v\n", k, sum, vals)
		}
		w.Flush()
	}
	if len(m.Histograms) > 0 {
		fmt.Println("\n== histograms ==")
		for _, k := range obs.SortedKeys(m.Histograms) {
			h := m.Histograms[k]
			fmt.Printf("%s: n=%d sum=%d", k, h.Count, h.Sum)
			if h.Count > 0 {
				fmt.Printf(" mean=%.1f", float64(h.Sum)/float64(h.Count))
			}
			fmt.Println()
			for i, c := range h.Counts {
				if c == 0 {
					continue
				}
				if i < len(h.Bounds) {
					fmt.Printf("  <= %d: %d\n", h.Bounds[i], c)
				} else {
					fmt.Printf("  > %d: %d\n", h.Bounds[len(h.Bounds)-1], c)
				}
			}
		}
	}
}

// printFamilyTable renders one traffic row per tag family (summed across
// ranks; obs.MetricsSnapshot.FamilyTraffic). The "runtime" family meters the
// reserved-tag collectives that the plain mpi.sent_* aggregates exclude (see
// docs/PROTOCOL.md).
func printFamilyTable(m *obs.MetricsSnapshot) {
	fams := m.FamilyTraffic()
	if len(fams) == 0 {
		return
	}
	fmt.Println("\n== per-tag-family traffic ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "family\tsent msgs\tsent bytes\trecv msgs\trecv bytes")
	for _, f := range fams {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%s\n", f.Family, f.SentMsgs, fmtBytes(f.SentBytes), f.RecvMsgs, fmtBytes(f.RecvBytes))
	}
	w.Flush()
}

func rankLabel(pid int) string {
	if pid == obs.DriverPID {
		return "driver"
	}
	return fmt.Sprintf("%d", pid)
}

func fmtUS(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", us/1e3)
	default:
		return fmt.Sprintf("%.0fµs", us)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
