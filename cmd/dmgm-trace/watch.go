// Watch mode: poll the -http /metrics endpoints of a running dmgm-match /
// dmgm-color job and render a refreshing per-rank traffic, imbalance and
// per-tag-family dashboard in the terminal. The endpoints' registries (one
// per -launch worker) merge into a single whole-job view each frame.
package main

import (
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// watch polls urls every interval and redraws the dashboard. iters bounds the
// number of frames (0 = until the endpoints disappear, i.e. the run exits).
// Returns the process exit code.
func watch(urls []string, interval time.Duration, iters int, clear bool) int {
	// prev holds the previous frame's per-rank rows, taken at prevAt, so the
	// dashboard can show instantaneous send rates.
	var prev []obs.Traffic
	var prevAt time.Time
	connected := false
	for frame := 0; iters <= 0 || frame < iters; frame++ {
		if frame > 0 {
			time.Sleep(interval)
		}
		merged, errs := pollAll(urls)
		at := time.Now()
		if merged == nil {
			if connected {
				// The endpoints answered before and are gone now: the run
				// finished and the workers exited. A clean end, not an error.
				fmt.Println("endpoints gone — run finished")
				return 0
			}
			fmt.Fprintf(os.Stderr, "waiting for %s ...\n", strings.Join(urls, " "))
			continue
		}
		connected = true
		if clear {
			fmt.Print("\x1b[H\x1b[2J") // home + clear: redraw in place
		}
		prev, prevAt = renderFrame(merged, urls, errs, frame, at, prev, at.Sub(prevAt)), at
	}
	return 0
}

// pollAll fetches every endpoint's registry and merges them (obs
// MetricsSnapshot.Merge: endpoints host disjoint ranks, so their per-rank
// cells add up to the job's). Returns nil when no endpoint answered, plus the
// per-endpoint errors for the status lines.
func pollAll(urls []string) (*obs.MetricsSnapshot, []error) {
	var merged *obs.MetricsSnapshot
	errs := make([]error, len(urls))
	for i, u := range urls {
		s, err := obs.FetchLive(u)
		if err != nil {
			errs[i] = err
			continue
		}
		if merged == nil {
			merged = s
		} else {
			merged.Merge(s)
		}
	}
	return merged, errs
}

// renderFrame draws one frame from the merged registry m: a row per rank of
// its traffic, with the send rate since the previous frame's rows (prev,
// elapsed ago), the same per-tag-family table the trace file's metrics view
// prints, and the endpoints that did not answer. It returns the rows.
func renderFrame(m *obs.MetricsSnapshot, urls []string, errs []error, frame int, at time.Time, prev []obs.Traffic, elapsed time.Duration) []obs.Traffic {
	var down int
	for _, e := range errs {
		if e != nil {
			down++
		}
	}
	fmt.Printf("dmgm live — world %d, %d/%d endpoints, frame %d, %s\n\n",
		m.Gauges["mpi.world_size"], len(urls)-down, len(urls), frame, at.Format("15:04:05"))

	ranks := m.TrafficByRank("")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "rank\tsent msgs\tsent bytes\trecv msgs\trecv bytes\tsend rate\t")
	var tot obs.Traffic
	var maxSent int64
	for r, t := range ranks {
		rate := "-"
		if r < len(prev) && elapsed > 0 {
			rate = fmtBytes(int64(float64(t.SentBytes-prev[r].SentBytes)/elapsed.Seconds())) + "/s"
		}
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%s\t%s\t\n",
			r, t.SentMsgs, fmtBytes(t.SentBytes), t.RecvMsgs, fmtBytes(t.RecvBytes), rate)
		tot.Add(t)
		maxSent = max(maxSent, t.SentBytes)
	}
	fmt.Fprintf(w, "total\t%d\t%s\t%d\t%s\t\t\n",
		tot.SentMsgs, fmtBytes(tot.SentBytes), tot.RecvMsgs, fmtBytes(tot.RecvBytes))
	w.Flush()
	if n := len(ranks); n > 0 && tot.SentBytes > 0 {
		avg := float64(tot.SentBytes) / float64(n)
		fmt.Printf("imbalance (sent bytes, max/avg over ranks): %.2fx\n", float64(maxSent)/avg)
	}
	printFamilyTable(m)
	if down > 0 {
		fmt.Println()
		for i, e := range errs {
			if e != nil {
				fmt.Printf("endpoint %s: %v\n", urls[i], e)
			}
		}
	}
	return ranks
}
