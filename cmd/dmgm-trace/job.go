package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/service"
)

// jobTrace renders the span tree a dmgm-serve daemon retained for one slow
// or failed job (GET /v1/jobs/{id}/trace, docs/PROTOCOL.md §9). The argument
// is either that URL (anything with "://") or a file holding the same JSON —
// curl the endpoint once and inspect offline. Exit status mirrors success.
func jobTrace(arg string) int {
	var body []byte
	if strings.Contains(arg, "://") {
		resp, err := http.Get(arg) //nolint:noctx // one-shot CLI fetch
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-trace: %v\n", err)
			return 1
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-trace: %v\n", err)
			return 1
		}
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "dmgm-trace: %s: %d %s: %s\n", arg, resp.StatusCode,
				http.StatusText(resp.StatusCode), strings.TrimSpace(string(body)))
			if resp.StatusCode == http.StatusNotFound {
				fmt.Fprintln(os.Stderr, "dmgm-trace: (trace not retained: only slow and failed jobs are kept, the newest 256 — see -trace-slow-ms on dmgm-serve)")
			}
			return 1
		}
	} else {
		var err error
		body, err = os.ReadFile(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-trace: %v\n", err)
			return 1
		}
	}
	var jt service.JobTrace
	if err := json.Unmarshal(body, &jt); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-trace: decoding job trace: %v\n", err)
		return 1
	}
	printJobTrace(&jt)
	return 0
}

func printJobTrace(jt *service.JobTrace) {
	fmt.Printf("job %s  trace %s\n", jt.JobID, jt.TraceID)
	fmt.Printf("tenant %s  algorithm %s  ranks %d  status %d  cache %s\n",
		jt.Tenant, jt.Algorithm, jt.Ranks, jt.Status, orDash(jt.Cache))
	if jt.Error != "" {
		fmt.Printf("error: %s\n", jt.Error)
	}
	fmt.Printf("queue wait %.1fms  run %.1fms  total %.1fms\n\n",
		jt.QueueWaitMillis, jt.RunMillis, jt.TotalMillis)

	// Index children under their parents; spans whose parent is outside the
	// retained set (the caller's inbound span, or a trimmed runtime parent)
	// render as roots. Children sort by start time, ties by span id.
	children := map[string][]int{}
	ids := map[string]bool{}
	for _, s := range jt.Spans {
		ids[s.SpanID] = true
	}
	var roots []int
	for i, s := range jt.Spans {
		if s.ParentSpanID != "" && ids[s.ParentSpanID] {
			children[s.ParentSpanID] = append(children[s.ParentSpanID], i)
		} else {
			roots = append(roots, i)
		}
	}
	byStart := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := jt.Spans[idx[a]], jt.Spans[idx[b]]
			if sa.StartUnixNano != sb.StartUnixNano {
				return sa.StartUnixNano < sb.StartUnixNano
			}
			return sa.SpanID < sb.SpanID
		})
	}
	byStart(roots)
	var walk func(i, depth int)
	walk = func(i, depth int) {
		s := jt.Spans[i]
		dur := time.Duration(s.DurNanos)
		extra := ""
		if s.N != 0 {
			extra += fmt.Sprintf("  n=%d", s.N)
		}
		if s.Msgs != 0 || s.Bytes != 0 {
			extra += fmt.Sprintf("  msgs=%d bytes=%d", s.Msgs, s.Bytes)
		}
		fmt.Printf("%s%s  %s  [%s %s]%s\n",
			strings.Repeat("  ", depth), s.Name, fmtDur(dur), spanRankLabel(s.Rank), s.SpanID, extra)
		kids := children[s.SpanID]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

func spanRankLabel(rank int) string {
	if rank < 0 {
		return "service"
	}
	return fmt.Sprintf("rank %d", rank)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
