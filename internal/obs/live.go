package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// Live observability: the -http endpoint of dmgm-match / dmgm-color serves a
// point-in-time JSON view of the run — per-rank, per-tag-family traffic
// counters plus the metrics registry — that dmgm-trace -watch polls and
// renders as a refreshing dashboard. The snapshot types live here (not in
// internal/mpi) because both the serving side (the runtime) and the polling
// side (dmgm-trace) need them, and mpi already depends on obs.
//
// The snapshot is safe to take mid-run: the runtime's counters are lock-free
// atomics and the registry tolerates concurrent readers, so polling never
// blocks or perturbs the ranks (see World.RankStats).

// FamilyTraffic is one tag family's share of a rank's live traffic.
type FamilyTraffic struct {
	// Family is the stable family name (match, color, user, runtime).
	Family    string `json:"family"`
	SentMsgs  int64  `json:"sentMsgs"`
	SentBytes int64  `json:"sentBytes"`
	RecvMsgs  int64  `json:"recvMsgs"`
	RecvBytes int64  `json:"recvBytes"`
}

// RankTraffic is one rank's live traffic counters: user-traffic aggregates
// plus the per-tag-family breakdown (which additionally meters the runtime's
// reserved-tag collective traffic the aggregates exclude).
type RankTraffic struct {
	Rank      int             `json:"rank"`
	SentMsgs  int64           `json:"sentMsgs"`
	SentBytes int64           `json:"sentBytes"`
	RecvMsgs  int64           `json:"recvMsgs"`
	RecvBytes int64           `json:"recvBytes"`
	Families  []FamilyTraffic `json:"families,omitempty"`
}

// LiveSnapshot is the JSON document served at /snapshot while a run is in
// flight: the ranks this process hosts, their traffic counters, and the
// metrics registry. A multi-process (-launch) job serves one snapshot per
// worker; Merge folds them into the whole-job view.
type LiveSnapshot struct {
	// CapturedUnixNanos is the wall-clock capture time, used by watchers to
	// compute rates between polls.
	CapturedUnixNanos int64 `json:"capturedUnixNanos"`
	// WorldSize is the total rank count of the job.
	WorldSize int `json:"worldSize"`
	// LocalRanks lists the ranks this snapshot covers (all of them for an
	// in-process run, typically one for a tcp worker).
	LocalRanks []int `json:"localRanks"`
	// Ranks holds one entry per local rank, ascending.
	Ranks []RankTraffic `json:"ranks"`
	// Metrics is the registry snapshot, when an observer is attached.
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
}

// Merge folds o into s: rank entries concatenate (endpoints host disjoint
// ranks), local-rank sets union, metrics snapshots merge, and the capture
// time keeps the latest. Used by dmgm-trace -watch to combine the per-worker
// endpoints of a -launch job into one dashboard.
func (s *LiveSnapshot) Merge(o *LiveSnapshot) {
	if o == nil {
		return
	}
	if o.CapturedUnixNanos > s.CapturedUnixNanos {
		s.CapturedUnixNanos = o.CapturedUnixNanos
	}
	if o.WorldSize > s.WorldSize {
		s.WorldSize = o.WorldSize
	}
	s.LocalRanks = append(s.LocalRanks, o.LocalRanks...)
	s.Ranks = append(s.Ranks, o.Ranks...)
	sort.Ints(s.LocalRanks)
	sort.Slice(s.Ranks, func(i, j int) bool { return s.Ranks[i].Rank < s.Ranks[j].Rank })
	if o.Metrics != nil {
		if s.Metrics == nil {
			s.Metrics = (*Registry)(nil).Snapshot()
		}
		s.Metrics.Merge(o.Metrics)
	}
}

// MountLive registers the two scrape routes every live surface shares — the
// CLIs' -http listener and dmgm-serve's job port — on mux:
//
//	/snapshot  the LiveSnapshot JSON produced by snap()
//	/metrics   its metrics registry alone, indented, keys sorted, so repeated
//	           scrapes of an idle process are byte-identical
//
// snap is invoked per request from the server's goroutines; it must be safe
// to call concurrently with the run (World.LiveSnapshot is).
func MountLive(mux *http.ServeMux, snap func() *LiveSnapshot) {
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(snap()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		m := snap().Metrics
		if m == nil {
			m = (*Registry)(nil).Snapshot()
		}
		w.Write(m.indentedJSON()) //nolint:errcheck // best-effort scrape
	})
}

// ServeLive starts an HTTP server on addr exposing the live observability
// surface — MountLive's routes, net/http/pprof under /debug/pprof/, and a
// plain-text index at / — and returns the bound address. The server runs
// until the process exits.
func ServeLive(addr string, snap func() *LiveSnapshot) (string, error) {
	mux := http.NewServeMux()
	MountLive(mux, snap)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "dmgm live observability\n\n  /snapshot      per-rank per-tag-family traffic + metrics (JSON)\n  /metrics       metrics registry alone (JSON)\n  /debug/pprof/  net/http/pprof")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: live listen %s: %w", addr, err)
	}
	go http.Serve(ln, mux) //nolint:errcheck // serves for the process lifetime
	return ln.Addr().String(), nil
}

// liveClient bounds snapshot polls so a wedged endpoint cannot hang a
// watcher between frames.
var liveClient = &http.Client{Timeout: 5 * time.Second}

// FetchLive polls one endpoint's /snapshot. url may be a bare host:port, a
// server root, or the /snapshot URL itself.
func FetchLive(url string) (*LiveSnapshot, error) {
	u := NormalizeLiveURL(url)
	resp, err := liveClient.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: %s answered %s", u, resp.Status)
	}
	var s LiveSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: decoding %s: %w", u, err)
	}
	return &s, nil
}

// NormalizeLiveURL completes a watch target into a /snapshot URL: the scheme
// defaults to http, the path to /snapshot; explicit paths pass through.
func NormalizeLiveURL(u string) string {
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	if rest := u[strings.Index(u, "://")+3:]; !strings.Contains(rest, "/") {
		u += "/snapshot"
	}
	return u
}
