package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Live observability: while a run is in flight its metrics registry is
// served at /metrics — on the CLIs' -http port and on dmgm-serve's job port —
// and dmgm-trace -watch polls it. It is the document a -trace file embeds and
// -otlp pushes when the run ends; a CLI's world reads its traffic vecs from
// the runtime's live counters (mpi.World.LiveMetrics), so the scrape is safe
// mid-run and never blocks or perturbs the ranks.

// MountLive registers /metrics on mux: the registry snapshot metrics()
// returns, indented, keys sorted, so repeated scrapes of an idle process are
// byte-identical. metrics is invoked per request from the server's
// goroutines; it must be safe to call concurrently with the run.
func MountLive(mux *http.ServeMux, metrics func() *MetricsSnapshot) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(metrics().indentedJSON()) //nolint:errcheck // best-effort scrape
	})
}

// ServeLive starts an HTTP server on addr exposing the live observability
// surface — MountLive's /metrics, net/http/pprof under /debug/pprof/, and a
// plain-text index at / — and returns the bound address. The server runs
// until the process exits.
func ServeLive(addr string, metrics func() *MetricsSnapshot) (string, error) {
	mux := http.NewServeMux()
	MountLive(mux, metrics)
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
		fmt.Fprintln(w, "dmgm live observability\n\n  /metrics       metrics registry (JSON)\n  /debug/pprof/  net/http/pprof")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: live listen %s: %w", addr, err)
	}
	go http.Serve(ln, mux) //nolint:errcheck // serves for the process lifetime
	return ln.Addr().String(), nil
}

// liveClient bounds polls so a wedged endpoint cannot hang a watcher between
// frames.
var liveClient = &http.Client{Timeout: 5 * time.Second}

// FetchLive polls one endpoint's /metrics. url may be a bare host:port, a
// server root, or the /metrics URL itself.
func FetchLive(url string) (*MetricsSnapshot, error) {
	u := NormalizeLiveURL(url)
	resp, err := liveClient.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: %s answered %s", u, resp.Status)
	}
	var s MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: decoding %s: %w", u, err)
	}
	return &s, nil
}

// NormalizeLiveURL completes a watch target into a /metrics URL: the scheme
// defaults to http, the path to /metrics; explicit paths pass through.
func NormalizeLiveURL(u string) string {
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	if rest := u[strings.Index(u, "://")+3:]; !strings.Contains(rest, "/") {
		u += "/metrics"
	}
	return u
}
