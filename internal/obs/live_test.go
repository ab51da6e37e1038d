package obs

import (
	"net/http"
	"reflect"
	"testing"
)

// TestServeFetchLiveRoundTrip serves a registry on an ephemeral port and
// fetches it back through the same client path dmgm-trace -watch uses.
func TestServeFetchLiveRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mpi.bundle_flushes").Add(7)
	reg.Vec("mpi.sent_bytes", 4).At(2).Add(170)
	reg.Vec("mpi.sent_bytes.runtime", 4).At(2).Add(24)
	want := reg.Snapshot()
	addr, err := ServeLive("127.0.0.1:0", func() *MetricsSnapshot { return want })
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{addr, "http://" + addr, "http://" + addr + "/metrics"} {
		got, err := FetchLive(target)
		if err != nil {
			t.Fatalf("FetchLive(%q): %v", target, err)
		}
		if !reflect.DeepEqual(got.Counters, want.Counters) || !reflect.DeepEqual(got.PerRank, want.PerRank) {
			t.Fatalf("FetchLive(%q) = %+v, want %+v", target, got, want)
		}
	}
	// The other routes answer too, and /snapshot is not one of them.
	for path, code := range map[string]int{"/": http.StatusOK, "/debug/pprof/": http.StatusOK, "/snapshot": http.StatusNotFound} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("GET %s: %s, want %d", path, resp.Status, code)
		}
	}
}

func TestNormalizeLiveURL(t *testing.T) {
	cases := map[string]string{
		"localhost:7070":         "http://localhost:7070/metrics",
		"http://localhost:7070":  "http://localhost:7070/metrics",
		"http://h:1/custom":      "http://h:1/custom",
		"https://h:1":            "https://h:1/metrics",
		"127.0.0.1:9":            "http://127.0.0.1:9/metrics",
		"http://localhost:7070/": "http://localhost:7070/",
	}
	for in, want := range cases {
		if got := NormalizeLiveURL(in); got != want {
			t.Errorf("NormalizeLiveURL(%q) = %q, want %q", in, got, want)
		}
	}
}
