package mpi

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStatsLivePolling hammers RankStats/TotalStats from a monitor goroutine
// while the ranks are mid-run. Run under -race this is the regression test
// for the lock-free stats cells; it also checks monotonicity of what the
// monitor observes and exactness of the final totals.
func TestStatsLivePolling(t *testing.T) {
	const p = 4
	const rounds = 200
	w, err := NewWorld(p, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last Stats
		for !stop.Load() {
			cur := w.TotalStats()
			if cur.SentMsgs < last.SentMsgs || cur.SentBytes < last.SentBytes ||
				cur.RecvMsgs < last.RecvMsgs || cur.RecvBytes < last.RecvBytes {
				t.Error("live totals went backwards")
				return
			}
			last = cur
			for r := 0; r < p; r++ {
				_ = w.RankStats(r)
			}
		}
	}()
	err = w.Run(func(c *Comm) error {
		next := (c.Rank() + 1) % p
		for i := 0; i < rounds; i++ {
			c.Send(next, 1, []byte{byte(i)})
			m := c.Recv()
			if m.Tag != 1 {
				return nil
			}
		}
		c.Barrier()
		return nil
	})
	stop.Store(true)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	total := w.TotalStats()
	if total.SentMsgs != p*rounds || total.RecvMsgs != p*rounds {
		t.Errorf("totals %+v, want %d msgs each way", total, p*rounds)
	}
	if total.SentBytes != p*rounds || total.RecvBytes != p*rounds {
		t.Errorf("byte totals %+v, want %d each way", total, p*rounds)
	}
}

// TestPublishedStatsMatchTotals: the registry counters the world publishes at
// the end of Run must reconcile exactly with TotalStats — the invariant the
// trace/metrics exports advertise.
func TestPublishedStatsMatchTotals(t *testing.T) {
	const p = 3
	o := obs.NewObserver(p, 64)
	w, err := NewWorld(p, WithObserver(o), WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		c.Send((c.Rank()+1)%p, 7, make([]byte, 10+c.Rank()))
		c.Barrier()
		c.DrainTag(7)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Registry().Snapshot()
	total := w.TotalStats()
	sum := func(name string) int64 {
		var s int64
		for _, v := range snap.PerRank[name] {
			s += v
		}
		return s
	}
	if got := sum("mpi.sent_msgs"); got != total.SentMsgs {
		t.Errorf("mpi.sent_msgs=%d, TotalStats.SentMsgs=%d", got, total.SentMsgs)
	}
	if got := sum("mpi.sent_bytes"); got != total.SentBytes {
		t.Errorf("mpi.sent_bytes=%d, TotalStats.SentBytes=%d", got, total.SentBytes)
	}
	if got := sum("mpi.recv_msgs"); got != total.RecvMsgs {
		t.Errorf("mpi.recv_msgs=%d, TotalStats.RecvMsgs=%d", got, total.RecvMsgs)
	}
	if got := sum("mpi.recv_bytes"); got != total.RecvBytes {
		t.Errorf("mpi.recv_bytes=%d, TotalStats.RecvBytes=%d", got, total.RecvBytes)
	}
	if got := snap.Gauges["mpi.world_size"]; got != p {
		t.Errorf("mpi.world_size=%d, want %d", got, p)
	}
}

// trafficCells is what the live document must read for rank r of a world
// whose counters are s: the aggregate traffic vecs' cells and each family's
// that saw traffic, keyed as the registry keys them.
func trafficCells(s Stats) map[string]int64 {
	cells := map[string]int64{}
	put := func(family string, fs FamilyStats) {
		cells[obs.FamilyKey("mpi.sent_msgs", family)] = fs.SentMsgs
		cells[obs.FamilyKey("mpi.sent_bytes", family)] = fs.SentBytes
		cells[obs.FamilyKey("mpi.recv_msgs", family)] = fs.RecvMsgs
		cells[obs.FamilyKey("mpi.recv_bytes", family)] = fs.RecvBytes
	}
	put("", FamilyStats{s.SentMsgs, s.SentBytes, s.RecvMsgs, s.RecvBytes})
	for f, fs := range s.ByFamily {
		if fs != (FamilyStats{}) {
			put(TagFamily(f).String(), fs)
		}
	}
	return cells
}

// trafficVecs picks the traffic vecs out of a registry snapshot.
func trafficVecs(m *obs.MetricsSnapshot) map[string][]int64 {
	out := map[string][]int64{}
	for k, v := range m.PerRank {
		if base, _ := obs.SplitFamilyKey(k); base == "mpi.sent_msgs" || base == "mpi.sent_bytes" ||
			base == "mpi.recv_msgs" || base == "mpi.recv_bytes" {
			out[k] = v
		}
	}
	return out
}

// TestLiveMetrics holds the live document (World.LiveMetrics, what /metrics
// serves on -http) to the runtime's counters. Mid-run, with every rank held
// after its traffic, a scrape's traffic vecs equal RankStats for every rank
// and family, and a family without traffic has no vec; after Run they equal
// what publishStats put in the registry. A second goroutine scrapes all the
// while, so under -race the scrape reads counters as the ranks write them.
func TestLiveMetrics(t *testing.T) {
	const p = 4
	o := obs.NewObserver(p, -1)
	w, err := NewWorld(p, WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	var held sync.WaitGroup
	held.Add(p)
	release := make(chan struct{})
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				w.LiveMetrics()
			}
		}
	}()
	var runErr error
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		runErr = w.Run(func(c *Comm) error {
			next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
			c.Send(next, TagMatchBase, make([]byte, 10+c.Rank()))
			c.Send(prev, TagColorBase, make([]byte, 3))
			c.Barrier()
			c.DrainTag(TagMatchBase)
			c.DrainTag(TagColorBase)
			held.Done()
			<-release
			c.Barrier() // traffic after the scrape: the final vecs differ
			return nil
		})
	}()
	held.Wait()
	live := trafficVecs(w.LiveMetrics())
	want := map[string][]int64{}
	for r := 0; r < p; r++ {
		for k, v := range trafficCells(w.RankStats(r)) {
			if want[k] == nil {
				want[k] = make([]int64, p)
			}
			want[k][r] = v
		}
	}
	if _, ok := want["mpi.sent_msgs.user"]; ok {
		t.Fatal("test setup: the user family saw traffic")
	}
	if !reflect.DeepEqual(live, want) {
		t.Errorf("mid-run scrape:\n got %v\nwant %v", live, want)
	}
	close(release)
	<-ran
	close(stop)
	<-scraped
	if runErr != nil {
		t.Fatal(runErr)
	}
	final, published := trafficVecs(w.LiveMetrics()), trafficVecs(o.Registry().Snapshot())
	if !reflect.DeepEqual(final, published) {
		t.Errorf("scrape after Run:\n got %v\npublished %v", final, published)
	}
	if reflect.DeepEqual(final, live) {
		t.Error("the last barrier's traffic is missing from the scrape after Run")
	}
}

// TestTracedWorldRecordsSpans: a world with an observer produces completed
// spans for code that uses the Comm tracer.
func TestTracedWorldRecordsSpans(t *testing.T) {
	const p = 2
	o := obs.NewObserver(p, 64)
	w, err := NewWorld(p, WithObserver(o), WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		tok := c.Tracer().Begin("test.phase")
		c.Send((c.Rank()+1)%p, 3, []byte("abcd"))
		c.Barrier()
		c.DrainTag(3)
		c.Tracer().EndN(tok, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		spans := o.Tracer(r).Spans()
		if len(spans) != 1 || spans[0].Name != "test.phase" {
			t.Fatalf("rank %d spans: %+v", r, spans)
		}
		if spans[0].Msgs != 1 || spans[0].Bytes != 4 {
			t.Errorf("rank %d span traffic: msgs=%d bytes=%d, want 1/4", r, spans[0].Msgs, spans[0].Bytes)
		}
	}
}
