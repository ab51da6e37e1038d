package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	m := Msg{From: 3, To: 7, Tag: -42, ArriveV: 1.5, Payload: []byte("hello bundle")}
	frame := encodeData(m)
	r := bytes.NewReader(frame)
	kind, body, err := readFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if kind != frameData {
		t.Fatalf("kind = %d", kind)
	}
	got, err := decodeData(3, body)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 3 || got.To != 7 || got.Tag != -42 || got.ArriveV != 1.5 || string(got.Payload) != "hello bundle" {
		t.Fatalf("round trip = %+v", got)
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes", r.Len())
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	frame := encodeData(Msg{From: 0, To: 1, Tag: 5})
	kind, body, err := readFrame(bytes.NewReader(frame))
	if err != nil || kind != frameData {
		t.Fatalf("kind %d err %v", kind, err)
	}
	got, err := decodeData(0, body)
	if err != nil || len(got.Payload) != 0 || got.Tag != 5 {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestRegistryTableRoundTrip(t *testing.T) {
	rank, addr, err := decodeRegister(encodeRegister(9, "10.0.0.1:5555")[5:])
	if err != nil || rank != 9 || addr != "10.0.0.1:5555" {
		t.Fatalf("register round trip: %d %q %v", rank, addr, err)
	}
	addrs := []string{"a:1", "b:2", "c:3"}
	kind, body, err := readFrame(bytes.NewReader(encodeTable(addrs)))
	if err != nil || kind != frameTable {
		t.Fatalf("table frame: %d %v", kind, err)
	}
	got, err := decodeTable(body)
	if err != nil || len(got) != 3 || got[0] != "a:1" || got[2] != "c:3" {
		t.Fatalf("table round trip: %v %v", got, err)
	}
}

func TestInprocDelivers(t *testing.T) {
	tr := NewInproc(2)
	var got []Msg
	tr.Register(0, func(m Msg) {})
	tr.Register(1, func(m Msg) { got = append(got, m) })
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	tr.Send(Msg{From: 0, To: 1, Tag: 4, Payload: []byte{1}})
	if len(got) != 1 || got[0].Tag != 4 {
		t.Fatalf("got %v", got)
	}
}

// collectCluster builds a started local cluster whose sinks append into
// per-rank slices.
func collectCluster(t *testing.T, n int) ([]*TCP, []*[]Msg, []*sync.Mutex) {
	t.Helper()
	eps, err := NewLocalTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	inboxes := make([]*[]Msg, n)
	locks := make([]*sync.Mutex, n)
	for i, ep := range eps {
		inbox := &[]Msg{}
		mu := &sync.Mutex{}
		inboxes[i], locks[i] = inbox, mu
		ep.Register(i, func(m Msg) {
			mu.Lock()
			*inbox = append(*inbox, m)
			mu.Unlock()
		})
	}
	if err := startCluster(eps); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeAll(eps) })
	return eps, inboxes, locks
}

// closeAll closes endpoints concurrently, as a real job would: every rank's
// Close flushes and half-closes, so everyone's readers see EOF promptly.
func closeAll(eps []*TCP) {
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep *TCP) { defer wg.Done(); ep.Close() }(ep)
	}
	wg.Wait()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPMeshExchange(t *testing.T) {
	const n = 4
	eps, inboxes, locks := collectCluster(t, n)
	for i, ep := range eps {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			payload := []byte(fmt.Sprintf("%d->%d", i, j))
			if err := ep.Send(Msg{From: i, To: j, Tag: i*10 + j, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for j := 0; j < n; j++ {
		j := j
		waitFor(t, func() bool {
			locks[j].Lock()
			defer locks[j].Unlock()
			return len(*inboxes[j]) == n-1
		})
		locks[j].Lock()
		seen := map[int]bool{}
		for _, m := range *inboxes[j] {
			if m.To != j {
				t.Fatalf("rank %d got message for %d", j, m.To)
			}
			if want := fmt.Sprintf("%d->%d", m.From, j); string(m.Payload) != want {
				t.Fatalf("payload %q, want %q", m.Payload, want)
			}
			seen[m.From] = true
		}
		locks[j].Unlock()
		if len(seen) != n-1 {
			t.Fatalf("rank %d heard from %d senders", j, len(seen))
		}
	}
}

func TestTCPPerPairOrder(t *testing.T) {
	const n = 3
	const per = 300
	eps, inboxes, locks := collectCluster(t, n)
	// Ranks 0 and 1 each blast a numbered sequence at rank 2.
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := eps[s].Send(Msg{From: s, To: 2, Tag: k}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	waitFor(t, func() bool {
		locks[2].Lock()
		defer locks[2].Unlock()
		return len(*inboxes[2]) == 2*per
	})
	next := map[int]int{}
	locks[2].Lock()
	defer locks[2].Unlock()
	for _, m := range *inboxes[2] {
		if m.Tag != next[m.From] {
			t.Fatalf("from %d: got seq %d, want %d", m.From, m.Tag, next[m.From])
		}
		next[m.From]++
	}
}

func TestTCPRegistryRendezvous(t *testing.T) {
	const n = 4
	// Reserve a registry port the honest way a launcher would.
	probe, err := NewLocalTCPCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	registry := probe[0].opt.Listener.Addr().String()
	probe[0].opt.Listener.Close()

	eps := make([]*TCP, n)
	for i := 0; i < n; i++ {
		ep, err := NewTCP(TCPOptions{Rank: i, Size: n, Registry: registry})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	inboxes := make([]chan Msg, n)
	for i, ep := range eps {
		inboxes[i] = make(chan Msg, n)
		i := i
		ep.Register(i, func(m Msg) { inboxes[i] <- m })
	}
	if err := startCluster(eps); err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	// Ring exchange proves the table was propagated correctly.
	for i, ep := range eps {
		if err := ep.Send(Msg{From: i, To: (i + 1) % n, Tag: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-inboxes[i]:
			if m.From != (i+n-1)%n {
				t.Fatalf("rank %d heard from %d", i, m.From)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("rank %d never received", i)
		}
	}
}

func TestTCPCloseFlushes(t *testing.T) {
	eps, inboxes, locks := collectCluster(t, 2)
	const count = 2000
	for k := 0; k < count; k++ {
		if err := eps[0].Send(Msg{From: 0, To: 1, Tag: k, Payload: make([]byte, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	// Closing immediately must still deliver everything queued.
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		locks[1].Lock()
		defer locks[1].Unlock()
		return len(*inboxes[1]) == count
	})
}

// startCluster starts every endpoint concurrently (the mesh handshake needs
// all accept loops up) and returns the first error.
func startCluster(eps []*TCP) error {
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep *TCP) {
			defer wg.Done()
			errs[i] = ep.Start()
		}(i, ep)
	}
	wg.Wait()
	ranks := []int{}
	for i, err := range errs {
		if err != nil {
			ranks = append(ranks, i)
		}
	}
	if len(ranks) > 0 {
		return fmt.Errorf("transport: cluster start failed on ranks %v: %w", ranks, errs[ranks[0]])
	}
	return nil
}
