package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/transport"
)

const (
	probeTag    = 1  // a user-family tag
	probeRecord = 17 // the matching protocol's record size
)

// probes measures the message-passing runtime on its own: small fixed
// exchanges on 2-4 rank worlds, so a change to the mailbox, the bundler or a
// transport has a number that no kernel blurs. Each probe takes 0.1-0.3 s. A
// probe that fails reports 0 and says so on standard error.
func probes(quick bool, out map[string]float64) {
	scale := 1
	if quick {
		scale = 20
	}
	rec := make([]byte, probeRecord)
	run := func(name string, size int, fn func(c *mpi.Comm) error) time.Duration {
		start := time.Now()
		if err := mpi.Run(size, fn, mpi.WithDeadline(30*time.Second)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", name, err)
			return 0
		}
		return time.Since(start)
	}
	per := func(d time.Duration, n int, unit time.Duration) float64 {
		return float64(d) / float64(n) / float64(unit)
	}
	rate := func(n int, d time.Duration) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d.Seconds()
	}

	pingpong := func(n int) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Send(1, probeTag, rec)
					c.Recv()
				} else {
					c.Recv()
					c.Send(0, probeTag, rec)
				}
			}
			return nil
		}
	}
	n := 20000 / scale
	out["mpi.pingpong_us"] = per(run("pingpong", 2, pingpong(n)), n, time.Microsecond)

	// fanin: every rank but 0 sends n messages to rank 0 (stream is the
	// one-sender case).
	fanin := func(n int) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			if c.Rank() != 0 {
				for i := 0; i < n; i++ {
					c.Send(0, probeTag, rec)
				}
				return nil
			}
			for i := 0; i < n*(c.Size()-1); i++ {
				c.Recv()
			}
			return nil
		}
	}
	n = 300000 / scale
	out["mpi.stream_msgs_per_s"] = rate(n, run("stream", 2, fanin(n)))
	out["mpi.fanin_msgs_per_s"] = rate(n, run("fanin", 4, fanin(n/3)))

	n = 3000000 / scale
	out["mpi.bundler_records_per_s"] = rate(n, run("bundler", 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			b := mpi.NewBundler(c, probeTag, probeRecord, 0)
			for i := 0; i < n; i++ {
				b.Add(1, rec)
			}
			b.Flush()
			return nil
		}
		for got := 0; got < n; {
			got += len(mpi.Records(c.Recv().Data, probeRecord))
		}
		return nil
	}))

	n = 5000 / scale
	out["mpi.barrier_us"] = per(run("barrier", ranks, func(c *mpi.Comm) error {
		for i := 0; i < n; i++ {
			c.Barrier()
		}
		return nil
	}), n, time.Microsecond)

	n = 2000 / scale
	quarter := make([]byte, (1<<20)/ranks)
	out["mpi.allgather_1mb_ms"] = per(run("allgather", ranks, func(c *mpi.Comm) error {
		for i := 0; i < n; i++ {
			c.Allgather(quarter)
		}
		return nil
	}), n, time.Millisecond)

	// A world's construction, and what its reuse costs instead.
	n = 200 / scale
	var news, resets time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		w, err := mpi.NewWorld(ranks)
		news += time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe world_new: %v\n", err)
			break
		}
		w.Run(func(c *mpi.Comm) error { return nil }) //nolint:errcheck // an empty body cannot fail
		start = time.Now()
		w.Reset() //nolint:errcheck // all ranks have returned
		resets += time.Since(start)
	}
	out["mpi.world_new_us"] = per(news, n, time.Microsecond)
	out["mpi.world_reset_us"] = per(resets, n, time.Microsecond)

	// The same ping-pong and a bulk transfer over the tcp transport: two
	// worlds of one rank each over a localhost mesh, the shape of two
	// processes.
	n = 2000 / scale
	out["transport.tcp_rtt_us"] = per(runTCP(pingpong(n)), n, time.Microsecond)
	const chunk, chunks = 256 << 10, 128
	big := make([]byte, chunk)
	d := runTCP(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < chunks/scale; i++ {
				c.Send(1, probeTag, big)
			}
			c.Recv() // the receiver's acknowledgement
			return nil
		}
		for i := 0; i < chunks/scale; i++ {
			c.Recv()
		}
		c.Send(0, probeTag, rec)
		return nil
	})
	out["transport.tcp_mb_per_s"] = rate(chunk*(chunks/scale), d) / (1 << 20)
}

// runTCP runs fn on a two-rank job over transport.NewLocalTCPCluster and
// returns the time the slower rank spent inside Run (mesh set-up excluded as
// far as the API allows: Start happens inside Run).
func runTCP(fn func(c *mpi.Comm) error) time.Duration {
	eps, err := transport.NewLocalTCPCluster(2)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: tcp probe: %v\n", err)
		return 0
	}
	worlds := make([]*mpi.World, len(eps))
	for i, ep := range eps {
		if worlds[i], err = mpi.NewWorld(2, mpi.WithTransport(ep), mpi.WithDeadline(30*time.Second)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: tcp probe: %v\n", err)
			return 0
		}
	}
	var (
		wg     sync.WaitGroup
		inside [2]time.Duration
		errs   [2]error
	)
	for i, w := range worlds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(func(c *mpi.Comm) error {
				c.Barrier() // both ranks connected
				start := time.Now()
				err := fn(c)
				inside[i] = time.Since(start)
				return err
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: tcp probe: %v\n", err)
			return 0
		}
	}
	return max(inside[0], inside[1])
}
