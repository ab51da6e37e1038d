package service

import (
	"sync"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// worldPool recycles in-process mpi.Worlds across jobs, one free list per
// rank count. A World's construction cost (mailboxes, barrier, collectives,
// counter arrays) is paid once; between jobs the pool calls World.Reset,
// which drains stale traffic and zeroes per-rank stats so every job sees a
// bit-identical substrate to a fresh World. A timed-out job's world comes
// back too, once Cancel has unwound its ranks; a World whose Reset fails —
// ranks still running after the watchdog deadline gave up on them — is
// discarded, never handed to another job.
type worldPool struct {
	mu      sync.Mutex
	free    map[int][]*mpi.World
	maxIdle int // per rank count; excess Puts discard

	// Pool traffic metrics (nil-safe when the registry is nil).
	created   *obs.Counter
	reused    *obs.Counter
	discarded *obs.Counter
}

// newWorldPool builds a pool that keeps up to maxIdle idle worlds per rank
// count.
func newWorldPool(maxIdle int, reg *obs.Registry) *worldPool {
	return &worldPool{
		free:      make(map[int][]*mpi.World),
		maxIdle:   maxIdle,
		created:   reg.Counter("service.pool_worlds_created"),
		reused:    reg.Counter("service.pool_worlds_reused"),
		discarded: reg.Counter("service.pool_worlds_discarded"),
	}
}

// get returns a runnable world of the given rank count, reusing an idle one
// when available.
func (p *worldPool) get(ranks int) (*mpi.World, error) {
	p.mu.Lock()
	if ws := p.free[ranks]; len(ws) > 0 {
		w := ws[len(ws)-1]
		p.free[ranks] = ws[:len(ws)-1]
		p.mu.Unlock()
		p.reused.Inc()
		return w, nil
	}
	p.mu.Unlock()
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	p.created.Inc()
	return w, nil
}

// put resets a world and returns it to the free list; a world that cannot
// be reset (or an over-full list) is dropped for the GC.
func (p *worldPool) put(w *mpi.World) {
	// Detach the job's observer so an idle world holds no reference to a
	// finished job's registry and span rings. Refused while ranks are still
	// running — exactly the case Reset below also refuses and discards.
	w.SetObserver(nil) //nolint:errcheck // Reset catches the running case
	if _, err := w.Reset(); err != nil {
		p.discarded.Inc()
		return
	}
	ranks := w.Size()
	p.mu.Lock()
	if len(p.free[ranks]) >= p.maxIdle {
		p.mu.Unlock()
		p.discarded.Inc()
		return
	}
	p.free[ranks] = append(p.free[ranks], w)
	p.mu.Unlock()
}

// idle reports the total idle worlds across rank counts (for the
// service.pool_idle gauge).
func (p *worldPool) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ws := range p.free {
		n += len(ws)
	}
	return n
}
