package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a 2-vCPU guest whose hypervisor takes the CPUs away in
// bursts that last from a second to a minute ("steal" in /proc/stat). With
// four rank goroutines on two cores a 5 % steal costs 10 % of the throughput
// and a 30 % steal costs half of it, which would drown any bound below 0.25.
// So a window is measured in intervals of about a second, each with the steal
// it saw, and the metrics are computed over the quietest intervals that add up
// to the time asked for. The loop stops as soon as it has that much quiet time,
// and in any case after 1.4 times the time asked for. When it stops for the
// second reason the window is as long as its quiet intervals, or half the time
// asked for if they add up to less: medians over half the jobs are still
// medians, and an interval that lost a tenth of its CPU time is not a sample
// of the program.
//
// Stolen time is not all of it. The guest's memory speed drifts by up to 25 %
// over minutes with no steal reported: a fixed loop over a 4 MiB buffer takes
// 3.2 to 4.2 ms of CPU time from one stretch to the next, while a loop that
// stays in registers does not move. The kernels here are memory-bound and
// follow the same drift (r = 0.97 between the loop's and the jobs' medians
// over 10 s stretches; dividing by it cuts the jobs' run-to-run variation from
// 8.8 % to 2.6 %). So the meter also runs that loop ten times per interval,
// and the timing metrics are reported at the reference memory speed: measured
// time x (canaryNominalMs / median canary time of the intervals kept).

const (
	quietSteal      = 0.01 // an interval with at most this share of stolen CPU time is quiet
	maxStretch      = 1.4  // a window runs for at most this many times the time asked for
	canaryNominalMs = 3.5  // the canary's CPU time on the reference box in its fast state
)

// canaryBuf is the canary's working set: larger than the L2 cache, so that the
// loop runs at the speed of the memory levels the guests of a host share.
var canaryBuf = make([]int64, 1<<19)

// canaryMs runs a fixed read-modify-write loop and returns the CPU time, in ms,
// this thread spent on it. CPU time, not wall time: with the daemon keeping
// both cores busy the thread also waits, and waiting is not memory speed. The
// caller has locked its goroutine to the thread.
func canaryMs() float64 {
	start := threadCPU()
	var sum int64
	for i := range canaryBuf {
		canaryBuf[i] = canaryBuf[i]*3 + int64(i)
		sum += canaryBuf[(i*7919)&(len(canaryBuf)-1)]
	}
	canaryBuf[0] = sum // keep the loop's result alive
	return float64(threadCPU()-start) / 1e6
}

// threadCPU reads the calling thread's CPU clock, in ns.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail with a valid clock id and pointer
	return ts.Nano()
}

// cpuTimes reads the first line of /proc/stat: stolen and total jiffies over
// all CPUs. Where it cannot be read, nothing is ever stolen.
func cpuTimes() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// interval is one stretch of a window.
type interval struct {
	end    time.Time
	wall   time.Duration
	steal  float64 // share of the CPU time in it that went to another guest
	canary float64 // median canary time in it, ms
}

// meter cuts a running window into intervals and decides when it has run for
// long enough. The job loops poll done() between jobs.
type meter struct {
	want      time.Duration
	intervals []interval
	stop      atomic.Bool
	quit      chan struct{}
	exited    chan struct{}
}

func startMeter(want time.Duration) *meter {
	m := &meter{want: want, quit: make(chan struct{}), exited: make(chan struct{})}
	go m.run(time.Now())
	return m
}

func (m *meter) run(start time.Time) {
	defer close(m.exited)
	runtime.LockOSThread() // the canary reads its thread's CPU clock
	defer runtime.UnlockOSThread()
	every := min(time.Second, m.want/2)
	tick := time.NewTicker(every / 10)
	defer tick.Stop()
	last := start
	steal0, total0 := cpuTimes()
	var quiet time.Duration
	var canaries []float64
	for final := false; !final; {
		select {
		case <-tick.C:
		case <-m.quit:
			final = true
		}
		canaries = append(canaries, canaryMs())
		now := time.Now()
		if !final && now.Sub(last) < every {
			continue
		}
		steal1, total1 := cpuTimes()
		iv := interval{end: now, wall: now.Sub(last), canary: median(canaries)}
		if total1 > total0 {
			iv.steal = float64(steal1-steal0) / float64(total1-total0)
		}
		m.intervals = append(m.intervals, iv)
		last, steal0, total0, canaries = now, steal1, total1, canaries[:0]
		if iv.steal <= quietSteal {
			quiet += iv.wall
		}
		if quiet >= m.want || now.Sub(start) >= time.Duration(maxStretch*float64(m.want)) {
			m.stop.Store(true)
		}
	}
}

func (m *meter) done() bool { return m.stop.Load() }

// window closes the last interval and returns the jobs that ended in the
// quietest intervals adding up to the time asked for, or to half of it where
// the rest are not quiet. With wallClock the
// throughput denominator is the kept intervals' wall time (concurrent
// clients); without it, the kept jobs' own time (one driver that also spends
// time checking results).
func (m *meter) window(jobs []jobRec, wallClock bool) *window {
	close(m.quit)
	<-m.exited
	order := make([]int, len(m.intervals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return m.intervals[order[a]].steal < m.intervals[order[b]].steal })
	keep := make([]bool, len(m.intervals))
	w := &window{}
	var kept time.Duration
	var canaries []float64
	for _, i := range order {
		if kept >= m.want || kept >= m.want/2 && m.intervals[i].steal > quietSteal {
			break
		}
		keep[i] = true
		kept += m.intervals[i].wall
		w.steal = max(w.steal, m.intervals[i].steal)
		canaries = append(canaries, m.intervals[i].canary)
	}
	w.memSpeed = canaryNominalMs / median(canaries)
	for _, j := range jobs {
		i := sort.Search(len(m.intervals), func(i int) bool { return !m.intervals[i].end.Before(j.end) })
		if i == len(m.intervals) || !keep[i] {
			w.dropped++
			continue
		}
		w.jobs = append(w.jobs, j)
		if !wallClock {
			w.busy += j.lat
		}
	}
	if wallClock {
		w.busy = kept
	}
	return w
}
