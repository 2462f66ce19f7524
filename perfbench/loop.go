package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// loop is the closed-loop client: it draws the next op only after the
// previous one returned and was checked.
type loop struct {
	w         runner
	r         *rand.Rand
	nextID    int64
	attempted int64
	failed    int64
	errs      []string // the first few failures, printed with the result
	traced    []*op    // the ops of the traced phase, for probe replay
}

const maxReportedErrs = 5

// phaseStats is what one timed phase measured.
type phaseStats struct {
	lat        map[string][]time.Duration // per shape
	ops        int
	busy       time.Duration // time inside the engine's public calls
	wall       time.Duration
	allocBytes uint64
	heapInuse  uint64
	gcCycles   uint32
	gcPause    time.Duration
	cpu        time.Duration // process user+system CPU time
	counters   counters      // engine counter deltas
}

// opsPerSec is the closed loop's throughput over the time spent in the
// engine's public calls; drawing inputs and checking answers on the
// client side is excluded.
func (p *phaseStats) opsPerSec() float64 { return float64(p.ops) / p.busy.Seconds() }

func (p *phaseStats) all() []time.Duration {
	out := make([]time.Duration, 0, p.ops)
	for _, ds := range p.lat {
		out = append(out, ds...)
	}
	return out
}

// step runs one op: draw, call (timed), check.
func (l *loop) step(tr *tracer) (*op, time.Duration) {
	l.nextID++
	o := l.w.next(l.r, l.nextID)
	sp := tr.begin("op."+o.shape, 0, o.id, false)
	t0 := time.Now()
	a, err := l.w.exec(o, tr, sp)
	dt := time.Since(t0)
	tr.end(sp)
	l.attempted++
	o.rowsOut = len(a.rows)
	if err == nil && !l.w.check(o, a) {
		err = fmt.Errorf("wrong answer")
	}
	if err != nil {
		l.failed++
		if len(l.errs) < maxReportedErrs {
			l.errs = append(l.errs, fmt.Sprintf("op %d %s: %v", o.id, o.shape, err))
		}
	}
	return o, dt
}

// warmUp runs untimed ops for at least d and at least one round of
// every query shape, so plan caches and lazily built state are in
// place before timing.
func (l *loop) warmUp(d time.Duration) {
	start := time.Now()
	for n := 0; n < 16 || time.Since(start) < d; n++ {
		l.step(nil)
	}
}

// measure runs the timed closed loop for d.
func (l *loop) measure(tr *tracer, d time.Duration) *phaseStats {
	ph := newPhase()
	l.measureInto(ph, tr, d)
	ph.heapInuse = heapInuse()
	return ph
}

// measureAlternating splits d into chunks run alternately without and
// with tracing, so drift over the run (a growing collection, a busier
// host) falls on both sides of the tracing-overhead comparison alike.
func (l *loop) measureAlternating(tr *tracer, d time.Duration, chunks int) (plain, traced *phaseStats) {
	plain, traced = newPhase(), newPhase()
	for i := 0; i < chunks; i++ {
		if i%2 == 0 {
			l.measureInto(plain, nil, d/time.Duration(chunks))
		} else {
			l.measureInto(traced, tr, d/time.Duration(chunks))
		}
	}
	return plain, traced
}

func newPhase() *phaseStats {
	return &phaseStats{lat: map[string][]time.Duration{}, counters: counters{v: map[string]int64{}, dgBuckets: map[int64]int64{}}}
}

// measureInto runs the closed loop for d and adds what it measured to
// ph.
func (l *loop) measureInto(ph *phaseStats, tr *tracer, d time.Duration) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := readCounters()
	cpu0 := cpuTime()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		o, dt := l.step(tr)
		ph.lat[o.shape] = append(ph.lat[o.shape], dt)
		ph.busy += dt
		ph.ops++
		if tr != nil {
			l.traced = append(l.traced, o)
		}
	}
	ph.wall += time.Since(start)
	ph.cpu += cpuTime() - cpu0
	ph.counters.add(readCounters().sub(c0))
	runtime.ReadMemStats(&m1)
	ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	ph.gcCycles += m1.NumGC - m0.NumGC
	ph.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuse returns HeapInuse after a full collection.
func heapInuse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// counters is a reading of the engine's metric registry: counter
// values by name, plus the DataGuide merge-latency histogram buckets.
type counters struct {
	v         map[string]int64
	dgBuckets map[int64]int64 // upper bound (ns) -> count
}

const dgLatencyHist = "dataguide.update_latency_ns"

func readCounters() counters {
	snap := metrics.Default.Snapshot()
	c := counters{v: map[string]int64{}, dgBuckets: map[int64]int64{}}
	for _, s := range snap.Samples {
		c.v[s.Name] = s.Value
	}
	for _, h := range snap.Histograms {
		if h.Name == dgLatencyHist {
			for _, b := range h.Buckets {
				c.dgBuckets[b.Le] = b.Count
			}
		}
	}
	return c
}

func (c counters) sub(o counters) counters {
	d := counters{v: map[string]int64{}, dgBuckets: map[int64]int64{}}
	for k, v := range c.v {
		d.v[k] = v - o.v[k]
	}
	for k, v := range c.dgBuckets {
		d.dgBuckets[k] = v - o.dgBuckets[k]
	}
	return d
}

func (c counters) add(o counters) {
	for k, v := range o.v {
		c.v[k] += v
	}
	for k, v := range o.dgBuckets {
		c.dgBuckets[k] += v
	}
}

// get returns a counter delta as a float.
func (c counters) get(name string) float64 { return float64(c.v[name]) }
