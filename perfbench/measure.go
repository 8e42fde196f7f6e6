package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"obiwan/internal/platgc"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
)

// workload is one set-up world and the closed-loop op sequence a run
// drives over it from a single client goroutine.
type workload interface {
	world() *world
	// step runs op i of the sequence; an error marks the op failed or its
	// output wrong.
	step(i int) error
	// cycle is the op count after which the sequence repeats. Warm-up and
	// the timed phase end on a multiple of it, so per-op counts average
	// over whole cycles and repeat exactly from run to run.
	cycle() int
	// verify checks what the program holds at the end of a run.
	verify() error
}

// window is the interval over which a run takes each throughput and
// latency figure; a run reports the median over its windows, so a burst of
// load from outside the benchmark moves one window, not the result.
const window = time.Second

// windowSamples bounds the op latencies a window keeps for its
// percentiles: a uniform sample (Algorithm R) of the window's ops.
const windowSamples = 1 << 13

// windowStats accumulates one window's ops.
type windowStats struct {
	ops     int
	busy    time.Duration // summed op latency
	samples []int64
	rng     uint64 // xorshift state
}

func (w *windowStats) add(v int64) {
	w.ops++
	if len(w.samples) < cap(w.samples) {
		w.samples = append(w.samples, v)
		return
	}
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	if k := w.rng % uint64(w.ops); k < uint64(len(w.samples)) {
		w.samples[k] = v
	}
}

// windowResult is what a closed window contributes to a run's figures.
type windowResult struct {
	opsPerS  float64
	p50, p90 int64
}

// close sorts the window's samples, returns its figures and resets it.
func (w *windowStats) close() windowResult {
	slices.Sort(w.samples)
	r := windowResult{
		opsPerS: float64(w.ops) / w.busy.Seconds(),
		p50:     nearestRank(w.samples, 0.50),
		p90:     nearestRank(w.samples, 0.90),
	}
	w.ops, w.busy, w.samples = 0, 0, w.samples[:0]
	return r
}

// nearestRank returns the q-quantile of sorted samples.
func nearestRank(sorted []int64, q float64) int64 {
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

// counters is a snapshot of everything a run takes deltas of: the Go
// runtime's allocation and GC totals, the network's links, and the
// program's own public counters at every site.
type counters struct {
	mem      runtime.MemStats
	msgs     uint64
	bytes    uint64
	client   rmi.Stats
	served   []uint64 // rmi calls served, per server
	metrics  []*telemetry.MetricsSnapshot
	clientGC platgc.Stats
	serverGC platgc.Stats
}

func snapshot(w *world) *counters {
	c := &counters{}
	c.msgs, c.bytes = w.wire()
	c.client = w.client.Runtime().Stats()
	c.clientGC = w.client.Engine().GC().Snapshot()
	for _, s := range w.servers {
		c.served = append(c.served, s.Runtime().Stats().CallsServed)
		g := s.Engine().GC().Snapshot()
		c.serverGC.ProxyInsExported += g.ProxyInsExported
		c.serverGC.ProxyInsReused += g.ProxyInsReused
	}
	for _, s := range w.sites() {
		c.metrics = append(c.metrics, s.Telemetry().MetricsSnapshot())
	}
	// Read last, so the snapshot's own allocations fall outside the
	// interval when it opens one and inside the next when it closes one.
	runtime.ReadMemStats(&c.mem)
	return c
}

// counter sums a telemetry counter over the sites at idx (nil: all).
func (c *counters) counter(name string, idx []int) uint64 {
	var n uint64
	for i, m := range c.metrics {
		if idx == nil || contains(idx, i) {
			n += m.Get(name)
		}
	}
	return n
}

// hist sums a histogram's count and sum over the sites at idx (nil: all).
func (c *counters) hist(name string, idx []int) (count uint64, sum int64) {
	for i, m := range c.metrics {
		if idx == nil || contains(idx, i) {
			h := m.GetHistogram(name)
			count += h.Count
			sum += h.Sum
		}
	}
	return count, sum
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// phase is the outcome of a timed phase.
type phase struct {
	ops, failed int
	firstErr    error
	elapsed     time.Duration
	windows     []windowResult
	before      *counters
	after       *counters
	liveHeap    uint64

	// Traced runs alternate traced and untraced windows; these split the
	// ops and their summed latency between the two.
	tracedOps, untracedOps   int
	tracedTime, untracedTime time.Duration
}

// step runs op i under an op span, turning a panic from a generated proxy
// into a failed op.
func step(w workload, tr *tracer, i int) (err error) {
	t := tr.begin(spanOp)
	defer func() {
		if p := recover(); p != nil {
			tr.reset()
			err = fmt.Errorf("op %d panicked: %v", i, p)
			return
		}
		tr.end(t)
	}()
	return w.step(i)
}

// warm runs whole cycles of ops from op 0 until at least minCycles have run
// and the client has sent at least minCalls RMI calls. It returns the
// index of the next op.
func warm(w workload, minCycles, minCalls int) (int, error) {
	i := 0
	for c := 0; c < minCycles || w.world().client.Runtime().Stats().CallsSent < uint64(minCalls); c++ {
		for end := i + w.cycle(); i < end; i++ {
			if err := step(w, nil, i); err != nil {
				return i, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return i, nil
}

// measure drives ops from index i0 for d, finishing the cycle under way at
// the deadline. With a tracer it records spans in every other window, so
// drift over a run hits traced and untraced windows alike.
func measure(w workload, tr *tracer, i0 int, d time.Duration, seed int64) *phase {
	p := &phase{windows: make([]windowResult, 0, int(d/window)+2)}
	cur := &windowStats{samples: make([]int64, 0, windowSamples), rng: uint64(seed)*2654435761 + 1}
	traced := false
	runtime.GC()
	p.before = snapshot(w.world())
	start := time.Now()
	deadline := start.Add(d)
	windowEnd := start.Add(window)
	now := start
	cycle := w.cycle()
	for i := i0; ; i++ {
		if (i-i0)%cycle == 0 && !now.Before(deadline) {
			break
		}
		if !now.Before(windowEnd) {
			p.windows = append(p.windows, cur.close())
			traced = tr != nil && len(p.windows)%2 == 1
			if tr != nil {
				tr.on = traced
			}
			// The window's bookkeeping is not part of any op.
			now = time.Now()
			windowEnd = now.Add(window)
		}
		err := step(w, tr, i)
		t1 := time.Now()
		lat := t1.Sub(now)
		now = t1
		p.ops++
		cur.busy += lat
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
			// A failed op misses every latency bound.
			cur.add(math.MaxInt64)
		} else {
			cur.add(int64(lat))
		}
		if traced {
			p.tracedOps++
			p.tracedTime += lat
		} else {
			p.untracedOps++
			p.untracedTime += lat
		}
	}
	p.elapsed = time.Since(start)
	// The cycle under way at the deadline leaves a short last window;
	// it counts only if it covers half a window or is the only one.
	if cur.busy >= window/2 || len(p.windows) == 0 {
		p.windows = append(p.windows, cur.close())
	}
	if tr != nil {
		tr.on = false
	}
	p.after = snapshot(w.world())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.liveHeap = ms.HeapAlloc
	return p
}

// div is x/y, or 0 when nothing was counted in y: a layer the workload
// does not reach reports 0.
func div(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd derives the user-visible figures of an untraced phase.
func endToEnd(p *phase, setup float64) []metric {
	ops := float64(p.ops)
	b, a := p.before, p.after
	var rate, p50, p90 []float64
	for _, w := range p.windows {
		rate = append(rate, w.opsPerS)
		p50 = append(p50, float64(w.p50)/1e3)
		p90 = append(p90, float64(w.p90)/1e3)
	}
	return []metric{
		{"ops_per_s", median(rate), "1/s"},
		{"op_p50_us", median(p50), "us"},
		{"op_p90_us", median(p90), "us"},
		{"allocs_per_op", float64(a.mem.Mallocs-b.mem.Mallocs) / ops, "1"},
		{"alloc_bytes_per_op", float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / ops, "B"},
		{"wire_bytes_per_op", float64(a.bytes-b.bytes) / ops, "B"},
		{"wire_msgs_per_op", float64(a.msgs-b.msgs) / ops, "1"},
		{"live_heap_mb", float64(p.liveHeap) / 1e6, "MB"},
		{"setup_s", setup, "s"},
	}
}

// perLayer derives the per-layer figures of a traced phase. Counter
// deltas cover the whole phase; span figures cover the traced windows.
func perLayer(p *phase, tr *tracer, w *world) []metric {
	ops := float64(p.ops)
	b, a := p.before, p.after
	perOp := func(x uint64) float64 { return float64(x) / ops }
	ratio := func(x, y uint64) float64 { return div(float64(x), float64(y)) }
	mean := func(name string, idx []int, unit time.Duration) float64 {
		c1, s1 := a.hist(name, idx)
		c0, s0 := b.hist(name, idx)
		return div(float64(s1-s0), float64(c1-c0)) / float64(unit)
	}
	delta := func(name string, idx []int) uint64 { return a.counter(name, idx) - b.counter(name, idx) }

	all := w.sites()
	clientIdx := []int{len(all) - 1}
	var serverIdx []int
	leaderIdx := []int{0}
	var followersServed uint64
	for i, s := range w.servers {
		serverIdx = append(serverIdx, i)
		if g := s.Group(); g != nil && g.IsLeader() {
			leaderIdx = []int{i}
		} else if g != nil {
			followersServed += a.served[i] - b.served[i]
		}
	}
	faults := delta("repl.faults", clientIdx)
	payloads, objects := a.hist("repl.payload.objects", serverIdx)
	payloads0, objects0 := b.hist("repl.payload.objects", serverIdx)
	fsyncs, _ := a.hist("wal.fsync_ns", nil)
	fsyncs0, _ := b.hist("wal.fsync_ns", nil)
	reused := a.serverGC.ProxyInsReused - b.serverGC.ProxyInsReused
	exported := a.serverGC.ProxyInsExported - b.serverGC.ProxyInsExported
	gcs := float64(a.mem.NumGC - b.mem.NumGC)
	traced := div(float64(p.tracedOps), p.tracedTime.Seconds())
	untraced := div(float64(p.untracedOps), p.untracedTime.Seconds())

	return []metric{
		{"rmi.call_us", tr.meanSelf(spanRMICall, time.Microsecond), "us"},
		{"rmi.calls_per_op", perOp(a.client.CallsSent - b.client.CallsSent), "1"},
		{"rmi.bytes_per_op", perOp(a.client.BytesSent + a.client.BytesReceived - b.client.BytesSent - b.client.BytesReceived), "B"},
		{"rmi.retries_per_op", perOp(a.client.Retries - b.client.Retries), "1"},
		{"rmi.client_latency_us", mean("rmi.call.latency_ns", clientIdx, time.Microsecond), "us"},
		{"nameserver.lookup_us", tr.meanSelf(spanLookup, time.Microsecond), "us"},
		{"replication.fault_us", tr.meanSelf(spanFault, time.Microsecond), "us"},
		{"replication.faults_per_op", perOp(faults), "1"},
		{"replication.heap_hit_ratio", ratio(delta("repl.faults.from_heap", clientIdx), faults), "1"},
		{"replication.objects_per_payload", ratio(uint64(objects-objects0), payloads-payloads0), "1"},
		{"replication.fault_latency_us", mean("repl.fault.latency_ns", clientIdx, time.Microsecond), "us"},
		{"replication.mark_us", tr.meanSelf(spanMark, time.Microsecond), "us"},
		{"replication.sync_us", tr.meanSelf(spanSync, time.Microsecond), "us"},
		{"replication.puts_applied_ratio", ratio(delta("repl.puts.applied", leaderIdx), delta("repl.puts.shipped", clientIdx)), "1"},
		{"objmodel.lmi_ns", tr.meanSelf(spanLMI, time.Nanosecond), "ns"},
		{"objmodel.lmis_per_op", ratio(tr.agg[spanLMI].count, uint64(p.tracedOps)), "1"},
		{"heap.evict_us", tr.meanSelf(spanEvict, time.Microsecond), "us"},
		{"heap.client_objects", float64(w.client.Heap().Len()), "count"},
		{"platgc.proxyin_reuse_ratio", ratio(reused, reused+exported), "1"},
		{"platgc.live_proxy_outs", float64(a.clientGC.LiveProxyOuts()), "count"},
		{"consensus.rpcs_per_op", perOp(followersServed), "1"},
		{"consensus.elections", float64(delta("consensus.elections", serverIdx)), "count"},
		{"consensus.heartbeats_per_s", float64(delta("consensus.heartbeats", serverIdx)) / p.elapsed.Seconds(), "1/s"},
		{"wal.fsyncs_per_op", perOp(fsyncs - fsyncs0), "1"},
		{"wal.fsync_us", mean("wal.fsync_ns", nil, time.Microsecond), "us"},
		{"wal.fsync_wait_us", mean("wal.fsync.wait_ns", nil, time.Microsecond), "us"},
		{"gc.cycles_per_kop", gcs / ops * 1000, "1"},
		{"gc.pause_us_per_op", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / ops / 1e3, "us"},
		{"trace.overhead_ratio", div(traced, untraced), "1"},
	}
}
