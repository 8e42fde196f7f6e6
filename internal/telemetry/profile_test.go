package telemetry

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestNilProfilerAndFlightAreFree(t *testing.T) {
	var p *Profiler
	p.RecordFault(1, false, false, 2, 64, time.Millisecond)
	p.RecordRefresh(1, false, 1, 32, time.Millisecond)
	p.RecordServe(1, 1, 32)
	p.RecordInvoke(1, true)
	p.RecordPutShipped(1)
	p.RecordPutApplied(1)
	if _, ok := p.FaultCost(1); ok {
		t.Fatal("nil profiler has a fault cost")
	}
	if p.Len() != 0 {
		t.Fatal("nil profiler tracks objects")
	}
	if snap := p.Snapshot("x", 0, 10); len(snap.Objects) != 0 {
		t.Fatalf("nil profiler snapshot: %+v", snap)
	}

	var f *FlightRecorder
	f.Record(FlightEvent{Kind: "x"})
	if f.Snapshot() != nil || f.Total() != 0 {
		t.Fatal("nil recorder holds events")
	}
	if d := f.Dump("r"); d != nil {
		t.Fatalf("nil recorder dumped: %+v", d)
	}
	if d := f.Current("r"); d == nil || len(d.Events) != 0 {
		t.Fatalf("nil recorder current: %+v", d)
	}
	if _, ok := f.LastDump(); ok {
		t.Fatal("nil recorder has a dump")
	}
}

func TestProfilerAggregatesPerObject(t *testing.T) {
	p := NewProfiler(0)
	// Object 7: one remote demand (3 objects, 300 bytes, 2ms), then a
	// heap-served fault, then mixed invocations and puts.
	p.RecordFault(7, false, true, 3, 300, 2*time.Millisecond)
	p.RecordFault(7, true, false, 0, 0, 0)
	p.RecordInvoke(7, false)
	p.RecordInvoke(7, false)
	p.RecordInvoke(7, true)
	p.RecordPutShipped(7)
	p.RecordServe(9, 2, 128)

	snap := p.Snapshot("site", 42, 0)
	if snap.Site != "site" || snap.TakenAtNS != 42 || snap.Tracked != 2 {
		t.Fatalf("snapshot header: %+v", snap)
	}
	o, ok := snap.Get(7)
	if !ok {
		t.Fatal("object 7 untracked")
	}
	if o.Faults != 2 || o.HeapHits != 1 || o.RemoteDemands != 1 || o.ClusterDemands != 1 {
		t.Fatalf("fault counts: %+v", o)
	}
	if o.DemandObjects != 3 || o.DemandBytes != 300 {
		t.Fatalf("demand sizes: %+v", o)
	}
	if o.LMICalls != 2 || o.RMICalls != 1 || o.PutsShipped != 1 {
		t.Fatalf("invoke counts: %+v", o)
	}
	if got := o.HeapHitRate(); got != 0.5 {
		t.Fatalf("hit rate: %v", got)
	}
	if got := o.AvgFaultNS(); got != int64(2*time.Millisecond) {
		t.Fatalf("avg fault: %v", got)
	}
	if got := o.BytesPerDemand(); got != 300 {
		t.Fatalf("bytes/demand: %v", got)
	}
	if o9, _ := snap.Get(9); o9.Serves != 1 || o9.ServeBytes != 128 {
		t.Fatalf("serve side: %+v", o9)
	}
	if !strings.Contains(snap.Format(), "0x7") {
		t.Fatalf("format: %s", snap.Format())
	}
}

func TestProfilerTopKOrderAndEviction(t *testing.T) {
	p := NewProfiler(3)
	// Heat: oid 1 → 1, oid 2 → 2, oid 3 → 3.
	for oid := uint64(1); oid <= 3; oid++ {
		for i := uint64(0); i < oid; i++ {
			p.RecordInvoke(oid, false)
		}
	}
	// A fourth object evicts the coldest (oid 1).
	p.RecordInvoke(4, false)
	p.RecordInvoke(4, false)
	p.RecordInvoke(4, false)
	p.RecordInvoke(4, false)

	snap := p.Snapshot("s", 0, 2)
	if snap.Tracked != 3 || snap.Evicted != 1 {
		t.Fatalf("bookkeeping: tracked=%d evicted=%d", snap.Tracked, snap.Evicted)
	}
	if len(snap.Objects) != 2 || snap.Objects[0].OID != 4 || snap.Objects[1].OID != 3 {
		t.Fatalf("topK order: %+v", snap.Objects)
	}
	if _, ok := snap.Get(1); ok {
		t.Fatal("evicted object still tracked")
	}
}

// linearProfiler is the profiler's original eviction, kept as the
// reference the cold heap must reproduce: at capacity, scan every tracked
// profile for the lowest heat, highest OID on ties.
type linearProfiler struct {
	capacity int
	objects  map[uint64]*ObjectProfile
	evicted  uint64
}

func (p *linearProfiler) get(oid uint64) *ObjectProfile {
	if o, ok := p.objects[oid]; ok {
		return o
	}
	if len(p.objects) >= p.capacity {
		var coldOID uint64
		coldHeat := ^uint64(0)
		for id, o := range p.objects {
			h := o.Heat()
			if h < coldHeat || (h == coldHeat && id > coldOID) {
				coldOID, coldHeat = id, h
			}
		}
		delete(p.objects, coldOID)
		p.evicted++
	}
	o := &ObjectProfile{OID: oid}
	p.objects[oid] = o
	return o
}

func (p *linearProfiler) snapshot() []ObjectProfile {
	out := make([]ObjectProfile, 0, len(p.objects))
	for _, o := range p.objects {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool {
		if hi, hj := out[i].Heat(), out[j].Heat(); hi != hj {
			return hi > hj
		}
		return out[i].OID < out[j].OID
	})
	return out
}

// profileOp is one seeded Record* call, applied to both profilers.
type profileOp struct {
	kind           int
	oid            uint64
	flag, cluster  bool
	objects, bytes int
	elapsed        time.Duration
}

func (op profileOp) record(p *Profiler) {
	switch op.kind {
	case 0:
		p.RecordFault(op.oid, op.flag, op.cluster, op.objects, op.bytes, op.elapsed)
	case 1:
		p.RecordRefresh(op.oid, op.cluster, op.objects, op.bytes, op.elapsed)
	case 2:
		p.RecordServe(op.oid, op.objects, op.bytes)
	case 3:
		p.RecordInvoke(op.oid, op.flag)
	case 4:
		p.RecordPutShipped(op.oid)
	default:
		p.RecordPutApplied(op.oid)
	}
}

func (op profileOp) recordLinear(p *linearProfiler) {
	o := p.get(op.oid)
	demand := func() {
		o.RemoteDemands++
		if op.cluster {
			o.ClusterDemands++
		}
		o.DemandObjects += uint64(op.objects)
		o.DemandBytes += uint64(op.bytes)
		o.FaultNS += int64(op.elapsed)
	}
	switch op.kind {
	case 0:
		o.Faults++
		if op.flag {
			o.HeapHits++
		} else {
			demand()
		}
	case 1:
		demand()
	case 2:
		o.Serves++
		o.ServeObjects += uint64(op.objects)
		o.ServeBytes += uint64(op.bytes)
	case 3:
		if op.flag {
			o.RMICalls++
		} else {
			o.LMICalls++
		}
	case 4:
		o.PutsShipped++
	default:
		o.PutsApplied++
	}
}

// TestProfilerHeapEvictionMatchesLinearScan drives seeded random Record*
// streams into the profiler and into the linear-scan reference, over a
// working set several times the capacity with a hot subset, so evictions,
// heat ties and promotions are all common. Both must keep the same
// profiles with the same counters and evict the same number.
func TestProfilerHeapEvictionMatchesLinearScan(t *testing.T) {
	for _, capacity := range []int{1, 3, 256} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := NewProfiler(capacity)
			ref := &linearProfiler{capacity: capacity, objects: map[uint64]*ObjectProfile{}}
			span, hot := 4*capacity+3, capacity/2+1
			ops := 40 * (capacity + 10)
			for i := 1; i <= ops; i++ {
				oid := uint64(rng.Intn(span))
				if rng.Intn(2) == 0 {
					oid = uint64(rng.Intn(hot))
				}
				op := profileOp{
					kind: rng.Intn(6), oid: oid,
					flag: rng.Intn(2) == 0, cluster: rng.Intn(3) == 0,
					objects: rng.Intn(8), bytes: rng.Intn(4096),
					elapsed: time.Duration(rng.Intn(1e6)),
				}
				op.record(p)
				op.recordLinear(ref)
				if i%(capacity+7) != 0 && i != ops {
					continue
				}
				snap := p.Snapshot("s", 0, 0)
				if snap.Tracked != uint64(len(ref.objects)) || snap.Evicted != ref.evicted {
					t.Fatalf("cap %d seed %d op %d: tracked/evicted %d/%d, reference %d/%d",
						capacity, seed, i, snap.Tracked, snap.Evicted, len(ref.objects), ref.evicted)
				}
				if want := ref.snapshot(); !reflect.DeepEqual(snap.Objects, want) {
					t.Fatalf("cap %d seed %d op %d: snapshot differs from the linear scan\n got %+v\nwant %+v",
						capacity, seed, i, snap.Objects, want)
				}
			}
			if ref.evicted == 0 {
				t.Fatalf("cap %d seed %d: stream never evicted", capacity, seed)
			}
		}
	}
}

// BenchmarkProfilerThrash cycles a working set 16 times the profiler's
// capacity, so every record meets an untracked OID at capacity and evicts.
func BenchmarkProfilerThrash(b *testing.B) {
	p := NewProfiler(0)
	working := uint64(16 * defaultProfileCapacity)
	for oid := uint64(0); oid < working; oid++ {
		p.RecordInvoke(oid, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RecordInvoke(uint64(i)%working, true)
	}
}

func TestProfilerFaultCostFallsBackToSiteAverage(t *testing.T) {
	p := NewProfiler(0)
	if _, ok := p.FaultCost(5); ok {
		t.Fatal("cost before any demand")
	}
	p.RecordFault(5, false, false, 1, 100, 10*time.Millisecond)
	if cost, ok := p.FaultCost(5); !ok || cost != 10*time.Millisecond {
		t.Fatalf("per-object cost: %v %v", cost, ok)
	}
	// An object never demanded here borrows the site-wide average.
	if cost, ok := p.FaultCost(999); !ok || cost != 10*time.Millisecond {
		t.Fatalf("site-wide cost: %v %v", cost, ok)
	}
	// Heap hits do not skew the average.
	p.RecordFault(5, true, false, 0, 0, 0)
	if cost, _ := p.FaultCost(5); cost != 10*time.Millisecond {
		t.Fatalf("heap hit skewed cost: %v", cost)
	}
}

func TestFlightRecorderRingAndDumps(t *testing.T) {
	f := newFlightRecorder("s", fakeClock(), 4)
	for i := 0; i < 6; i++ {
		f.Record(FlightEvent{Kind: "k", OID: uint64(i)})
	}
	events := f.Snapshot()
	if len(events) != 4 || events[0].OID != 2 || events[3].OID != 5 {
		t.Fatalf("ring contents: %+v", events)
	}
	if events[0].Seq != 2 || events[3].Seq != 5 {
		t.Fatalf("seq stamping: %+v", events)
	}
	if f.Total() != 6 {
		t.Fatalf("total: %d", f.Total())
	}

	d := f.Dump("first")
	if d.Seq != 1 || d.Total != 6 || d.Dropped != 2 || len(d.Events) != 4 {
		t.Fatalf("dump: %+v", d)
	}
	if last, ok := f.LastDump(); !ok || last.Reason != "first" {
		t.Fatalf("last dump: %+v ok=%v", last, ok)
	}
	// Only the last few dumps are retained.
	for i := 0; i < 6; i++ {
		f.Dump("later")
	}
	if dumps := f.Dumps(); len(dumps) != 4 || dumps[0].Seq != 4 {
		t.Fatalf("dump retention: %d dumps, first seq %d", len(dumps), dumps[0].Seq)
	}
}

func TestFlightDumpContainsAndFormat(t *testing.T) {
	f := newFlightRecorder("s", fakeClock(), 0)
	f.Record(FlightEvent{Kind: "rmi.retry", SpanID: 0xbeef, Detail: "attempt=2"})
	f.Record(FlightEvent{Kind: "repl.unavailable", OID: 9, Err: "boom"})
	d := f.Current("live")
	if !d.Contains(0xbeef) || d.Contains(0xdead) {
		t.Fatalf("contains: %+v", d)
	}
	out := d.Format()
	for _, want := range []string{"rmi.retry", "attempt=2", "err=boom", "reason: live"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSnapshotSinceCursor(t *testing.T) {
	h := NewHub("s", WithClock(fakeClock()), WithSpanCapacity(4))
	finish := func(name string) {
		h.StartRoot(name).End()
	}
	finish("a")
	finish("b")

	spans, next, missed := h.SpansSince(0, 10)
	if len(spans) != 2 || next != 2 || missed != 0 {
		t.Fatalf("first poll: %d spans next=%d missed=%d", len(spans), next, missed)
	}
	if spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("order: %+v", spans)
	}

	// No new spans: empty delta, cursor unchanged.
	if spans, next, _ = h.SpansSince(next, 10); len(spans) != 0 || next != 2 {
		t.Fatalf("idle poll: %d spans next=%d", len(spans), next)
	}

	// max bounds a delta; the cursor resumes mid-stream.
	finish("c")
	finish("d")
	finish("e")
	spans, next, _ = h.SpansSince(2, 2)
	if len(spans) != 2 || spans[0].Name != "c" || spans[1].Name != "d" || next != 4 {
		t.Fatalf("bounded poll: %+v next=%d", spans, next)
	}
	spans, next, _ = h.SpansSince(next, 2)
	if len(spans) != 1 || spans[0].Name != "e" || next != 5 {
		t.Fatalf("resume poll: %+v next=%d", spans, next)
	}

	// A cursor behind the ring reports eviction and clamps forward.
	for i := 0; i < 6; i++ {
		finish("burst")
	}
	spans, next, missed = h.SpansSince(5, 100)
	if missed != 2 || len(spans) != 4 || next != 11 {
		t.Fatalf("evicted poll: %d spans next=%d missed=%d", len(spans), next, missed)
	}
}

func TestRuntimeSamplerPublishesGauges(t *testing.T) {
	h := NewHub("s")
	stop := h.StartRuntimeSampler(time.Hour) // immediate sample, then idle
	defer stop()
	snap := h.MetricsSnapshot()
	found := map[string]bool{}
	for _, g := range snap.Gauges {
		found[g.Name] = true
	}
	for _, want := range []string{"go.goroutines", "go.heap.alloc_bytes", "go.gc.cycles"} {
		if !found[want] {
			t.Fatalf("missing gauge %q in %+v", want, snap.Gauges)
		}
	}
	stop()
	stop() // idempotent

	var nilHub *Hub
	nilStop := nilHub.StartRuntimeSampler(time.Millisecond)
	nilStop()
}
