package telemetry

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/stats"
)

// ObjectProfile is the per-OID replication profile: how often an object
// faulted here, how much a demand for it cost, and how invocations
// through references to it split between LMI and RMI. It is the
// measurable form of the paper's run-time mode decision — the numbers
// the Advisor's cost model wants instead of a bare call counter.
type ObjectProfile struct {
	OID uint64

	// Client side: faults raised at this site for the object.
	Faults uint64
	// HeapHits counts faults answered from the local heap — the object
	// had already arrived in someone else's batch or cluster, so the
	// demand cost nothing. HeapHits/Faults is the batch/cluster hit rate.
	HeapHits uint64
	// RemoteDemands counts fetches that crossed the wire (initial demands
	// plus refreshes).
	RemoteDemands uint64
	// ClusterDemands counts remote demands answered with a clustered
	// payload.
	ClusterDemands uint64
	// DemandObjects totals the objects materialized across the remote
	// demands — the demand depth (DemandObjects/RemoteDemands is the
	// average incremental batch actually shipped).
	DemandObjects uint64
	// DemandBytes totals the payload state bytes across remote demands.
	DemandBytes uint64
	// FaultNS totals the wall time of remote demands, so
	// FaultNS/RemoteDemands is the observed replica fault cost.
	FaultNS int64

	// Invocations through refs naming this object, split by mechanism.
	LMICalls uint64
	RMICalls uint64

	// Provider side: demands this site served for the object.
	Serves       uint64
	ServeObjects uint64
	ServeBytes   uint64

	// Update traffic.
	PutsShipped uint64
	PutsApplied uint64
}

// Heat is the eviction and ranking key: total protocol activity.
func (p ObjectProfile) Heat() uint64 {
	return p.Faults + p.RemoteDemands + p.LMICalls + p.RMICalls +
		p.Serves + p.PutsShipped + p.PutsApplied
}

// AvgFaultNS is the observed cost of one remote demand (0 if none).
func (p ObjectProfile) AvgFaultNS() int64 {
	if p.RemoteDemands == 0 {
		return 0
	}
	return p.FaultNS / int64(p.RemoteDemands)
}

// BytesPerDemand is the average payload size of one remote demand.
func (p ObjectProfile) BytesPerDemand() uint64 {
	if p.RemoteDemands == 0 {
		return 0
	}
	return p.DemandBytes / p.RemoteDemands
}

// HeapHitRate is the fraction of faults the local heap absorbed — how
// well batch/cluster prefetching worked for this object.
func (p ObjectProfile) HeapHitRate() float64 {
	if p.Faults == 0 {
		return 0
	}
	return float64(p.HeapHits) / float64(p.Faults)
}

// ProfileSnapshot is the exported top-K view of a site's profiler.
type ProfileSnapshot struct {
	Site      string
	TakenAtNS int64
	// Tracked is how many objects the profiler currently holds; Evicted
	// how many cold profiles were discarded to stay bounded.
	Tracked uint64
	Evicted uint64
	// Objects are the hottest profiles, heat-descending (OID ascending on
	// ties, so snapshots are deterministic).
	Objects []ObjectProfile
}

func init() {
	codec.MustRegister("obiwan.telemetry.ObjectProfile", ObjectProfile{})
	codec.MustRegister("obiwan.telemetry.ProfileSnapshot", ProfileSnapshot{})
}

// Get returns the profile for oid, if the snapshot holds one.
func (s *ProfileSnapshot) Get(oid uint64) (ObjectProfile, bool) {
	for _, p := range s.Objects {
		if p.OID == oid {
			return p, true
		}
	}
	return ObjectProfile{}, false
}

// Format renders the snapshot as an aligned hot-object table (the
// obiwan-admin top output).
func (s *ProfileSnapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hot objects at site %q (%d tracked, %d evicted)\n\n", s.Site, s.Tracked, s.Evicted)
	if len(s.Objects) == 0 {
		b.WriteString("(no profiled objects)\n")
		return b.String()
	}
	t := stats.NewTable("oid", "heat", "faults", "hit%", "demands", "objs", "bytes", "avg_fault", "lmi", "rmi", "serves")
	for _, p := range s.Objects {
		t.AddRow(
			fmt.Sprintf("%#x", p.OID), p.Heat(), p.Faults,
			fmt.Sprintf("%.0f", 100*p.HeapHitRate()),
			p.RemoteDemands, p.DemandObjects, p.DemandBytes,
			time.Duration(p.AvgFaultNS()).Round(time.Microsecond),
			p.LMICalls, p.RMICalls, p.Serves,
		)
	}
	_, _ = t.WriteTo(&b)
	return b.String()
}

// defaultProfileCapacity bounds the number of tracked objects.
const defaultProfileCapacity = 256

// Profiler aggregates per-OID replication behaviour into bounded top-K
// hot-object profiles. A nil *Profiler (telemetry disabled) no-ops on
// every method, matching the Hub's nil-receiver fast path. Safe for
// concurrent use.
//
// Tracked profiles sit in an indexed min-heap ordered by (heat
// ascending, OID descending), so the eviction victim is always the root
// and meeting a new OID at capacity costs O(log K), not a scan of all K.
type Profiler struct {
	mu       sync.Mutex
	capacity int
	objects  map[uint64]*profileEntry
	cold     coldHeap
	evicted  uint64

	// Site-wide demand cost, survives per-object eviction: the Advisor's
	// fallback estimate for objects never fetched here before.
	totFaultNS int64
	totDemands uint64
}

// profileEntry is one tracked profile with its cached heat and its
// position in the cold heap.
type profileEntry struct {
	prof ObjectProfile
	heat uint64
	idx  int
}

// coldHeap is a container/heap min-heap whose root is the coldest
// tracked profile: lowest heat, highest OID on ties, so the keep-set is
// deterministic.
type coldHeap []*profileEntry

func (h coldHeap) Len() int { return len(h) }
func (h coldHeap) Less(i, j int) bool {
	if h[i].heat != h[j].heat {
		return h[i].heat < h[j].heat
	}
	return h[i].prof.OID > h[j].prof.OID
}
func (h coldHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *coldHeap) Push(x any) {
	e := x.(*profileEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *coldHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// NewProfiler builds a profiler tracking at most capacity objects
// (default 256 when capacity <= 0).
func NewProfiler(capacity int) *Profiler {
	if capacity <= 0 {
		capacity = defaultProfileCapacity
	}
	return &Profiler{
		capacity: capacity,
		objects:  make(map[uint64]*profileEntry, capacity),
		cold:     make(coldHeap, 0, capacity),
	}
}

// get returns (creating, evicting as needed) the profile for oid. The
// caller updates the profile and then calls touch, which restores the
// heap order; until then only this entry may be out of place. Callers
// hold p.mu.
func (p *Profiler) get(oid uint64) *profileEntry {
	if e, ok := p.objects[oid]; ok {
		return e
	}
	if len(p.cold) >= p.capacity {
		// Evict the coldest tracked object and reuse its entry in place
		// at the root for the newcomer.
		e := p.cold[0]
		delete(p.objects, e.prof.OID)
		p.evicted++
		e.prof = ObjectProfile{OID: oid}
		e.heat = 0
		p.objects[oid] = e
		return e
	}
	e := &profileEntry{prof: ObjectProfile{OID: oid}, idx: len(p.cold)}
	p.cold = append(p.cold, e)
	p.objects[oid] = e
	return e
}

// touch re-caches e's heat after a Record* and moves it to its place in
// the cold heap. Callers hold p.mu.
func (p *Profiler) touch(e *profileEntry) {
	e.heat = e.prof.Heat()
	heap.Fix(&p.cold, e.idx)
}

// RecordFault records one resolved object fault: fromHeap marks faults
// absorbed by the local heap; for remote demands, objects/bytes size the
// payload and elapsed is the demand's wall time.
func (p *Profiler) RecordFault(oid uint64, fromHeap, clustered bool, objects, bytes int, elapsed time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	e := p.get(oid)
	o := &e.prof
	o.Faults++
	if fromHeap {
		o.HeapHits++
	} else {
		o.RemoteDemands++
		if clustered {
			o.ClusterDemands++
		}
		o.DemandObjects += uint64(objects)
		o.DemandBytes += uint64(bytes)
		o.FaultNS += int64(elapsed)
		p.totFaultNS += int64(elapsed)
		p.totDemands++
	}
	p.touch(e)
	p.mu.Unlock()
}

// RecordRefresh records one replica refresh — a remote demand without a
// fault (the replica was already here and re-fetched its state).
func (p *Profiler) RecordRefresh(oid uint64, clustered bool, objects, bytes int, elapsed time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	e := p.get(oid)
	o := &e.prof
	o.RemoteDemands++
	if clustered {
		o.ClusterDemands++
	}
	o.DemandObjects += uint64(objects)
	o.DemandBytes += uint64(bytes)
	o.FaultNS += int64(elapsed)
	p.totFaultNS += int64(elapsed)
	p.totDemands++
	p.touch(e)
	p.mu.Unlock()
}

// RecordServe records one demand this site answered as provider.
func (p *Profiler) RecordServe(oid uint64, objects, bytes int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	e := p.get(oid)
	o := &e.prof
	o.Serves++
	o.ServeObjects += uint64(objects)
	o.ServeBytes += uint64(bytes)
	p.touch(e)
	p.mu.Unlock()
}

// RecordInvoke records one invocation through a ref naming oid: LMI when
// it ran on a local copy, RMI when it was master-directed.
func (p *Profiler) RecordInvoke(oid uint64, remote bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	e := p.get(oid)
	o := &e.prof
	if remote {
		o.RMICalls++
	} else {
		o.LMICalls++
	}
	p.touch(e)
	p.mu.Unlock()
}

// RecordPutShipped records one update shipped to oid's master.
func (p *Profiler) RecordPutShipped(oid uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	e := p.get(oid)
	e.prof.PutsShipped++
	p.touch(e)
	p.mu.Unlock()
}

// RecordPutApplied records one update applied at this site as master.
func (p *Profiler) RecordPutApplied(oid uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	e := p.get(oid)
	e.prof.PutsApplied++
	p.touch(e)
	p.mu.Unlock()
}

// FaultCost returns the observed cost of one remote demand for oid: the
// object's own average when this site has fetched it before, otherwise
// the site-wide average demand cost. ok is false (and the Advisor falls
// back to its static heuristic) when nothing was ever measured — or when
// the profiler is nil.
func (p *Profiler) FaultCost(oid uint64) (cost time.Duration, ok bool) {
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, have := p.objects[oid]; have && e.prof.RemoteDemands > 0 {
		return time.Duration(e.prof.FaultNS / int64(e.prof.RemoteDemands)), true
	}
	if p.totDemands > 0 {
		return time.Duration(p.totFaultNS / int64(p.totDemands)), true
	}
	return 0, false
}

// Len returns how many objects are currently tracked.
func (p *Profiler) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.objects)
}

// Snapshot exports the topK hottest profiles (all tracked when topK <= 0),
// heat-descending, OID-ascending on equal heat.
func (p *Profiler) Snapshot(site string, nowNS int64, topK int) *ProfileSnapshot {
	out := &ProfileSnapshot{Site: site, TakenAtNS: nowNS}
	if p == nil {
		return out
	}
	p.mu.Lock()
	out.Tracked = uint64(len(p.objects))
	out.Evicted = p.evicted
	out.Objects = make([]ObjectProfile, 0, len(p.objects))
	for _, e := range p.cold {
		out.Objects = append(out.Objects, e.prof)
	}
	p.mu.Unlock()
	sort.Slice(out.Objects, func(i, j int) bool {
		hi, hj := out.Objects[i].Heat(), out.Objects[j].Heat()
		if hi != hj {
			return hi > hj
		}
		return out.Objects[i].OID < out.Objects[j].OID
	})
	if topK > 0 && len(out.Objects) > topK {
		out.Objects = out.Objects[:topK]
	}
	return out
}
