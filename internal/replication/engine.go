package replication

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/heap"
	"obiwan/internal/objmodel"
	"obiwan/internal/platgc"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// Policy is the consistency hook surface the engine calls into. The paper
// leaves replica consistency to the application, providing only the hooks:
// "the application programmer is not forced to deal with consistency; he
// may simply use a library of specific consistency protocols" (§2.1).
// Package consistency provides such a library.
type Policy interface {
	// ApplyPut decides whether an update based on baseVersion may be
	// applied to a master currently at curVersion. Returning an error
	// rejects the update and surfaces it at the putting site.
	ApplyPut(oid objmodel.OID, curVersion, baseVersion uint64) error
	// ReplicaCreated runs at the master when a site fetches a replica.
	ReplicaCreated(oid objmodel.OID, site string, version uint64)
	// MasterUpdated runs at the master after an update is applied.
	MasterUpdated(oid objmodel.OID, newVersion uint64)
}

// acceptAll is the paper's default: the programmer owns consistency.
type acceptAll struct{}

func (acceptAll) ApplyPut(objmodel.OID, uint64, uint64) error { return nil }
func (acceptAll) ReplicaCreated(objmodel.OID, string, uint64) {}
func (acceptAll) MasterUpdated(objmodel.OID, uint64)          {}

// Crossover advises ModeAuto references: given the peer site serving the
// object and the number of invocations so far through a reference, should
// the target be replicated now? The QoS package provides an implementation
// based on the figure-4 cost model.
type Crossover func(peer transport.Addr, oid objmodel.OID, calls uint64) bool

// Engine errors.
var (
	// ErrClusterMember is returned by Put for replicas that arrived inside
	// a cluster: "each object can not be individually updated" (§4.3).
	// Use PutCluster instead.
	ErrClusterMember = errors.New("replication: object is a cluster member; use PutCluster")
	// ErrNotReplica is returned by Put/Refresh on masters.
	ErrNotReplica = errors.New("replication: object is not a replica")
	// ErrNoProvider is returned when a replica has no proxy-in to talk to.
	ErrNoProvider = errors.New("replication: replica has no provider")
)

// Option configures an Engine.
type Option func(*Engine)

// WithPolicy installs a consistency policy (default: accept everything).
func WithPolicy(p Policy) Option {
	return func(e *Engine) {
		if p != nil {
			e.policy = p
		}
	}
}

// WithCrossover installs the ModeAuto advisor.
func WithCrossover(c Crossover) Option {
	return func(e *Engine) { e.crossover = c }
}

// WithTelemetry attaches a telemetry hub: replication protocol steps
// (fault, assemble, materialize, put) become spans and the repl.* metrics
// are recorded from protocol events. Pass the same hub given to the RMI
// runtime so cross-site demand chains share one trace. Nil (the default)
// disables both at no cost.
func WithTelemetry(h *telemetry.Hub) Option {
	return func(e *Engine) { e.tel = h }
}

// BulkTimeout is the per-call deadline for replication data transfers
// (Get/Put/PutCluster). Bulk payloads — a transitive closure of a large
// graph on a thin link — legitimately take far longer than interactive
// RMI calls, so they do not use the runtime's default call timeout.
const BulkTimeout = 5 * time.Minute

// Engine is a site's replication runtime: master-side payload assembly and
// proxy-in exports, client-side materialization and proxy-out faults.
type Engine struct {
	rt        *rmi.Runtime
	heap      *heap.Heap
	reg       *codec.Registry
	policy    Policy
	crossover Crossover
	observer  EventObserver
	gc        platgc.Accountant
	tel       *telemetry.Hub
	prof      *telemetry.Profiler       // nil no-op when tel is nil
	flight    *telemetry.FlightRecorder // nil no-op when tel is nil
	invokeObs objmodel.InvokeObserver   // nil when profiling is off

	// Protocol instruments, resolved once; all nil no-ops when tel is nil.
	met struct {
		faults       *telemetry.Counter
		faultsHeap   *telemetry.Counter
		faultLatency *telemetry.Histogram
		assembled    *telemetry.Counter
		materialized *telemetry.Counter
		clustered    *telemetry.Counter
		batch        *telemetry.Counter
		payloadObjs  *telemetry.Histogram
		putsShipped  *telemetry.Counter
		putsApplied  *telemetry.Counter
		refreshes    *telemetry.Counter
	}

	mu          sync.Mutex
	observers   []obsEntry // fan-out observers, in registration order
	observerSeq int
	journal     Journal                           // durability hooks (nil: in-memory site)
	gate        MasterGate                        // master-group routing (nil: single-master site)
	appliedPuts map[objmodel.OID]appliedPut       // exactly-once guard per master
	proxyIns    map[objmodel.OID]rmi.RemoteRef    // exported proxy-in per object
	clusters    map[objmodel.OID][]objmodel.OID   // cluster root → member OIDs (client side)
	inCluster   map[objmodel.OID]objmodel.OID     // member → cluster root (client side)
	groups      map[objmodel.OID][]transport.Addr // OID → mastering group members (client side)
}

// NewEngine builds the replication engine for one site.
func NewEngine(rt *rmi.Runtime, h *heap.Heap, opts ...Option) *Engine {
	e := &Engine{
		rt:          rt,
		heap:        h,
		reg:         rt.Registry(),
		policy:      acceptAll{},
		appliedPuts: make(map[objmodel.OID]appliedPut),
		proxyIns:    make(map[objmodel.OID]rmi.RemoteRef),
		clusters:    make(map[objmodel.OID][]objmodel.OID),
		inCluster:   make(map[objmodel.OID]objmodel.OID),
	}
	for _, opt := range opts {
		opt(e)
	}
	if m := e.tel.Metrics(); m != nil {
		e.met.faults = m.Counter("repl.faults")
		e.met.faultsHeap = m.Counter("repl.faults.from_heap")
		e.met.faultLatency = m.Histogram("repl.fault.latency_ns")
		e.met.assembled = m.Counter("repl.payloads.assembled")
		e.met.materialized = m.Counter("repl.payloads.materialized")
		e.met.clustered = m.Counter("repl.payloads.clustered")
		e.met.batch = m.Counter("repl.payloads.batch")
		e.met.payloadObjs = m.Histogram("repl.payload.objects")
		e.met.putsShipped = m.Counter("repl.puts.shipped")
		e.met.putsApplied = m.Counter("repl.puts.applied")
		e.met.refreshes = m.Counter("repl.refreshes")
	}
	e.prof = e.tel.Profiler()
	e.flight = e.tel.Flight()
	if e.prof != nil {
		prof := e.prof
		e.invokeObs = func(oid objmodel.OID, remote bool) {
			prof.RecordInvoke(uint64(oid), remote)
		}
	}
	return e
}

// observeRef installs the profiler's LMI/RMI invoke observer on a ref the
// engine created or bound. No-op when profiling is off.
func (e *Engine) observeRef(r *objmodel.Ref) {
	if e.invokeObs != nil {
		r.SetInvokeObserver(e.invokeObs)
	}
}

// failUnavailable classifies an RMI failure on op for oid: transient and
// timed-out errors wrap into ErrUnavailable, and — because exhausting the
// retry policy is exactly the moment an operator wants context — the
// flight recorder logs the failing call (with its causal span id) and
// dumps the ring automatically.
func (e *Engine) failUnavailable(op string, oid objmodel.OID, sc telemetry.SpanContext, err error) error {
	werr := wrapUnavailable(err)
	if e.flight != nil && errors.Is(werr, ErrUnavailable) {
		e.flight.Record(telemetry.FlightEvent{
			Kind: "repl.unavailable", OID: uint64(oid),
			TraceID: sc.TraceID, SpanID: sc.SpanID,
			Detail: op, Err: err.Error(),
		})
		e.flight.Dump("unavailable: " + op)
	}
	return werr
}

// payloadBytes totals the serialized state carried by a payload.
func payloadBytes(p *Payload) int {
	n := 0
	for i := range p.Objects {
		n += len(p.Objects[i].State)
	}
	return n
}

// Telemetry returns the engine's hub (nil when telemetry is disabled).
func (e *Engine) Telemetry() *telemetry.Hub { return e.tel }

// startSpan begins a protocol span under parent (or roots a new trace when
// parent is invalid). Nil-safe when telemetry is off.
func (e *Engine) startSpan(parent telemetry.SpanContext, name string) *telemetry.Span {
	return e.tel.StartSpan(parent, name)
}

// Heap returns the engine's object store.
func (e *Engine) Heap() *heap.Heap { return e.heap }

// Runtime returns the engine's RMI runtime.
func (e *Engine) Runtime() *rmi.Runtime { return e.rt }

// GC returns the platform-object ledger.
func (e *Engine) GC() *platgc.Accountant { return &e.gc }

// SetCrossover installs the ModeAuto advisor at run time.
func (e *Engine) SetCrossover(c Crossover) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.crossover = c
}

// SetPolicy installs a consistency policy at run time (nil restores the
// accept-all default).
func (e *Engine) SetPolicy(p Policy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p == nil {
		p = acceptAll{}
	}
	e.policy = p
}

func (e *Engine) getCrossover() Crossover {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crossover
}

// RegisterMaster adds obj to this site's heap as a master object. On a
// grouped site the registration is agreed through the group log first, so
// every member installs the object at the same identity.
func (e *Engine) RegisterMaster(obj any) (*heap.Entry, error) {
	if g := e.masterGate(); g != nil {
		return g.RouteRegister(obj)
	}
	entry, err := e.heap.AddMaster(obj)
	if err != nil {
		return nil, err
	}
	if err := e.journalMaster(entry); err != nil {
		return nil, err
	}
	return entry, nil
}

// NewRef returns a Ref bound to target, registering target as a master if
// it is not yet in the heap. This is how applications build object graphs:
//
//	a.Next = engine.NewRef(b)
func (e *Engine) NewRef(target any) (*objmodel.Ref, error) {
	entry, ok := e.heap.EntryOf(target)
	if !ok {
		if g := e.masterGate(); g != nil {
			var err error
			entry, err = g.RouteRegister(target)
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			entry, err = e.heap.AddMaster(target)
			if err != nil {
				return nil, err
			}
			if err := e.journalMaster(entry); err != nil {
				return nil, err
			}
		}
	}
	r := objmodel.NewLocalRef(target, entry.OID)
	if entry.Role == heap.Replica {
		if prov := entry.Provider(); !prov.IsZero() {
			r.SetRemote(&remoteInvoker{eng: e, provider: prov, oid: entry.OID})
		}
	}
	e.observeRef(r)
	return r, nil
}

// ExportObject exports a proxy-in for obj (registering it as a master if
// needed) and returns the reference — what a site binds in the name server
// so other sites can reach the graph's root. The returned Descriptor also
// carries the OID and type, which the remote side needs to build its
// proxy-out.
func (e *Engine) ExportObject(obj any) (Descriptor, error) {
	gate := e.masterGate()
	entry, ok := e.heap.EntryOf(obj)
	if !ok {
		var err error
		if gate != nil {
			entry, err = gate.RouteRegister(obj)
		} else {
			entry, err = e.heap.AddMaster(obj)
		}
		if err != nil {
			return Descriptor{}, err
		}
	}
	// Journal on every export, not just fresh registration: exporting is
	// a publish point, and reference wiring done since Register (NewRef
	// mutates the parent without a version bump) must be durable before
	// the object becomes reachable.
	if entry.Role == heap.Master {
		if err := e.journalMaster(entry); err != nil {
			return Descriptor{}, err
		}
	}
	ref, err := e.exportProxyIn(entry)
	if err != nil {
		return Descriptor{}, err
	}
	d := Descriptor{Provider: ref, OID: uint64(entry.OID), TypeName: entry.TypeName}
	if gate != nil && entry.Role == heap.Master {
		d.Group = gate.Members()
	}
	return d, nil
}

// Descriptor identifies a remotely reachable object: the proxy-in to demand
// it from plus its identity. This is what name servers store. Group, when
// non-empty, lists the member addresses of the master group serving the
// object — every member exports the proxy-in at the same object id, so a
// client fails over by swapping only Provider.Addr.
type Descriptor struct {
	Provider rmi.RemoteRef
	OID      uint64
	TypeName string
	Group    []transport.Addr
}

func init() {
	codec.MustRegister("obiwan.repl.Descriptor", Descriptor{})
}

// RefFromDescriptor builds an unresolved Ref from a descriptor obtained out
// of band (typically a name server). Invoking it raises an object fault;
// spec controls how much each fault replicates.
func (e *Engine) RefFromDescriptor(d Descriptor, spec GetSpec) *objmodel.Ref {
	e.recordGroup(objmodel.OID(d.OID), d.Group)
	pout := e.newProxyOut(objmodel.OID(d.OID), d.Provider, spec.normalize())
	r := objmodel.NewFaultingRef(objmodel.OID(d.OID), pout, pout)
	e.observeRef(r)
	return r
}

// exportProxyIn exports (or reuses) the proxy-in serving entry's object.
func (e *Engine) exportProxyIn(entry *heap.Entry) (rmi.RemoteRef, error) {
	e.mu.Lock()
	if ref, ok := e.proxyIns[entry.OID]; ok {
		e.mu.Unlock()
		e.gc.ProxyInReused()
		return ref, nil
	}
	e.mu.Unlock()

	pin := &ProxyIn{eng: e, entry: entry}
	ref, err := e.rt.Export(pin, "obiwan.IProvideRemote")
	if err != nil {
		return rmi.RemoteRef{}, fmt.Errorf("replication: export proxy-in for %v: %w", entry.OID, err)
	}

	e.mu.Lock()
	if existing, ok := e.proxyIns[entry.OID]; ok {
		// Lost a race; keep the winner and withdraw ours.
		e.mu.Unlock()
		e.rt.Unexport(ref.ID)
		e.gc.ProxyInReused()
		return existing, nil
	}
	e.proxyIns[entry.OID] = ref
	e.gc.ProxyInExported()
	e.mu.Unlock()

	// Journal outside e.mu (see journal.go lock-ordering contract). A
	// racing duplicate record is harmless: replay is last-wins and both
	// name the same id.
	if err := e.journalProxyIn(entry.OID, ref.ID); err != nil {
		return rmi.RemoteRef{}, err
	}
	return ref, nil
}

// captureEntry serializes an entry's state under its state lock.
func (e *Engine) captureEntry(entry *heap.Entry) ([]byte, error) {
	entry.LockState()
	defer entry.UnlockState()
	return objmodel.CaptureState(e.reg, entry.Obj)
}

// restoreEntry restores an entry's state and rebinds its references under
// its state lock.
func (e *Engine) restoreEntry(entry *heap.Entry, state []byte, frontier map[objmodel.OID]FrontierRef, spec GetSpec) error {
	entry.LockState()
	defer entry.UnlockState()
	if err := objmodel.RestoreState(e.reg, entry.Obj, state); err != nil {
		return err
	}
	return e.bindRefs(entry.Obj, frontier, spec)
}

// assemble builds the payload for a demand on root with spec. It runs at
// the master (or any site holding the object — replicas can serve onward
// replication the same way). sc parents the "assemble" span: the serve
// span of the inbound Get when the demand was traced, invalid otherwise.
func (e *Engine) assemble(sc telemetry.SpanContext, root *heap.Entry, spec GetSpec, requester string) (payload *Payload, err error) {
	span := e.startSpan(sc, "assemble")
	if span != nil {
		span.Annotate("oid", root.OID.String())
	}
	defer func() {
		if payload != nil && span != nil {
			span.Annotate("objects", strconv.Itoa(len(payload.Objects)))
		}
		span.SetErr(err)
		span.End()
	}()
	if span != nil {
		clk := e.rt.Clock()
		start := clk.Now()
		defer func() { span.Phase(telemetry.PhaseAssemble, clk.Now().Sub(start)) }() // runs before the End defer above
	}
	spec = spec.normalize()
	limit := heap.TraverseLimit{MaxDepth: spec.Depth}
	if spec.Mode == Incremental {
		limit.MaxObjects = spec.Batch
	}
	entries, err := e.heap.Traverse(root.Obj, limit)
	if err != nil {
		return nil, err
	}
	included := make(map[objmodel.OID]bool, len(entries))
	for _, en := range entries {
		included[en.OID] = true
	}

	p := &Payload{
		RootOID:   uint64(root.OID),
		Objects:   make([]ObjectRecord, 0, len(entries)),
		Clustered: spec.Clustered,
		Spec:      spec,
	}
	if g := e.masterGate(); g != nil && root.Role == heap.Master {
		p.Group = g.Members()
	}
	if spec.Clustered {
		ref, err := e.exportProxyIn(root)
		if err != nil {
			return nil, err
		}
		p.ClusterProvider = ref
	}

	frontierSeen := make(map[objmodel.OID]bool)
	for _, en := range entries {
		state, err := e.captureEntry(en)
		if err != nil {
			return nil, err
		}
		rec := ObjectRecord{
			OID:      uint64(en.OID),
			TypeName: en.TypeName,
			Version:  en.Version(),
			State:    state,
		}
		if !spec.Clustered {
			// Figure-5 regime: every shipped object gets its own proxy
			// pair so it stays individually updatable.
			prov, err := e.exportProxyIn(en)
			if err != nil {
				return nil, err
			}
			rec.Provider = prov
		}
		p.Objects = append(p.Objects, rec)

		// Frontier: references leaving the shipped set. The ref list is
		// read under the state lock; descriptors are built after.
		en.LockState()
		refs := objmodel.RefsOf(en.Obj)
		en.UnlockState()
		for _, ref := range refs {
			toid := ref.OID()
			if toid == 0 || included[toid] || frontierSeen[toid] {
				continue
			}
			fr, err := e.frontierFor(ref)
			if err != nil {
				return nil, err
			}
			frontierSeen[toid] = true
			p.Frontier = append(p.Frontier, fr)
		}
		e.getPolicy().ReplicaCreated(en.OID, requester, rec.Version)
	}
	e.emit(Event{
		Kind: EventPayloadAssembled, OID: root.OID, Objects: len(p.Objects),
		Bytes: payloadBytes(p), Frontier: len(p.Frontier), Clustered: p.Clustered,
		Requester: requester,
	})
	return p, nil
}

// frontierFor builds the frontier descriptor for one outgoing reference.
func (e *Engine) frontierFor(ref *objmodel.Ref) (FrontierRef, error) {
	toid := ref.OID()
	if ref.IsResolved() {
		target, err := ref.Resolve()
		if err != nil {
			return FrontierRef{}, err
		}
		te, ok := e.heap.EntryOf(target)
		if !ok {
			return FrontierRef{}, fmt.Errorf("replication: ref target %v not in heap", toid)
		}
		// A local master (or individually-provided replica) can be demanded
		// from this site directly.
		if te.Role == heap.Master || !te.Provider().IsZero() {
			if te.Role == heap.Master {
				prov, err := e.exportProxyIn(te)
				if err != nil {
					return FrontierRef{}, err
				}
				return FrontierRef{OID: uint64(toid), Provider: prov, TypeName: te.TypeName}, nil
			}
			return FrontierRef{OID: uint64(toid), Provider: te.Provider(), TypeName: te.TypeName}, nil
		}
		return FrontierRef{}, fmt.Errorf("replication: no route to %v", toid)
	}
	// The reference is itself proxied here: forward the upstream provider
	// (third-site chains).
	if pout, ok := ref.Faulter().(*ProxyOut); ok {
		return FrontierRef{OID: uint64(toid), Provider: pout.provider}, nil
	}
	return FrontierRef{}, fmt.Errorf("replication: unresolved ref %v has no proxy-out", toid)
}

// materialize installs a payload into the local heap: replicas are created
// or refreshed, references bound, frontier proxy-outs created. It returns
// the root object. sc parents the "materialize" span — on the demand path
// it is the fault span, so the trace reads fault → rmi:Get → serve:Get →
// assemble on the provider, then materialize back here.
func (e *Engine) materialize(sc telemetry.SpanContext, p *Payload) (root any, err error) {
	span := e.startSpan(sc, "materialize")
	if span != nil {
		span.Annotate("oid", objmodel.OID(p.RootOID).String())
		span.Annotate("objects", strconv.Itoa(len(p.Objects)))
	}
	defer func() {
		span.SetErr(err)
		span.End()
	}()
	frontier := make(map[objmodel.OID]FrontierRef, len(p.Frontier))
	for _, fr := range p.Frontier {
		frontier[objmodel.OID(fr.OID)] = fr
	}

	now := e.rt.Clock().Now()
	touched := make([]any, 0, len(p.Objects))
	var memberOIDs []objmodel.OID

	// Pass 1: instantiate or refresh every shipped object, so that pass 2
	// can bind intra-payload references to live instances.
	for _, rec := range p.Objects {
		oid := objmodel.OID(rec.OID)
		if p.Clustered {
			memberOIDs = append(memberOIDs, oid)
		}
		if existing, ok := e.heap.Get(oid); ok {
			// Identity dedupe: refresh the existing copy in place unless it
			// is this site's own master (state bounced back — keep ours).
			if existing.Role == heap.Master {
				continue
			}
			existing.LockState()
			err := objmodel.RestoreState(e.reg, existing.Obj, rec.State)
			existing.UnlockState()
			if err != nil {
				return nil, err
			}
			existing.SetVersion(rec.Version)
			existing.Touch(now)
			existing.SetDirty(false)
			if err := e.journalCleanReplica(existing.OID, rec.Version); err != nil {
				return nil, err
			}
			touched = append(touched, existing.Obj)
			continue
		}
		info, ok := objmodel.InfoByName(rec.TypeName)
		if !ok {
			return nil, fmt.Errorf("replication: unknown type %q in payload", rec.TypeName)
		}
		obj := info.New()
		if err := objmodel.RestoreState(e.reg, obj, rec.State); err != nil {
			return nil, err
		}
		entry, fresh := e.heap.AddReplica(obj, oid, rec.TypeName, rec.Version)
		if !fresh {
			// Raced with another materialization; refresh the winner.
			if err := objmodel.RestoreState(e.reg, entry.Obj, rec.State); err != nil {
				return nil, err
			}
			entry.SetVersion(rec.Version)
		}
		if p.Clustered {
			entry.SetProvider(p.ClusterProvider, objmodel.OID(p.RootOID))
		} else {
			entry.SetProvider(rec.Provider, 0)
		}
		entry.Touch(now)
		touched = append(touched, entry.Obj)
	}

	if p.Clustered && len(memberOIDs) > 0 {
		rootOID := objmodel.OID(p.RootOID)
		e.mu.Lock()
		e.clusters[rootOID] = memberOIDs
		for _, m := range memberOIDs {
			e.inCluster[m] = rootOID
		}
		e.mu.Unlock()
	}

	// Pass 2: bind references, each object under its state lock (a replica
	// may concurrently serve captures for onward replication).
	for _, obj := range touched {
		entry, ok := e.heap.EntryOf(obj)
		if !ok {
			return nil, fmt.Errorf("replication: touched object %T lost its entry", obj)
		}
		entry.LockState()
		err := e.bindRefs(obj, frontier, p.Spec)
		entry.UnlockState()
		if err != nil {
			return nil, err
		}
	}

	// Remember group routes: every shipped object is mastered by the
	// sending group, and so is every frontier target the group itself
	// serves (its provider address is a member).
	if len(p.Group) > 0 {
		member := make(map[transport.Addr]bool, len(p.Group))
		for _, m := range p.Group {
			member[m] = true
		}
		for _, rec := range p.Objects {
			e.recordGroup(objmodel.OID(rec.OID), p.Group)
		}
		for _, fr := range p.Frontier {
			if member[fr.Provider.Addr] {
				e.recordGroup(objmodel.OID(fr.OID), p.Group)
			}
		}
	}

	rootEntry, ok := e.heap.Get(objmodel.OID(p.RootOID))
	if !ok {
		return nil, fmt.Errorf("replication: payload root %d missing after materialization", p.RootOID)
	}
	e.emit(Event{
		Kind: EventPayloadMaterialized, OID: rootEntry.OID, Objects: len(p.Objects),
		Bytes: payloadBytes(p), Frontier: len(p.Frontier), Clustered: p.Clustered,
	})
	return rootEntry.Obj, nil
}

// bindRefs binds every unresolved reference of obj: to a local object when
// the target is here, otherwise to a frontier proxy-out.
func (e *Engine) bindRefs(obj any, frontier map[objmodel.OID]FrontierRef, spec GetSpec) error {
	for _, ref := range objmodel.RefsOf(obj) {
		e.observeRef(ref)
		if ref.IsResolved() {
			continue
		}
		toid := ref.OID()
		if toid == 0 {
			return objmodel.ErrUnboundRef
		}
		if te, ok := e.heap.Get(toid); ok {
			ref.BindLocal(te.Obj, toid)
			if prov := te.Provider(); !prov.IsZero() {
				ref.SetRemote(&remoteInvoker{eng: e, provider: prov, oid: toid})
			}
			continue
		}
		fr, ok := frontier[toid]
		if !ok {
			return fmt.Errorf("replication: reference to %v has no frontier descriptor", toid)
		}
		pout := e.newProxyOut(toid, fr.Provider, spec)
		ref.BindFault(toid, pout, pout)
	}
	return nil
}

// Replicate demands ref's target explicitly with spec, overriding the
// ref's inherited replication parameters — the paper's programmatic
// get(mode). It is a no-op on already-resolved refs.
func (e *Engine) Replicate(ref *objmodel.Ref, spec GetSpec) (any, error) {
	return e.ReplicateTraced(telemetry.SpanContext{}, ref, spec)
}

// ReplicateTraced is Replicate under a causal parent: the demand's fault
// span (and everything the demand causes on other sites) is recorded
// beneath sc. An invalid sc roots a new trace when telemetry is on.
func (e *Engine) ReplicateTraced(sc telemetry.SpanContext, ref *objmodel.Ref, spec GetSpec) (any, error) {
	if ref.IsResolved() {
		return ref.Resolve()
	}
	pout, ok := ref.Faulter().(*ProxyOut)
	if !ok {
		return nil, objmodel.ErrUnboundRef
	}
	local, remote, err := pout.demand(sc, spec.normalize())
	if err != nil {
		return nil, err
	}
	ref.BindLocal(local, ref.OID())
	if remote != nil {
		ref.SetRemote(remote)
	}
	e.gc.ProxyOutReclaimed()
	return local, nil
}

// Put ships a replica's state back to its master — the paper's put. The
// replica must have arrived outside a cluster (ErrClusterMember otherwise).
func (e *Engine) Put(obj any) error {
	return e.PutTraced(telemetry.SpanContext{}, obj)
}

// PutTraced is Put under a causal parent: the shipped update is recorded
// as a "put" span beneath sc, and the master's apply joins the same trace.
func (e *Engine) PutTraced(sc telemetry.SpanContext, obj any) (err error) {
	entry, ok := e.heap.EntryOf(obj)
	if !ok {
		return heap.ErrUnknownObject
	}
	if entry.Role != heap.Replica {
		return ErrNotReplica
	}
	if entry.ClusterMember() {
		return ErrClusterMember
	}
	prov := entry.Provider()
	if prov.IsZero() {
		return ErrNoProvider
	}
	span := e.startSpan(sc, "put")
	if span != nil {
		span.Annotate("oid", entry.OID.String())
	}
	defer func() {
		span.SetErr(err)
		span.End()
	}()
	req, err := e.buildPutRequest(entry)
	if err != nil {
		return err
	}
	res, winner, err := e.callFailover(span, entry.OID, prov, BulkTimeout, true, "Put", req)
	if err != nil {
		return fmt.Errorf("replication: put %v: %w", entry.OID, e.failUnavailable("put", entry.OID, span.Context(), err))
	}
	reply, ok := res[0].(*PutReply)
	if !ok {
		return fmt.Errorf("replication: put %v: unexpected reply %T", entry.OID, res[0])
	}
	if winner != prov {
		entry.SetProvider(winner, 0) // re-pin to the answering leader
	}
	entry.SetVersion(reply.NewVersion)
	entry.SetDirty(false)
	if err := e.journalCleanReplica(entry.OID, reply.NewVersion); err != nil {
		return err
	}
	e.emit(Event{Kind: EventPutShipped, OID: entry.OID, Version: reply.NewVersion})
	return nil
}

// PutCluster ships the whole cluster containing obj back to the master as
// one unit.
func (e *Engine) PutCluster(obj any) error {
	return e.PutClusterTraced(telemetry.SpanContext{}, obj)
}

// PutClusterTraced is PutCluster under a causal parent.
func (e *Engine) PutClusterTraced(sc telemetry.SpanContext, obj any) (err error) {
	entry, ok := e.heap.EntryOf(obj)
	if !ok {
		return heap.ErrUnknownObject
	}
	if !entry.ClusterMember() {
		return e.PutTraced(sc, obj)
	}
	root := entry.ClusterRoot()
	span := e.startSpan(sc, "put.cluster")
	if span != nil {
		span.Annotate("root", root.String())
	}
	defer func() {
		span.SetErr(err)
		span.End()
	}()
	e.mu.Lock()
	members := append([]objmodel.OID(nil), e.clusters[root]...)
	e.mu.Unlock()
	if len(members) == 0 {
		return fmt.Errorf("replication: cluster %v has no recorded members", root)
	}
	creq := &ClusterPutRequest{Members: make([]PutRequest, 0, len(members))}
	for _, m := range members {
		me, ok := e.heap.Get(m)
		if !ok {
			return fmt.Errorf("replication: cluster member %v evicted", m)
		}
		req, err := e.buildPutRequest(me)
		if err != nil {
			return err
		}
		creq.Members = append(creq.Members, *req)
	}
	prov := entry.Provider()
	if prov.IsZero() {
		return ErrNoProvider
	}
	res, winner, err := e.callFailover(span, root, prov, BulkTimeout, true, "PutCluster", creq)
	if err != nil {
		return fmt.Errorf("replication: put cluster %v: %w", root, e.failUnavailable("put.cluster", root, span.Context(), err))
	}
	versions, ok := res[0].([]any)
	if !ok || len(versions) != len(members) {
		return fmt.Errorf("replication: put cluster %v: unexpected reply %#v", root, res[0])
	}
	for i, m := range members {
		if me, ok := e.heap.Get(m); ok {
			if winner != prov {
				me.SetProvider(winner, root) // re-pin to the answering leader
			}
			var nv uint64
			if v, ok := versions[i].(uint64); ok {
				me.SetVersion(v)
				nv = v
			}
			me.SetDirty(false)
			if err := e.journalCleanReplica(m, nv); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildPutRequest captures a replica's state plus the frontier entries the
// master needs to rebind references it may not know.
func (e *Engine) buildPutRequest(entry *heap.Entry) (*PutRequest, error) {
	state, err := e.captureEntry(entry)
	if err != nil {
		return nil, err
	}
	req := &PutRequest{
		OID:         uint64(entry.OID),
		BaseVersion: entry.Version(),
		State:       state,
	}
	seen := make(map[objmodel.OID]bool)
	entry.LockState()
	refs := objmodel.RefsOf(entry.Obj)
	entry.UnlockState()
	for _, ref := range refs {
		toid := ref.OID()
		if toid == 0 || seen[toid] {
			continue
		}
		seen[toid] = true
		fr, err := e.frontierFor(ref)
		if err != nil {
			return nil, err
		}
		req.Frontier = append(req.Frontier, fr)
	}
	return req, nil
}

// applyPut applies an inbound update at the master (called by ProxyIn).
// sc parents the "put.apply" span — the serve span of the inbound Put.
func (e *Engine) applyPut(sc telemetry.SpanContext, req *PutRequest) (reply *PutReply, err error) {
	span := e.startSpan(sc, "put.apply")
	if span != nil {
		span.Annotate("oid", objmodel.OID(req.OID).String())
	}
	defer func() {
		span.SetErr(err)
		span.End()
	}()
	if span != nil {
		clk := e.rt.Clock()
		start := clk.Now()
		defer func() { span.Phase(telemetry.PhaseApply, clk.Now().Sub(start)) }()
	}
	entry, ok := e.heap.Get(objmodel.OID(req.OID))
	if !ok {
		return nil, fmt.Errorf("%w: %d", heap.ErrUnknownObject, req.OID)
	}
	// Exactly-once across master restarts: the rmi dedupe table died with
	// the previous life, so a retried put can reach a reborn master as a
	// "new" call. The journaled (base, checksum) pair identifies it; hand
	// back the recorded reply instead of applying twice.
	crc := stateCRC(req.State)
	e.mu.Lock()
	if ap, ok := e.appliedPuts[entry.OID]; ok && ap.base == req.BaseVersion && ap.crc == crc {
		v := ap.version
		e.mu.Unlock()
		e.emit(Event{Kind: EventPutApplied, OID: entry.OID, Version: v})
		return &PutReply{NewVersion: v}, nil
	}
	e.mu.Unlock()
	if err := e.getPolicy().ApplyPut(entry.OID, entry.Version(), req.BaseVersion); err != nil {
		return nil, err
	}
	frontier := make(map[objmodel.OID]FrontierRef, len(req.Frontier))
	for _, fr := range req.Frontier {
		frontier[objmodel.OID(fr.OID)] = fr
	}
	if err := e.restoreEntry(entry, req.State, frontier, DefaultSpec); err != nil {
		return nil, err
	}
	v := entry.BumpVersion()
	e.mu.Lock()
	e.appliedPuts[entry.OID] = appliedPut{base: req.BaseVersion, crc: crc, version: v}
	e.mu.Unlock()
	if span != nil {
		// The journal write is the durability cost of the put: encode +
		// WAL append + group-commit fsync. Billed as the fsync phase so
		// attribution separates "the disk is slow" from apply proper.
		clk := e.rt.Clock()
		jStart := clk.Now()
		if err := e.journalMaster(entry); err != nil {
			return nil, err
		}
		span.Phase(telemetry.PhaseFsync, clk.Now().Sub(jStart))
	} else if err := e.journalMaster(entry); err != nil {
		return nil, err
	}
	e.getPolicy().MasterUpdated(entry.OID, v)
	e.emit(Event{Kind: EventPutApplied, OID: entry.OID, Version: v})
	return &PutReply{NewVersion: v}, nil
}

// Refresh re-fetches a replica's state from its master (the get-refresh
// path of §2.2 step 3). Cluster members refresh their whole cluster.
func (e *Engine) Refresh(obj any) error {
	return e.RefreshTraced(telemetry.SpanContext{}, obj)
}

// RefreshTraced is Refresh under a causal parent.
func (e *Engine) RefreshTraced(sc telemetry.SpanContext, obj any) (err error) {
	entry, ok := e.heap.EntryOf(obj)
	if !ok {
		return heap.ErrUnknownObject
	}
	if entry.Role != heap.Replica {
		return ErrNotReplica
	}
	prov := entry.Provider()
	if prov.IsZero() {
		return ErrNoProvider
	}
	// Runtime clock, not wall clock: see ProxyOut.demand — refresh costs land
	// in the profiler and must replay bit-identically under a virtual clock.
	clk := e.rt.Clock()
	start := clk.Now()
	span := e.startSpan(sc, "refresh")
	if span != nil {
		span.Annotate("oid", entry.OID.String())
	}
	defer func() {
		span.SetErr(err)
		span.End()
	}()
	spec := GetSpec{Mode: Incremental, Batch: 1}
	if entry.ClusterMember() {
		e.mu.Lock()
		spec = GetSpec{Mode: Incremental, Batch: len(e.clusters[entry.ClusterRoot()]), Clustered: true}
		e.mu.Unlock()
	}
	res, _, err := e.callFailover(span, entry.OID, prov, BulkTimeout, true, "Get", &spec, string(e.rt.Addr()))
	if err != nil {
		return fmt.Errorf("replication: refresh %v: %w", entry.OID, e.failUnavailable("refresh", entry.OID, span.Context(), err))
	}
	payload, ok := res[0].(*Payload)
	if !ok {
		return fmt.Errorf("replication: refresh %v: unexpected reply %T", entry.OID, res[0])
	}
	if _, err := e.materialize(span.Context(), payload); err != nil {
		return err
	}
	e.emit(Event{
		Kind: EventReplicaRefreshed, OID: entry.OID, Objects: len(payload.Objects),
		Bytes: payloadBytes(payload), Clustered: payload.Clustered, Elapsed: clk.Now().Sub(start),
	})
	return nil
}

// MarkUpdated records a state change. On masters it bumps the version and
// fires the MasterUpdated hook (driving invalidation-based consistency); on
// replicas it sets the dirty flag for the transaction layer.
func (e *Engine) MarkUpdated(obj any) error {
	entry, ok := e.heap.EntryOf(obj)
	if !ok {
		return heap.ErrUnknownObject
	}
	if entry.Role == heap.Master {
		if g := e.masterGate(); g != nil {
			// Agree the update through the group log so every member's
			// copy (state and version) moves together; the hook fires
			// here, at the proposing member, once.
			v, err := g.RouteBump(entry)
			if err != nil {
				return err
			}
			e.getPolicy().MasterUpdated(entry.OID, v)
			return nil
		}
		v := entry.BumpVersion()
		if err := e.journalMaster(entry); err != nil {
			return err
		}
		e.getPolicy().MasterUpdated(entry.OID, v)
		return nil
	}
	entry.SetDirty(true)
	return e.journalDirtyReplica(entry)
}

// getPolicy returns the current consistency policy.
func (e *Engine) getPolicy() Policy {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.policy
}

// ForgetCluster drops the client-side membership bookkeeping of the
// cluster rooted at root (after its replicas were evicted). Idempotent.
func (e *Engine) ForgetCluster(root objmodel.OID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range e.clusters[root] {
		delete(e.inCluster, m)
	}
	delete(e.clusters, root)
}

// BindLocalRefs binds every unresolved reference of obj against the local
// heap only (no frontier). It is used when state is restored from a local
// snapshot — e.g. a transaction rollback — where every referenced object is
// already present.
func (e *Engine) BindLocalRefs(obj any) error {
	return e.bindRefs(obj, nil, DefaultSpec)
}

// CaptureSnapshot serializes obj's current state (for transaction
// pre-images and checkpoints), holding the heap entry's state lock if obj
// is heap-managed.
func (e *Engine) CaptureSnapshot(obj any) ([]byte, error) {
	if entry, ok := e.heap.EntryOf(obj); ok {
		return e.captureEntry(entry)
	}
	return objmodel.CaptureState(e.reg, obj)
}

// RestoreSnapshot restores obj from a snapshot taken with CaptureSnapshot
// and rebinds its references locally.
func (e *Engine) RestoreSnapshot(obj any, state []byte) error {
	if entry, ok := e.heap.EntryOf(obj); ok {
		return e.restoreEntry(entry, state, nil, DefaultSpec)
	}
	if err := objmodel.RestoreState(e.reg, obj, state); err != nil {
		return err
	}
	return e.BindLocalRefs(obj)
}

// BuildFrontier returns the frontier descriptors for every reference obj
// currently holds — what a peer site needs to rebind those references
// after restoring obj's state (used by update dissemination).
func (e *Engine) BuildFrontier(obj any) ([]FrontierRef, error) {
	var out []FrontierRef
	refs := objmodel.RefsOf(obj)
	if entry, ok := e.heap.EntryOf(obj); ok {
		entry.LockState()
		refs = objmodel.RefsOf(obj)
		entry.UnlockState()
	}
	seen := make(map[objmodel.OID]bool)
	for _, ref := range refs {
		toid := ref.OID()
		if toid == 0 || seen[toid] {
			continue
		}
		seen[toid] = true
		fr, err := e.frontierFor(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, fr)
	}
	return out, nil
}

// RestoreWithFrontier restores obj from state and rebinds its references:
// locally where the targets exist, through fresh proxy-outs built from the
// frontier otherwise.
func (e *Engine) RestoreWithFrontier(obj any, state []byte, frontier []FrontierRef) error {
	fmap := make(map[objmodel.OID]FrontierRef, len(frontier))
	for _, fr := range frontier {
		fmap[objmodel.OID(fr.OID)] = fr
	}
	if entry, ok := e.heap.EntryOf(obj); ok {
		return e.restoreEntry(entry, state, fmap, DefaultSpec)
	}
	if err := objmodel.RestoreState(e.reg, obj, state); err != nil {
		return err
	}
	return e.bindRefs(obj, fmap, DefaultSpec)
}
