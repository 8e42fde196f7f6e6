package replication

import (
	"fmt"

	"obiwan/internal/heap"
	"obiwan/internal/invoke"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
)

// ProxyIn is the master-side half of a proxy pair: an RMI-exported object
// standing for one master object (or, in clustered mode, a cluster rooted
// at it). It implements the paper's IProvideRemote interface — get and put
// invoked remotely — plus Invoke, the path that lets a reference holder
// call the master directly over RMI instead of replicating.
type ProxyIn struct {
	eng   *Engine
	entry *heap.Entry
}

// Get assembles and returns the replica payload for this object per spec.
// requester identifies the demanding site for consistency bookkeeping.
// The leading SpanContext is never sent by callers: the RMI skeleton
// injects the serve span's context there (zero when the call was
// untraced), which parents the assembly under the demanding site's fault.
func (p *ProxyIn) Get(sc telemetry.SpanContext, spec *GetSpec, requester string) (*Payload, error) {
	if err := p.eng.gateServe(p.entry); err != nil {
		return nil, err
	}
	if spec == nil {
		s := DefaultSpec
		spec = &s
	}
	payload, err := p.eng.assemble(sc, p.entry, *spec, requester)
	if err != nil {
		return nil, fmt.Errorf("proxy-in %v: %w", p.entry.OID, err)
	}
	return payload, nil
}

// Put applies a replica's state to the master object. The SpanContext is
// skeleton-injected (see Get).
func (p *ProxyIn) Put(sc telemetry.SpanContext, req *PutRequest) (*PutReply, error) {
	if req == nil {
		return nil, fmt.Errorf("proxy-in %v: nil put request", p.entry.OID)
	}
	if objmodel.OID(req.OID) != p.entry.OID {
		return nil, fmt.Errorf("proxy-in %v: put addressed to %d", p.entry.OID, req.OID)
	}
	if g := p.eng.masterGate(); g != nil && p.entry.Role == heap.Master {
		return g.RoutePut(sc, req)
	}
	return p.eng.applyPut(sc, req)
}

// PutCluster applies a whole-cluster update. Members must belong to the
// cluster this proxy-in serves (they were shipped through it). The reply is
// the new version of each member, in request order. The SpanContext is
// skeleton-injected (see Get).
func (p *ProxyIn) PutCluster(sc telemetry.SpanContext, req *ClusterPutRequest) ([]any, error) {
	if req == nil || len(req.Members) == 0 {
		return nil, fmt.Errorf("proxy-in %v: empty cluster put", p.entry.OID)
	}
	gate := p.eng.masterGate()
	gated := gate != nil && p.entry.Role == heap.Master
	versions := make([]any, 0, len(req.Members))
	for i := range req.Members {
		var reply *PutReply
		var err error
		if gated {
			reply, err = gate.RoutePut(sc, &req.Members[i])
		} else {
			reply, err = p.eng.applyPut(sc, &req.Members[i])
		}
		if err != nil {
			return nil, fmt.Errorf("cluster member %d (oid %v): %w", i, objmodel.OID(req.Members[i].OID), err)
		}
		versions = append(versions, reply.NewVersion)
	}
	return versions, nil
}

// Invoke runs a method on the master object — the RMI invocation mode. The
// mutation state of the master is the application's concern, exactly as in
// the paper. On a grouped site only the leaseholder serves invokes: a
// follower's copy may trail the agreed log.
func (p *ProxyIn) Invoke(method string, args []any) ([]any, error) {
	if err := p.eng.gateServe(p.entry); err != nil {
		return nil, err
	}
	return invoke.Call(p.entry.Obj, method, args)
}

// Version returns the master object's current version, letting replicas
// check staleness cheaply.
func (p *ProxyIn) Version() uint64 {
	return p.entry.Version()
}

// ProxyOut is the client-side half of a proxy pair: it stands in for a not
// yet replicated object. A method invocation through a Ref backed by a
// ProxyOut is an object fault; ResolveFault performs the paper's demand
// protocol and the Ref splices the fresh replica in (updateMember), after
// which the ProxyOut is garbage.
type ProxyOut struct {
	eng      *Engine
	oid      objmodel.OID
	provider rmi.RemoteRef
	spec     GetSpec
}

var (
	_ objmodel.Faulter       = (*ProxyOut)(nil)
	_ objmodel.RemoteInvoker = (*ProxyOut)(nil)
	_ objmodel.AutoDecider   = (*ProxyOut)(nil)
)

// newProxyOut creates and accounts a proxy-out.
func (e *Engine) newProxyOut(oid objmodel.OID, provider rmi.RemoteRef, spec GetSpec) *ProxyOut {
	e.gc.ProxyOutCreated()
	return &ProxyOut{eng: e, oid: oid, provider: provider, spec: spec}
}

// Provider returns the proxy-in this proxy-out demands from.
func (p *ProxyOut) Provider() rmi.RemoteRef { return p.provider }

// OID returns the identity of the object this proxy-out stands for.
func (p *ProxyOut) OID() objmodel.OID { return p.oid }

// ResolveFault implements objmodel.Faulter: it satisfies the fault from the
// local heap when possible, otherwise demands the target (and its
// batch/cluster) from the provider.
func (p *ProxyOut) ResolveFault() (any, objmodel.RemoteInvoker, error) {
	local, remote, err := p.demand(telemetry.SpanContext{}, p.spec)
	if err != nil {
		return nil, nil, err
	}
	// The Ref will splice us out; we are garbage after this return.
	p.eng.gc.ProxyOutReclaimed()
	return local, remote, nil
}

// demand fetches the target with an explicit spec. sc parents the "fault"
// span — invalid sc roots a new trace (an implicit object fault is a
// causal origin), while ReplicateTraced passes the caller's context so
// programmatic demands nest under application spans.
func (p *ProxyOut) demand(sc telemetry.SpanContext, spec GetSpec) (obj any, inv objmodel.RemoteInvoker, err error) {
	// Elapsed rides the runtime's clock, not the wall clock: under a virtual
	// clock the measured fault cost must be a pure function of the simulation
	// (profiler snapshots travel on federation scrape replies, so a wall
	// duration would perturb frame sizes and break replay determinism).
	clk := p.eng.rt.Clock()
	start := clk.Now()
	span := p.eng.startSpan(sc, "fault")
	if span != nil {
		span.Annotate("oid", p.oid.String())
	}
	defer func() {
		span.SetErr(err)
		span.End()
	}()
	// Fast path: the object is already replicated at this site (it arrived
	// in someone else's batch). Identity dedupe binds to the same replica.
	if p.oid != 0 {
		if entry, ok := p.eng.heap.Get(p.oid); ok {
			p.eng.gc.FaultServedFromHeap()
			span.Annotate("from_heap", "true")
			p.eng.emit(Event{Kind: EventFaultResolved, OID: p.oid, FromHeap: true, Elapsed: clk.Now().Sub(start)})
			return entry.Obj, p.remoteForEntry(entry), nil
		}
	}
	res, winner, err := p.eng.callFailover(span, p.oid, p.provider, BulkTimeout, true, "Get", &spec, string(p.eng.rt.Addr()))
	if err != nil {
		return nil, nil, fmt.Errorf("demand %v from %v: %w", p.oid, p.provider, p.eng.failUnavailable("demand", p.oid, span.Context(), err))
	}
	payload, ok := res[0].(*Payload)
	if !ok {
		return nil, nil, fmt.Errorf("demand %v: unexpected reply %T", p.oid, res[0])
	}
	root, err := p.eng.materialize(span.Context(), payload)
	if err != nil {
		return nil, nil, err
	}
	p.eng.emit(Event{
		Kind: EventFaultResolved, OID: p.oid, Objects: len(payload.Objects),
		Bytes: payloadBytes(payload), Clustered: payload.Clustered, Elapsed: clk.Now().Sub(start),
	})
	return root, &remoteInvoker{eng: p.eng, provider: winner, oid: p.oid}, nil
}

// remoteForEntry builds the master-directed invoker for an entry, if it has
// a provider.
func (p *ProxyOut) remoteForEntry(e *heap.Entry) objmodel.RemoteInvoker {
	if prov := e.Provider(); !prov.IsZero() {
		return &remoteInvoker{eng: p.eng, provider: prov, oid: p.oid}
	}
	return &remoteInvoker{eng: p.eng, provider: p.provider, oid: p.oid}
}

// RemoteInvoke implements objmodel.RemoteInvoker: it calls the master
// through the proxy-in without replicating. Leader redirects are followed
// (a not-leader refusal guarantees the invoke did not run), but transient
// failures are NOT re-routed: an invoke is not idempotent.
func (p *ProxyOut) RemoteInvoke(method string, args []any) ([]any, error) {
	res, _, err := p.eng.callFailover(nil, p.oid, p.provider, p.eng.rt.DefaultCallTimeout(), false, "Invoke", method, args)
	if err != nil {
		return nil, p.eng.failUnavailable("invoke", p.oid, telemetry.SpanContext{}, err)
	}
	if len(res) == 0 || res[0] == nil {
		return nil, nil
	}
	out, ok := res[0].([]any)
	if !ok {
		return nil, fmt.Errorf("remote invoke %s: unexpected reply %T", method, res[0])
	}
	return out, nil
}

// PreferLocal implements objmodel.AutoDecider by delegating to the
// engine's crossover model (default: replicate immediately).
func (p *ProxyOut) PreferLocal(calls uint64) bool {
	if c := p.eng.getCrossover(); c != nil {
		return c(p.provider.Addr, p.oid, calls)
	}
	return true
}

// remoteInvoker is the lightweight master-directed invoker a Ref keeps
// after resolution, so ModeRemote keeps working once the ProxyOut is gone.
// It carries the target's identity so RMI failures are attributable in
// the flight recorder.
type remoteInvoker struct {
	eng      *Engine
	provider rmi.RemoteRef
	oid      objmodel.OID
}

var _ objmodel.RemoteInvoker = (*remoteInvoker)(nil)

func (ri *remoteInvoker) RemoteInvoke(method string, args []any) ([]any, error) {
	res, _, err := ri.eng.callFailover(nil, ri.oid, ri.provider, ri.eng.rt.DefaultCallTimeout(), false, "Invoke", method, args)
	if err != nil {
		return nil, ri.eng.failUnavailable("invoke", ri.oid, telemetry.SpanContext{}, err)
	}
	if len(res) == 0 || res[0] == nil {
		return nil, nil
	}
	out, ok := res[0].([]any)
	if !ok {
		return nil, fmt.Errorf("remote invoke %s: unexpected reply %T", method, res[0])
	}
	return out, nil
}
