// Package rmi implements remote method invocation between OBIWAN sites.
//
// The original OBIWAN prototype sat on top of Java RMI: objects extending
// UnicastRemoteObject were exported, stubs/skeletons were generated by the
// JVM toolchain, and remote references could travel inside call arguments.
// Go has none of this, so this package rebuilds the substrate:
//
//   - a Runtime per site owns a transport listener and a pool of client
//     connections;
//   - Export publishes any Go object: a reflection-based skeleton
//     dispatches inbound calls to its exported methods;
//   - RemoteRef is a serializable handle (site address + object id) that
//     can be passed in arguments and results, exactly like an RMI stub;
//   - Call performs a synchronous request/response with multiplexing, so
//     many concurrent calls share one connection.
//
// Method convention: any exported method whose parameter and result types
// are codec-encodable can be invoked remotely. If the last result is an
// error it is transmitted as a fault and re-surfaces at the caller as a
// *RemoteError (the analogue of a Java remote exception).
package rmi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// ObjID identifies an exported object within one runtime.
type ObjID uint64

// RemoteRef is a location-transparent handle to an exported object. It is
// codec-registered, so it can travel inside RMI arguments and replica
// payloads — this is how proxy-in references reach other sites.
type RemoteRef struct {
	// Addr is the owning runtime's listen address.
	Addr transport.Addr
	// ID is the exported object id at that runtime.
	ID ObjID
	// Iface names the remote interface, for diagnostics and stub checks.
	Iface string
}

// IsZero reports whether r is the zero (absent) reference.
func (r RemoteRef) IsZero() bool { return r.Addr == "" && r.ID == 0 }

func (r RemoteRef) String() string {
	return fmt.Sprintf("rmi://%s/%d(%s)", r.Addr, r.ID, r.Iface)
}

// RemoteError is an error raised by the remote side of a call.
type RemoteError struct {
	// Code is one of the wire.Fault* codes.
	Code string
	// Method is the invoked method name.
	Method string
	// Message is the remote error text.
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rmi: remote %s error in %s: %s", e.Code, e.Method, e.Message)
}

// IsApp reports whether the failure came from the application method itself
// rather than the RMI machinery.
func (e *RemoteError) IsApp() bool { return e.Code == wire.FaultApp }

// ErrTimeout is returned when a call's reply does not arrive in time.
var ErrTimeout = errors.New("rmi: call timed out")

// ErrRuntimeClosed is returned for operations on a closed runtime.
var ErrRuntimeClosed = errors.New("rmi: runtime closed")

func init() {
	codec.MustRegister("obiwan.rmi.RemoteRef", RemoteRef{})
}

// Stats counts runtime activity. Read a snapshot with Runtime.Stats.
type Stats struct {
	CallsSent      uint64
	CallsServed    uint64 // invocations actually executed (duplicates excluded)
	SendErrors     uint64
	RemoteFaults   uint64
	Retries        uint64 // re-attempts made by the retry policy
	DupsSuppressed uint64 // retried calls answered from the dedupe table
	BytesSent      uint64
	BytesReceived  uint64
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithCallTimeout sets the default per-call timeout (default 10s).
func WithCallTimeout(d time.Duration) Option {
	return func(rt *Runtime) { rt.callTimeout = d }
}

// WithRegistry uses a custom codec registry instead of the process default.
func WithRegistry(reg *codec.Registry) Option {
	return func(rt *Runtime) { rt.reg = reg }
}

// WithObserver installs a callback invoked after every outbound call with
// its round-trip time; the QoS monitor uses this to estimate link quality.
func WithObserver(fn func(addr transport.Addr, method string, rtt time.Duration, err error)) Option {
	return func(rt *Runtime) { rt.observer = fn }
}

// WithRetryPolicy sets the runtime's retry policy for outbound calls
// (default DefaultRetryPolicy; use NoRetry to fail fast).
func WithRetryPolicy(p RetryPolicy) Option {
	return func(rt *Runtime) { rt.retry = p.normalized() }
}

// WithTelemetry attaches a telemetry hub: outbound and inbound calls are
// traced (the wire trace context in Call frames parents server-side serve
// spans under the client's call span) and the rmi.* metrics are recorded.
// A nil hub — the default — keeps the hot path at a single nil check per
// instrument: all spans and counters degrade to no-ops.
func WithTelemetry(h *telemetry.Hub) Option {
	return func(rt *Runtime) { rt.tel = h }
}

// WithIncarnation pins the runtime's client identity to a durable
// incarnation number (site.WithDurability persists one per WAL directory
// and bumps it on every rebirth). Durable identities live in their own
// namespace, so a reborn site never collides with the process-global
// counter used by ephemeral runtimes — peer dedupe tables can therefore
// never confuse a new life's call ids with its previous one's.
func WithIncarnation(n uint64) Option {
	return func(rt *Runtime) { rt.durableInc = n }
}

// Runtime is one site's RMI endpoint: server (exported objects) and client
// (outbound calls) in one. Runtimes are safe for concurrent use.
type Runtime struct {
	network     transport.Network
	clock       netsim.Clock // inherited from the network (netsim.ClockProvider)
	serial      bool         // virtual clock: dispatch inbound calls inline (see serveConn)
	local       transport.Addr
	reg         *codec.Registry
	callTimeout time.Duration
	observer    func(transport.Addr, string, time.Duration, error)
	retry       RetryPolicy
	clientID    string // this incarnation's identity in Call frames
	durableInc  uint64 // persisted incarnation (0: use the process counter)
	dedupe      *dedupeTable
	tel         *telemetry.Hub
	flight      *telemetry.FlightRecorder // nil no-op when tel is nil

	// Telemetry instruments, resolved once at construction. All nil (and
	// therefore no-ops) when telemetry is disabled, so instrumented paths
	// never pay a registry lookup.
	met struct {
		calls        *telemetry.Counter
		served       *telemetry.Counter
		retries      *telemetry.Counter
		dedupeHits   *telemetry.Counter
		sendErrors   *telemetry.Counter
		remoteFaults *telemetry.Counter
		reconnects   *telemetry.Counter
		bytesSent    *telemetry.Counter
		bytesRecv    *telemetry.Counter
		latency      *telemetry.Histogram
	}

	ln      transport.Listener
	closed  chan struct{}
	wg      *netsim.WaitGroup // clock-aware: Close can wait under a virtual clock
	workers serveWorkers      // parked dispatch goroutines (real clock only)

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter

	mu          sync.Mutex
	exports     map[ObjID]*skeleton
	conns       map[transport.Addr]*clientConn
	serverConns map[transport.Conn]struct{}
	nextID      uint64
	nextSeq     uint64 // call ids

	stats struct {
		callsSent      atomic.Uint64
		callsServed    atomic.Uint64
		sendErrors     atomic.Uint64
		remoteFaults   atomic.Uint64
		retries        atomic.Uint64
		dupsSuppressed atomic.Uint64
		bytesSent      atomic.Uint64
		bytesRecv      atomic.Uint64
	}
}

// runtimeIncarnations distinguishes runtimes sharing an address across
// restarts, so a replacement server never confuses a fresh call id space
// with its predecessor's in peer dedupe tables.
var runtimeIncarnations atomic.Uint64

// NewRuntime binds a runtime at local on network and starts serving. When
// the network carries a simulation clock (netsim.ClockProvider — the
// in-memory transport does), the runtime inherits it: retry backoff, call
// deadlines, and every internal goroutine then live on the network's
// timeline, virtual or real, with no extra configuration.
func NewRuntime(network transport.Network, local transport.Addr, opts ...Option) (*Runtime, error) {
	incarnation := runtimeIncarnations.Add(1)
	clock := netsim.Real()
	if cp, ok := network.(netsim.ClockProvider); ok {
		clock = cp.Clock()
	}
	_, serial := clock.(*netsim.VirtualClock)
	rt := &Runtime{
		network:     network,
		clock:       clock,
		serial:      serial,
		local:       local,
		reg:         codec.DefaultRegistry(),
		callTimeout: 10 * time.Second,
		retry:       DefaultRetryPolicy().normalized(),
		dedupe:      newDedupeTable(clock),
		closed:      make(chan struct{}),
		wg:          netsim.NewWaitGroup(clock),
		rng:         rand.New(rand.NewSource(int64(incarnation))),
		exports:     make(map[ObjID]*skeleton),
		conns:       make(map[transport.Addr]*clientConn),
		serverConns: make(map[transport.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(rt)
	}
	rt.flight = rt.tel.Flight()
	if m := rt.tel.Metrics(); m != nil {
		rt.met.calls = m.Counter("rmi.calls")
		rt.met.served = m.Counter("rmi.calls.served")
		rt.met.retries = m.Counter("rmi.retries")
		rt.met.dedupeHits = m.Counter("rmi.dedupe.hits")
		rt.met.sendErrors = m.Counter("rmi.send.errors")
		rt.met.remoteFaults = m.Counter("rmi.remote.faults")
		rt.met.reconnects = m.Counter("rmi.reconnects")
		rt.met.bytesSent = m.Counter("rmi.bytes.sent")
		rt.met.bytesRecv = m.Counter("rmi.bytes.recv")
		rt.met.latency = m.Histogram("rmi.call.latency_ns")
	}
	ln, err := network.Listen(local)
	if err != nil {
		return nil, fmt.Errorf("rmi: bind %q: %w", local, err)
	}
	rt.ln = ln
	rt.local = ln.Addr() // TCP ":0" resolves to the chosen port
	if rt.durableInc != 0 {
		rt.clientID = fmt.Sprintf("%s#d%d", rt.local, rt.durableInc)
	} else {
		rt.clientID = fmt.Sprintf("%s#%d", rt.local, incarnation)
	}
	rt.wg.Add(1)
	rt.clock.Go(rt.acceptLoop)
	return rt, nil
}

// Clock returns the runtime's time source. Components built over the
// runtime (prefetchers, schedulers) must start their background goroutines
// with it so virtual-clock quiescence accounting stays sound.
func (rt *Runtime) Clock() netsim.Clock { return rt.clock }

// Addr returns the runtime's listen address.
func (rt *Runtime) Addr() transport.Addr { return rt.local }

// Registry returns the codec registry used for marshalling.
func (rt *Runtime) Registry() *codec.Registry { return rt.reg }

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		CallsSent:      rt.stats.callsSent.Load(),
		CallsServed:    rt.stats.callsServed.Load(),
		SendErrors:     rt.stats.sendErrors.Load(),
		RemoteFaults:   rt.stats.remoteFaults.Load(),
		Retries:        rt.stats.retries.Load(),
		DupsSuppressed: rt.stats.dupsSuppressed.Load(),
		BytesSent:      rt.stats.bytesSent.Load(),
		BytesReceived:  rt.stats.bytesRecv.Load(),
	}
}

// RetryPolicy returns the runtime's (normalized) retry policy.
func (rt *Runtime) RetryPolicy() RetryPolicy { return rt.retry }

// Telemetry returns the runtime's hub (nil when telemetry is disabled).
func (rt *Runtime) Telemetry() *telemetry.Hub { return rt.tel }

// Export publishes obj for remote invocation and returns its reference.
// iface is a symbolic interface name carried in the reference.
func (rt *Runtime) Export(obj any, iface string) (RemoteRef, error) {
	sk, err := newSkeleton(obj)
	if err != nil {
		return RemoteRef{}, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	select {
	case <-rt.closed:
		return RemoteRef{}, ErrRuntimeClosed
	default:
	}
	rt.nextID++
	id := ObjID(rt.nextID)
	rt.exports[id] = sk
	return RemoteRef{Addr: rt.local, ID: id, Iface: iface}, nil
}

// ExportWithID publishes obj at a fixed object id — the durable-recovery
// path: a restarted site must re-export its proxy-ins at the exact ids
// its previous incarnation handed out, or every provider reference held
// by remote replicas would dangle. The id must be nonzero and free; the
// allocator advances past it so later Exports mint fresh ids.
func (rt *Runtime) ExportWithID(id ObjID, obj any, iface string) (RemoteRef, error) {
	if id == 0 {
		return RemoteRef{}, fmt.Errorf("rmi: export at id 0")
	}
	sk, err := newSkeleton(obj)
	if err != nil {
		return RemoteRef{}, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	select {
	case <-rt.closed:
		return RemoteRef{}, ErrRuntimeClosed
	default:
	}
	if _, taken := rt.exports[id]; taken {
		return RemoteRef{}, fmt.Errorf("rmi: object id %d already exported", id)
	}
	rt.exports[id] = sk
	if uint64(id) > rt.nextID {
		rt.nextID = uint64(id)
	}
	return RemoteRef{Addr: rt.local, ID: id, Iface: iface}, nil
}

// ClientID returns the identity this runtime stamps on outbound calls
// (address + incarnation) — what peer dedupe tables key retries by.
func (rt *Runtime) ClientID() string { return rt.clientID }

// Unexport withdraws an exported object. Subsequent calls to it fault with
// wire.FaultNoSuchObject. Unexporting an unknown id is a no-op.
func (rt *Runtime) Unexport(id ObjID) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.exports, id)
}

// ExportCount returns the number of currently exported objects (used by the
// platform GC accounting and by tests).
func (rt *Runtime) ExportCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.exports)
}

// lookupExport fetches a skeleton by id.
func (rt *Runtime) lookupExport(id ObjID) (*skeleton, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sk, ok := rt.exports[id]
	return sk, ok
}

// Close shuts the runtime down: the listener stops, server connections
// close, and pending outbound calls fail.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	select {
	case <-rt.closed:
		rt.mu.Unlock()
		return nil
	default:
	}
	close(rt.closed)
	conns := make([]*clientConn, 0, len(rt.conns))
	for _, c := range rt.conns {
		conns = append(conns, c)
	}
	rt.conns = make(map[transport.Addr]*clientConn)
	inbound := make([]transport.Conn, 0, len(rt.serverConns))
	for c := range rt.serverConns {
		inbound = append(inbound, c)
	}
	rt.mu.Unlock()

	rt.workers.close()
	_ = rt.ln.Close()
	for _, c := range conns {
		c.shutdown(ErrRuntimeClosed)
	}
	for _, c := range inbound {
		_ = c.Close()
	}
	rt.wg.Wait()
	return nil
}

// acceptLoop serves inbound connections until the listener closes.
func (rt *Runtime) acceptLoop() {
	defer rt.wg.Done()
	for {
		conn, err := rt.ln.Accept()
		if err != nil {
			return
		}
		rt.wg.Add(1)
		rt.clock.Go(func() { rt.serveConn(conn) })
	}
}

// serveConn reads call frames from one inbound connection and dispatches
// each on its own goroutine, like RMI's per-call threads (see runServe).
func (rt *Runtime) serveConn(conn transport.Conn) {
	defer rt.wg.Done()
	defer conn.Close()
	rt.mu.Lock()
	rt.serverConns[conn] = struct{}{}
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		delete(rt.serverConns, conn)
		rt.mu.Unlock()
	}()
	var sendMu sync.Mutex // replies from concurrent handlers serialize here
	handlers := netsim.NewWaitGroup(rt.clock)
	defer handlers.Wait()
	// The first frame must be the protocol preamble with a matching
	// version; anything else is a foreign or incompatible peer.
	frame, err := conn.Recv()
	if err != nil {
		return
	}
	rt.stats.bytesRecv.Add(uint64(len(frame)))
	rt.met.bytesRecv.Add(uint64(len(frame)))
	msg, err := wire.Decode(rt.reg, frame)
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok || hello.Version != wire.ProtocolVersion {
		return
	}
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		rt.stats.bytesRecv.Add(uint64(len(frame)))
		rt.met.bytesRecv.Add(uint64(len(frame)))
		msg, err := wire.Decode(rt.reg, frame)
		if err != nil {
			// Undecodable frame: drop the connection; the peer will redial.
			return
		}
		call, ok := msg.(*wire.Call)
		if !ok {
			continue // replies/faults are client-side frames; ignore
		}
		var recvAt time.Time
		if rt.tel.Enabled() {
			recvAt = rt.clock.Now() // queue-phase epoch: frame receipt
		}
		serve := func() {
			reply := rt.dispatchOnce(call, recvAt)
			sendMu.Lock()
			defer sendMu.Unlock()
			select {
			case <-rt.closed:
				return
			default:
			}
			if err := conn.Send(reply); err != nil {
				rt.stats.sendErrors.Add(1)
				rt.met.sendErrors.Inc()
			} else {
				rt.stats.bytesSent.Add(uint64(len(reply)))
				rt.met.bytesSent.Add(uint64(len(reply)))
			}
		}
		if rt.serial {
			// Virtual clock: the simulation runs one goroutine at a time, so
			// a per-call goroutine buys no parallelism — only an extra event
			// cycle and a stack per call, which dominates thousand-site runs.
			// Frame order already serializes calls on a connection; calls
			// from different connections still interleave via the scheduler.
			serve()
			continue
		}
		handlers.Add(1)
		rt.runServe(func() {
			defer handlers.Done()
			serve()
		})
	}
}

// maxIdleServeWorkers bounds how many dispatch workers a runtime keeps
// parked between calls. It bounds idle goroutines only: busy workers are
// unbounded.
const maxIdleServeWorkers = 16

// serveWorkers is the runtime's set of parked dispatch goroutines. Each
// idle worker waits on its own one-slot channel for the next call.
type serveWorkers struct {
	mu     sync.Mutex
	idle   []chan func() // LIFO: the most recently used stack is the warmest
	closed bool
}

// runServe runs one served call on a parked worker, whose stack has
// already grown through reflective dispatch, and starts a new worker only
// when none is idle. Concurrency therefore stays unbounded, as with RMI's
// per-call threads: a handler blocked in a nested call back into this
// runtime never starves the call it is waiting for.
func (rt *Runtime) runServe(task func()) {
	w := &rt.workers
	w.mu.Lock()
	if n := len(w.idle); n > 0 {
		ch := w.idle[n-1]
		w.idle = w.idle[:n-1]
		w.mu.Unlock()
		ch <- task // never blocks: the slot is empty while a worker is parked
		return
	}
	w.mu.Unlock()
	rt.wg.Add(1)
	rt.clock.Go(func() { rt.serveWorker(task) })
}

// serveWorker runs task, then parks for the next one until the runtime
// closes or the idle set is full.
func (rt *Runtime) serveWorker(task func()) {
	defer rt.wg.Done()
	var next chan func()
	for task != nil {
		task()
		if next == nil {
			next = make(chan func(), 1)
		}
		if !rt.workers.park(next) {
			return
		}
		task = <-next // nil once close releases the worker
	}
}

// park offers an idle worker's channel for reuse; false tells the worker
// to exit.
func (w *serveWorkers) park(next chan func()) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || len(w.idle) >= maxIdleServeWorkers {
		return false
	}
	w.idle = append(w.idle, next)
	return true
}

// close releases every parked worker and makes busy ones exit once their
// call returns. Calls still arriving get a worker of their own.
func (w *serveWorkers) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	for _, next := range w.idle {
		close(next)
	}
	w.idle = nil
}

// dispatchOnce runs one inbound call at most once: a (Client, ID) pair
// already in the dedupe table — a retry of a call whose reply was lost, or
// whose first arrival is still executing — is answered from the recorded
// response frame instead of re-invoking the method. Calls without a client
// identity bypass suppression.
func (rt *Runtime) dispatchOnce(call *wire.Call, recvAt time.Time) []byte {
	if call.Client == "" {
		return rt.dispatch(call, recvAt)
	}
	e, dup := rt.dedupe.begin(call.Client, call.ID)
	if dup {
		// Answered from the dedupe table: no serve span is minted, so a
		// retried call contributes exactly one server-side span per logical
		// invocation no matter how many frames arrived. The wait is a
		// clock-aware latch: under a virtual clock the duplicate counts as
		// idle while the first execution runs.
		frame := e.await()
		rt.stats.dupsSuppressed.Add(1)
		rt.met.dedupeHits.Inc()
		return frame
	}
	frame := rt.dispatch(call, recvAt)
	e.complete(frame)
	return frame
}

// dispatch runs one inbound call and encodes its response frame. When the
// call carries a trace context and telemetry is on, the invocation runs
// under a serve span parented to the caller's span; its context is also
// offered to the target method (see skeleton.invoke), which is how causal
// chains cross the wire and keep growing on the server side. The serve
// span self-attributes its time: queue (frame receipt to dispatch — zero
// under the virtual clock's inline serve path) and serve (the invocation
// itself).
func (rt *Runtime) dispatch(call *wire.Call, recvAt time.Time) []byte {
	rt.stats.callsServed.Add(1)
	rt.met.served.Inc()
	var serveSC telemetry.SpanContext
	var sp *telemetry.Span
	inbound := telemetry.SpanContext{TraceID: call.TraceID, SpanID: call.SpanID}
	if rt.tel.Enabled() && inbound.Valid() {
		sp = rt.tel.StartSpan(inbound, "serve:"+call.Method)
		serveSC = sp.Context()
		if !recvAt.IsZero() {
			sp.Phase(telemetry.PhaseQueue, rt.clock.Now().Sub(recvAt))
		}
	}
	var serveStart time.Time
	if sp != nil {
		serveStart = rt.clock.Now()
	}
	frame, fault := rt.dispatchInvoke(call, serveSC)
	if sp != nil {
		sp.Phase(telemetry.PhaseServe, rt.clock.Now().Sub(serveStart))
	}
	if fault != nil {
		sp.Annotate("fault", fault.Code)
		sp.SetErr(errors.New(fault.Message))
	}
	sp.End()
	return frame
}

// dispatchInvoke performs the lookup/invoke/encode portion of dispatch and
// reports the fault (if any) alongside the encoded response frame.
func (rt *Runtime) dispatchInvoke(call *wire.Call, serveSC telemetry.SpanContext) ([]byte, *wire.Fault) {
	sk, ok := rt.lookupExport(ObjID(call.Target))
	if !ok {
		f := &wire.Fault{
			ID: call.ID, Code: wire.FaultNoSuchObject,
			Message: fmt.Sprintf("object %d is not exported", call.Target),
		}
		return wire.EncodeFault(f), f
	}
	results, fault := sk.invoke(call.Method, call.Args, serveSC)
	if fault != nil {
		fault.ID = call.ID
		return wire.EncodeFault(fault), fault
	}
	frame, err := wire.EncodeReply(rt.reg, &wire.Reply{ID: call.ID, Results: results})
	if err != nil {
		f := &wire.Fault{ID: call.ID, Code: wire.FaultEncode, Message: err.Error()}
		return wire.EncodeFault(f), f
	}
	return frame, nil
}
