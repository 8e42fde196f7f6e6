package rmi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/netsim"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// calculator is a test service exercising the dispatch conventions.
type calculator struct {
	mu    sync.Mutex
	total int64
}

func (c *calculator) Add(a, b int64) int64 { return a + b }

func (c *calculator) Accumulate(v int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total += v
}

func (c *calculator) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

func (c *calculator) Div(a, b int64) (int64, error) {
	if b == 0 {
		return 0, errors.New("division by zero")
	}
	return a / b, nil
}

func (c *calculator) Sum(vs ...int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}

func (c *calculator) Narrow(v int8) int8 { return v }

func (c *calculator) Echo(s string, b []byte) (string, []byte) { return s, b }

func (c *calculator) Slow(d int64) string {
	time.Sleep(time.Duration(d) * time.Millisecond)
	return "done"
}

// pair tests struct arguments.
type pair struct {
	A, B int64
}

func (c *calculator) Swap(p *pair) *pair { return &pair{A: p.B, B: p.A} }

func init() {
	codec.MustRegister("rmi_test.pair", pair{})
}

// newPair builds two connected runtimes over a loopback mem network.
func newPair(t *testing.T) (server, client *Runtime, net *transport.MemNetwork) {
	t.Helper()
	net = transport.NewMemNetwork(netsim.Loopback)
	var err error
	server, err = NewRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	client, err = NewRuntime(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return server, client, net
}

func TestBasicCall(t *testing.T) {
	server, client, _ := newPair(t)
	ref, err := server.Export(&calculator{}, "Calculator")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iface != "Calculator" || ref.Addr != "server" {
		t.Fatalf("ref: %v", ref)
	}
	res, err := client.Call(ref, "Add", int64(2), int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != int64(5) {
		t.Fatalf("results: %#v", res)
	}
}

func TestVoidAndStatefulCall(t *testing.T) {
	server, client, _ := newPair(t)
	calc := &calculator{}
	ref, _ := server.Export(calc, "Calculator")
	for i := int64(1); i <= 4; i++ {
		if _, err := client.Call(ref, "Accumulate", i); err != nil {
			t.Fatal(err)
		}
	}
	res, err := client.Call(ref, "Total")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != int64(10) {
		t.Fatalf("total: %#v", res)
	}
}

func TestAppErrorBecomesRemoteError(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	_, err := client.Call(ref, "Div", int64(1), int64(0))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if !re.IsApp() || re.Message != "division by zero" {
		t.Fatalf("remote error: %+v", re)
	}
	// The success path strips the nil error.
	res, err := client.Call(ref, "Div", int64(6), int64(2))
	if err != nil || len(res) != 1 || res[0] != int64(3) {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestNoSuchMethodAndObject(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")

	_, err := client.Call(ref, "Nope")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.FaultNoSuchMethod {
		t.Fatalf("want no-such-method, got %v", err)
	}

	bogus := RemoteRef{Addr: "server", ID: 9999, Iface: "X"}
	_, err = client.Call(bogus, "Add", int64(1), int64(2))
	if !errors.As(err, &re) || re.Code != wire.FaultNoSuchObject {
		t.Fatalf("want no-such-object, got %v", err)
	}
}

func TestBadArgs(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	var re *RemoteError

	_, err := client.Call(ref, "Add", int64(1)) // too few
	if !errors.As(err, &re) || re.Code != wire.FaultBadArgs {
		t.Fatalf("arity: %v", err)
	}
	_, err = client.Call(ref, "Add", "one", "two") // wrong types
	if !errors.As(err, &re) || re.Code != wire.FaultBadArgs {
		t.Fatalf("types: %v", err)
	}
	_, err = client.Call(ref, "Narrow", int64(300)) // overflows int8
	if !errors.As(err, &re) || re.Code != wire.FaultBadArgs {
		t.Fatalf("overflow: %v", err)
	}
}

func TestNumericConversion(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	res, err := client.Call(ref, "Narrow", int64(-5))
	if err != nil {
		t.Fatal(err)
	}
	// The server narrows to int8; the wire normalizes integers back to int64.
	if res[0] != int64(-5) {
		t.Fatalf("narrow: %#v", res[0])
	}
}

func TestVariadic(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	res, err := client.Call(ref, "Sum", int64(1), int64(2), int64(3))
	if err != nil || res[0] != int64(6) {
		t.Fatalf("sum: %v %v", res, err)
	}
	res, err = client.Call(ref, "Sum") // zero variadic args
	if err != nil || res[0] != int64(0) {
		t.Fatalf("empty sum: %v %v", res, err)
	}
}

func TestStructArgsAndResults(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	res, err := client.Call(ref, "Swap", &pair{A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res[0].(*pair)
	if !ok || p.A != 2 || p.B != 1 {
		t.Fatalf("swap: %#v", res[0])
	}
}

func TestStringsAndBytes(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	res, err := client.Call(ref, "Echo", "hi", []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "hi" || string(res[1].([]byte)) != "\x01\x02" {
		t.Fatalf("echo: %#v", res)
	}
}

func TestRemoteRefTravelsInArgs(t *testing.T) {
	// A reference exported at one site is passed through another and used.
	server, client, _ := newPair(t)
	calc := &calculator{}
	calcRef, _ := server.Export(calc, "Calculator")

	// relay returns whatever ref it was given.
	relay := &refRelay{}
	relayRef, _ := server.Export(relay, "Relay")
	res, err := client.Call(relayRef, "Bounce", calcRef)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := res[0].(*RemoteRef)
	if !ok {
		t.Fatalf("bounced ref: %#v", res[0])
	}
	res, err = client.Call(*back, "Add", int64(20), int64(22))
	if err != nil || res[0] != int64(42) {
		t.Fatalf("call through bounced ref: %v %v", res, err)
	}
}

type refRelay struct{}

func (r *refRelay) Bounce(ref RemoteRef) RemoteRef { return ref }

func TestConcurrentCallsMultiplex(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			res, err := client.Call(ref, "Add", i, i)
			if err != nil {
				errs <- err
				return
			}
			if res[0] != 2*i {
				errs <- fmt.Errorf("got %v want %d", res[0], 2*i)
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All calls shared one connection: exactly one dial happened.
	if got := len(client.conns); got != 1 {
		t.Fatalf("connection pool size %d, want 1", got)
	}
}

// bouncer relays Bounce to its peer until depth runs out. The innermost
// call waits until every chain has reached its innermost level, so every
// handler of every chain is blocked in flight at the same moment.
type bouncer struct {
	rt      *Runtime
	peer    RemoteRef
	arrived *sync.WaitGroup
}

func (b *bouncer) Bounce(depth int64) (int64, error) {
	if depth == 0 {
		b.arrived.Done()
		b.arrived.Wait()
		return 0, nil
	}
	res, err := b.rt.Call(b.peer, "Bounce", depth-1)
	if err != nil {
		return 0, err
	}
	return res[0].(int64) + 1, nil
}

// TestReentrantCallsBeyondIdleWorkers runs A→B→A→B call chains over the
// two runtimes' shared connections, with more handlers blocked in nested
// calls than the runtime keeps idle dispatch workers. Every chain must
// complete, no more workers than the cap may stay parked, and Close must
// release them all.
func TestReentrantCallsBeyondIdleWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	net := transport.NewMemNetwork(netsim.Loopback)
	a, err := NewRuntime(net, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRuntime(net, "b")
	if err != nil {
		t.Fatal(err)
	}
	const chains, depth = 3 * maxIdleServeWorkers, 3
	var arrived sync.WaitGroup
	arrived.Add(chains)
	ba := &bouncer{rt: a, arrived: &arrived}
	bb := &bouncer{rt: b, arrived: &arrived}
	refA, _ := a.Export(ba, "Bouncer")
	refB, _ := b.Export(bb, "Bouncer")
	ba.peer, bb.peer = refB, refA

	var wg sync.WaitGroup
	errs := make(chan error, chains)
	for i := 0; i < chains; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := a.Call(refB, "Bounce", int64(depth))
			if err != nil {
				errs <- err
			} else if res[0] != int64(depth) {
				errs <- fmt.Errorf("chain returned %v, want %d", res[0], depth)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(a.conns) + len(b.conns); got != 2 {
		t.Errorf("%d client connections, want one each way", got)
	}
	for _, rt := range []*Runtime{a, b} {
		rt.workers.mu.Lock()
		idle := len(rt.workers.idle)
		rt.workers.mu.Unlock()
		if idle > maxIdleServeWorkers {
			t.Errorf("%s parks %d idle workers, cap %d", rt.Addr(), idle, maxIdleServeWorkers)
		}
	}
	_ = a.Close()
	_ = b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after Close, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUnexport(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
	if server.ExportCount() != 1 {
		t.Fatalf("export count: %d", server.ExportCount())
	}
	server.Unexport(ref.ID)
	if server.ExportCount() != 0 {
		t.Fatalf("export count after unexport: %d", server.ExportCount())
	}
	var re *RemoteError
	if _, err := client.Call(ref, "Total"); !errors.As(err, &re) || re.Code != wire.FaultNoSuchObject {
		t.Fatalf("want no-such-object after unexport, got %v", err)
	}
}

func TestCallTimeout(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	_, err := client.CallTimeout(ref, 20*time.Millisecond, "Slow", int64(500))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestDisconnectFailsCallsAndReconnectRecovers(t *testing.T) {
	server, client, net := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
	net.Disconnect("client", "server")
	if _, err := client.Call(ref, "Total"); !errors.Is(err, netsim.ErrDisconnected) {
		t.Fatalf("want disconnected error, got %v", err)
	}
	net.Reconnect("client", "server")
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatalf("after reconnect: %v", err)
	}
}

func TestServerRestartRedials(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	server, err := NewRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewRuntime(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ref, _ := server.Export(&calculator{}, "Calculator")
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
	_ = server.Close()
	if _, err := client.Call(ref, "Total"); err == nil {
		t.Fatal("call to closed server should fail")
	}
	// Bring a replacement up at the same address.
	server2, err := NewRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server2.Close()
	ref2, _ := server2.Export(&calculator{}, "Calculator")
	if _, err := client.Call(ref2, "Total"); err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
}

func TestCallOnZeroRef(t *testing.T) {
	_, client, _ := newPair(t)
	if _, err := client.Call(RemoteRef{}, "M"); err == nil {
		t.Fatal("zero ref must be rejected")
	}
}

func TestExportRejectsBadObjects(t *testing.T) {
	server, _, _ := newPair(t)
	if _, err := server.Export(nil, "X"); err == nil {
		t.Fatal("nil export must fail")
	}
	if _, err := server.Export(42, "X"); err == nil {
		t.Fatal("method-less export must fail")
	}
}

func TestObserverSeesRTT(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	server, err := NewRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	type obs struct {
		method string
		rtt    time.Duration
	}
	seen := make(chan obs, 4)
	client, err := NewRuntime(net, "client",
		WithObserver(func(_ transport.Addr, method string, rtt time.Duration, err error) {
			seen <- obs{method, rtt}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ref, _ := server.Export(&calculator{}, "Calculator")
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
	o := <-seen
	if o.method != "Total" || o.rtt <= 0 {
		t.Fatalf("observation: %+v", o)
	}
}

func TestStatsCount(t *testing.T) {
	server, client, _ := newPair(t)
	ref, _ := server.Export(&calculator{}, "Calculator")
	for i := 0; i < 3; i++ {
		if _, err := client.Call(ref, "Total"); err != nil {
			t.Fatal(err)
		}
	}
	if s := client.Stats(); s.CallsSent != 3 || s.BytesSent == 0 {
		t.Fatalf("client stats: %+v", s)
	}
	if s := server.Stats(); s.CallsServed != 3 {
		t.Fatalf("server stats: %+v", s)
	}
}

func TestRMICostMatchesCalibratedLAN(t *testing.T) {
	// On the paper-calibrated LAN profile a null RMI should land near
	// 2.8 ms. Allow generous slack for scheduler noise.
	net := transport.NewMemNetwork(netsim.LAN10)
	server, err := NewRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewRuntime(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ref, _ := server.Export(&calculator{}, "Calculator")
	if _, err := client.Call(ref, "Total"); err != nil { // warm the connection
		t.Fatal(err)
	}
	start := time.Now()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := client.Call(ref, "Total"); err != nil {
			t.Fatal(err)
		}
	}
	per := time.Since(start) / n
	if per < 2*time.Millisecond || per > 8*time.Millisecond {
		t.Fatalf("per-call RMI %v, want ≈2.8ms (2-8ms band)", per)
	}
}

func TestRuntimeCloseIdempotent(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	rt, err := NewRuntime(net, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Export(&calculator{}, "C"); !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("export after close: %v", err)
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	net := transport.NewTCPNetwork()
	server, err := NewRuntime(net, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewRuntime(net, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ref, _ := server.Export(&calculator{}, "Calculator")
	res, err := client.Call(ref, "Add", int64(40), int64(2))
	if err != nil || res[0] != int64(42) {
		t.Fatalf("tcp call: %v %v", res, err)
	}
}

func TestServerRejectsPeersWithoutHello(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	server, err := NewRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ref, _ := server.Export(&calculator{}, "Calculator")

	// A raw peer that speaks frames but skips the preamble: its call must
	// go unanswered and the connection must be dropped by the server.
	conn, err := net.Dial("rogue", "server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := wire.EncodeCall(server.Registry(), &wire.Call{
		ID: 1, Target: uint64(ref.ID), Method: "Total",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("server must drop preamble-less peers, got %v", err)
	}

	// A peer with the wrong protocol version is dropped too.
	conn2, err := net.Dial("rogue2", "server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	bad := append([]byte{}, wire.EncodeHello()...)
	bad[len(bad)-1] = 99 // clobber the version varint
	if err := conn2.Send(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("server must drop version mismatches, got %v", err)
	}

	// Well-behaved clients still work.
	client, err := NewRuntime(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Call(ref, "Total"); err != nil {
		t.Fatal(err)
	}
}
