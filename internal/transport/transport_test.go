package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"obiwan/internal/netsim"
)

// echoServer accepts one connection and echoes messages until close.
func echoServer(t *testing.T, ln Listener) {
	t.Helper()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			if err := conn.Send(msg); err != nil {
				return
			}
		}
	}()
}

func testNetworkEcho(t *testing.T, net Network, serverAddr, clientAddr Addr) {
	t.Helper()
	ln, err := net.Listen(serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln)

	conn, err := net.Dial(clientAddr, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for i := 0; i < 10; i++ {
		msg := []byte(fmt.Sprintf("message-%d", i))
		if err := conn.Send(msg); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		got, err := conn.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("echo %d: got %q want %q", i, got, msg)
		}
	}
}

func TestMemNetworkEcho(t *testing.T) {
	testNetworkEcho(t, NewMemNetwork(netsim.Loopback), "server", "client")
}

func TestTCPNetworkEcho(t *testing.T) {
	testNetworkEcho(t, NewTCPNetwork(), "127.0.0.1:0", "")
}

func TestMemDialUnknownAddr(t *testing.T) {
	n := NewMemNetwork(netsim.Loopback)
	if _, err := n.Dial("a", "nowhere"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func TestMemDoubleBindRejected(t *testing.T) {
	n := NewMemNetwork(netsim.Loopback)
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Fatal("second bind should fail")
	}
}

func TestMemListenerCloseUnblocksAccept(t *testing.T) {
	n := NewMemNetwork(netsim.Loopback)
	ln, err := n.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ln.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
}

func TestMemRebindAfterClose(t *testing.T) {
	n := NewMemNetwork(netsim.Loopback)
	ln, err := n.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if _, err := n.Listen("x"); err != nil {
		t.Fatalf("rebinding closed address should work: %v", err)
	}
}

func TestMemFIFOOrdering(t *testing.T) {
	n := NewMemNetwork(netsim.Profile{
		Name: "jittery", Latency: time.Millisecond,
		Jitter: 2 * time.Millisecond, BandwidthBps: 1 << 20,
	})
	ln, err := n.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := n.Dial("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted

	const msgs = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			if err := client.Send([]byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < msgs; i++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("out of order: got %d at position %d", got[0], i)
		}
	}
	wg.Wait()
}

func TestMemDisconnectAndReconnect(t *testing.T) {
	n := NewMemNetwork(netsim.Loopback)
	ln, err := n.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, ln)
	conn, err := n.Dial("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("up")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}

	n.Disconnect("c", "s")
	if err := conn.Send([]byte("down")); !errors.Is(err, netsim.ErrDisconnected) {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}

	n.Reconnect("c", "s")
	if err := conn.Send([]byte("up again")); err != nil {
		t.Fatalf("reconnected send: %v", err)
	}
	got, err := conn.Recv()
	if err != nil || string(got) != "up again" {
		t.Fatalf("after reconnect: %q, %v", got, err)
	}
}

func TestMemPartitionHost(t *testing.T) {
	n := NewMemNetwork(netsim.Loopback)
	ln, _ := n.Listen("s")
	echoServer(t, ln)
	conn, err := n.Dial("mobile", "s")
	if err != nil {
		t.Fatal(err)
	}
	n.PartitionHost("mobile")
	if err := conn.Send([]byte("x")); !errors.Is(err, netsim.ErrDisconnected) {
		t.Fatalf("partitioned host should not send, got %v", err)
	}
	if _, err := n.Dial("mobile", "s"); !errors.Is(err, netsim.ErrDisconnected) {
		t.Fatalf("partitioned host should not dial, got %v", err)
	}
	n.HealHost("mobile")
	if err := conn.Send([]byte("x")); err != nil {
		t.Fatalf("healed host should send: %v", err)
	}
}

func TestMemLatencyIsRealized(t *testing.T) {
	p := netsim.Profile{Name: "slow", Latency: 20 * time.Millisecond}
	n := NewMemNetwork(p)
	ln, _ := n.Listen("s")
	echoServer(t, ln)
	conn, err := n.Dial("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 40*time.Millisecond {
		t.Fatalf("round trip %v, want >= 40ms (2 x one-way latency)", rtt)
	}
}

func TestMemLinkStats(t *testing.T) {
	n := NewMemNetwork(netsim.Loopback)
	ln, _ := n.Listen("s")
	echoServer(t, ln)
	conn, err := n.Dial("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	if err := conn.Send(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	if s := n.LinkStats("c", "s"); s.Messages != 1 || s.Bytes != 100 {
		t.Fatalf("c->s stats: %+v", s)
	}
	if s := n.LinkStats("s", "c"); s.Messages != 1 || s.Bytes != 100 {
		t.Fatalf("s->c stats: %+v", s)
	}
}

func TestMemCloseUnblocksRecv(t *testing.T) {
	n := NewMemNetwork(netsim.Loopback)
	ln, _ := n.Listen("s")
	go func() {
		c, err := ln.Accept()
		if err == nil {
			defer c.Close()
			_, _ = c.Recv() // block until client closes
		}
	}()
	conn, err := n.Dial("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := conn.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	conn.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestMemBufferedMessagesDrainAfterClose(t *testing.T) {
	n := NewMemNetwork(netsim.Loopback)
	ln, _ := n.Listen("s")
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := n.Dial("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	if err := client.Send([]byte("in flight")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	client.Close()
	got, err := server.Recv()
	if err != nil || string(got) != "in flight" {
		t.Fatalf("in-flight message lost: %q, %v", got, err)
	}
	if _, err := server.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after drain, want ErrClosed, got %v", err)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	n := NewMemNetwork(netsim.Profile{Name: "delay", Latency: 20 * time.Millisecond})
	ln, _ := n.Listen("s")
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := n.Dial("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	buf := []byte("original")
	if err := client.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!") // mutate after send, before delivery
	got, err := server.Recv()
	if err != nil || string(got) != "original" {
		t.Fatalf("Send must copy: got %q, %v", got, err)
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	n := NewMemNetwork(netsim.Loopback)
	ln, _ := n.Listen("s")
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := n.Dial("c", "s")
	if err != nil {
		t.Fatal(err)
	}
	<-accepted
	huge := make([]byte, MaxMessageSize+1)
	if err := conn.Send(huge); err == nil {
		t.Fatal("oversized message must be rejected")
	}
}

func TestTCPLargeMessage(t *testing.T) {
	n := NewTCPNetwork()
	ln, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	echoServer(t, ln)
	conn, err := n.Dial("", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte{0xAB}, 1<<20)
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("1MB echo mismatch")
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	n := NewTCPNetwork()
	ln, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()
	conn, err := n.Dial("", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestMsgQueueReusesBackingArray drives the delivery queue through
// backlogs that grow, drain partly and slide to the front of the backing
// array, and checks FIFO order, drain-after-close and that a queue which
// keeps up with its traffic allocates nothing per message.
func TestMsgQueueReusesBackingArray(t *testing.T) {
	q := newMsgQueue(netsim.Real())
	payload := [][]byte{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	var pushed, popped int
	push := func() {
		if err := q.push(queuedMsg{data: payload[pushed%len(payload)]}); err != nil {
			t.Fatalf("push %d: %v", pushed, err)
		}
		pushed++
	}
	pop := func() {
		m, err := q.pop()
		if err != nil {
			t.Fatalf("pop %d: %v", popped, err)
		}
		if m.data[0] != byte(popped%len(payload)) {
			t.Fatalf("out of order: got %d at position %d", m.data[0], popped)
		}
		popped++
	}
	// Backlogs of 1..40 messages, each drained to a different depth.
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ {
			push()
		}
		for i := 0; i < round/2+1 && popped < pushed; i++ {
			pop()
		}
	}
	for popped < pushed {
		pop()
	}
	steady := func() {
		for i := 0; i < 1000; i++ {
			push()
			push()
			pop()
			pop()
		}
	}
	if allocs := testing.AllocsPerRun(10, steady); allocs != 0 {
		t.Fatalf("1000 steady push/pop pairs allocate %.0f times, want 0", allocs)
	}
	push()
	push()
	q.close()
	if err := q.push(queuedMsg{data: payload[0]}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v", err)
	}
	pop()
	pop()
	if _, err := q.pop(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after drain, want ErrClosed, got %v", err)
	}
}
