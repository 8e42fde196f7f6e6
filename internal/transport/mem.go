package transport

import (
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"time"

	"obiwan/internal/netsim"
)

// memTrace (env MEMNET_TRACE=1) dumps every link-level send — virtual
// timestamp, endpoints, size, planned delay — to stderr. Under a virtual
// clock the dump is deterministic per seed, so diffing two runs' traces
// pinpoints the first divergent message when debugging nondeterminism.
var memTrace = os.Getenv("MEMNET_TRACE") != ""

// MemNetwork is an in-process network whose point-to-point links are
// modelled by netsim. It is the synthetic testbed for every experiment:
// link profiles can be changed at run time and individual hosts can be
// disconnected, reproducing the mobile scenarios of the paper.
//
// MemNetwork is safe for concurrent use.
type MemNetwork struct {
	clock     netsim.Clock
	mu        sync.Mutex
	defProf   netsim.Profile
	seed      int64
	listeners map[Addr]*memListener
	links     map[linkKey]*netsim.Link
	downHosts map[Addr]bool
}

type linkKey struct{ from, to Addr }

// NewMemNetwork returns a network whose links default to profile p.
func NewMemNetwork(p netsim.Profile) *MemNetwork {
	return NewMemNetworkSeeded(p, 1)
}

// NewMemNetworkSeeded returns a network whose links default to profile p
// and whose loss/jitter randomness derives from seed. Each directional link
// gets its own RNG seeded by a stable hash of (seed, from, to), so the
// random stream a link sees does not depend on the order links happen to be
// created in — two runs of the same scenario with the same seed observe the
// same drops and jitter per link.
func NewMemNetworkSeeded(p netsim.Profile, seed int64) *MemNetwork {
	return NewMemNetworkClock(p, seed, netsim.Real())
}

// NewMemNetworkClock is NewMemNetworkSeeded on an explicit clock. With a
// *netsim.VirtualClock the network becomes a discrete-event simulation:
// simulated delays are scheduled instead of slept, so thousand-site
// scenarios covering minutes of traffic run in milliseconds, and the RMI
// layer built on top inherits the clock automatically (see Clock).
func NewMemNetworkClock(p netsim.Profile, seed int64, clock netsim.Clock) *MemNetwork {
	return &MemNetwork{
		clock:     clock,
		defProf:   p,
		seed:      seed,
		listeners: make(map[Addr]*memListener),
		links:     make(map[linkKey]*netsim.Link),
		downHosts: make(map[Addr]bool),
	}
}

// Clock returns the network's time source (netsim.ClockProvider). Layers
// above — the RMI runtime in particular — inherit it so their timers and
// goroutines live on the same timeline as the links.
func (n *MemNetwork) Clock() netsim.Clock { return n.clock }

// linkSeed derives the deterministic RNG seed for the directional link
// from→to.
func (n *MemNetwork) linkSeed(from, to Addr) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(n.seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(from))
	h.Write([]byte{0}) // separator: ("ab","c") ≠ ("a","bc")
	h.Write([]byte(to))
	return int64(h.Sum64())
}

// link returns (creating if needed) the directional link from→to.
func (n *MemNetwork) link(from, to Addr) *netsim.Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.linkLocked(from, to)
}

func (n *MemNetwork) linkLocked(from, to Addr) *netsim.Link {
	k := linkKey{from, to}
	l, ok := n.links[k]
	if !ok {
		l = netsim.NewLinkClock(n.defProf, n.linkSeed(from, to), n.clock)
		n.links[k] = l
	}
	return l
}

// SetProfile sets the link profile in both directions between a and b.
func (n *MemNetwork) SetProfile(a, b Addr, p netsim.Profile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(a, b).SetProfile(p)
	n.linkLocked(b, a).SetProfile(p)
}

// Disconnect severs both directions between a and b; in-flight messages
// still arrive (they are already "on the wire") but new sends fail with
// netsim.ErrDisconnected.
func (n *MemNetwork) Disconnect(a, b Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(a, b).SetDown(true)
	n.linkLocked(b, a).SetDown(true)
}

// Reconnect restores both directions between a and b.
func (n *MemNetwork) Reconnect(a, b Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(a, b).SetDown(false)
	n.linkLocked(b, a).SetDown(false)
}

// PartitionHost disconnects host from everyone — the laptop going into the
// taxi. Existing and future links touching the host reject sends.
func (n *MemNetwork) PartitionHost(host Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.downHosts[host] = true
}

// HealHost reverses PartitionHost.
func (n *MemNetwork) HealHost(host Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.downHosts, host)
}

func (n *MemNetwork) hostDown(a, b Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.downHosts[a] || n.downHosts[b]
}

// LinkStats returns traffic counters for the directional link from→to.
func (n *MemNetwork) LinkStats(from, to Addr) netsim.Stats {
	return n.link(from, to).Stats()
}

// SetFaultSchedule attaches a scripted fault schedule to the directional
// link from→to (nil detaches). The schedule sees every send attempt on that
// link, including the RMI connection preamble — account for it when keying
// events by send count.
func (n *MemNetwork) SetFaultSchedule(from, to Addr, s *netsim.FaultSchedule) {
	n.link(from, to).SetSchedule(s)
}

// Listen binds a listener at local.
func (n *MemNetwork) Listen(local Addr) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[local]; exists {
		return nil, fmt.Errorf("transport: address %q already bound", local)
	}
	ln := &memListener{net: n, addr: local}
	ln.cond = netsim.NewCond(n.clock, &ln.mu)
	n.listeners[local] = ln
	return ln, nil
}

// Dial connects from local to remote. The connection's two directions use
// the local→remote and remote→local links.
func (n *MemNetwork) Dial(local, remote Addr) (Conn, error) {
	n.mu.Lock()
	ln, ok := n.listeners[remote]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: no listener at %q", ErrUnreachable, remote)
	}
	if n.hostDown(local, remote) {
		return nil, netsim.ErrDisconnected
	}

	c2s := newMsgQueue(n.clock) // client → server
	s2c := newMsgQueue(n.clock) // server → client
	client := &memConn{
		net: n, local: local, remote: remote,
		out: c2s, in: s2c, outLink: n.link(local, remote),
	}
	server := &memConn{
		net: n, local: remote, remote: local,
		out: s2c, in: c2s, outLink: n.link(remote, local),
	}
	if err := ln.offer(server); err != nil {
		return nil, err
	}
	return client, nil
}

var _ Network = (*MemNetwork)(nil)
var _ netsim.ClockProvider = (*MemNetwork)(nil)

type memListener struct {
	net  *MemNetwork
	addr Addr

	mu      sync.Mutex
	cond    *netsim.Cond
	pending []*memConn
	closed  bool
}

// offer hands an inbound connection to the accept loop. The wakeup goes
// through a clock-aware Cond so a virtual clock never advances past a
// runnable acceptor.
func (l *memListener) offer(c *memConn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("%w: listener at %q closed", ErrUnreachable, l.addr)
	}
	l.pending = append(l.pending, c)
	l.cond.Signal()
	return nil
}

func (l *memListener) Accept() (Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.pending) == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil, ErrClosed
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c, nil
}

func (l *memListener) Close() error {
	l.mu.Lock()
	first := !l.closed
	if first {
		l.closed = true
		l.cond.Broadcast()
	}
	l.mu.Unlock()
	if first {
		l.net.mu.Lock()
		// Guard the map against a successor listener re-bound at our address.
		if l.net.listeners[l.addr] == l {
			delete(l.net.listeners, l.addr)
		}
		l.net.mu.Unlock()
	}
	return nil
}

func (l *memListener) Addr() Addr { return l.addr }

// queuedMsg is a message plus its simulated arrival time.
type queuedMsg struct {
	data []byte
	due  time.Time
}

// msgQueue is an unbounded FIFO with blocking pop and close semantics.
// Its wakeups go through a clock-aware Cond: under a virtual clock a
// blocked reader counts as idle, and a push transfers it a busy token
// before signalling, so quiescence detection stays exact.
//
// The queued messages are items[head:]. The backing array is reused:
// pop rewinds it when the queue drains, and a push that finds it full
// slides the backlog to the front when at least half of it is consumed
// (so each slide frees as many slots as it copies) and lets append grow
// it otherwise. A queue that keeps up with its traffic allocates nothing
// per message.
type msgQueue struct {
	mu     sync.Mutex
	cond   *netsim.Cond
	items  []queuedMsg
	head   int
	closed bool
}

func newMsgQueue(clock netsim.Clock) *msgQueue {
	q := &msgQueue{}
	q.cond = netsim.NewCond(clock, &q.mu)
	return q
}

func (q *msgQueue) push(m queuedMsg) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.items) == cap(q.items) && q.head > 0 && q.head >= len(q.items)/2 {
		q.items = q.items[:copy(q.items, q.items[q.head:])]
		q.head = 0
	}
	q.items = append(q.items, m)
	// Wake the reader at the message's delivery time, not at push time:
	// under a virtual clock that folds the wakeup and the propagation delay
	// into one event. Links are FIFO (netsim clamps arrival order), so the
	// new message's due time is never earlier than a queued predecessor's.
	q.cond.SignalAt(m.due)
	return nil
}

// pop blocks until a message is queued or the queue closes. Buffered
// messages drain even after close (they were already in flight).
func (q *msgQueue) pop() (queuedMsg, error) {
	q.mu.Lock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		q.mu.Unlock()
		return queuedMsg{}, ErrClosed
	}
	m := q.items[q.head]
	q.items[q.head] = queuedMsg{} // drop the payload reference
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	q.mu.Unlock()
	return m, nil
}

func (q *msgQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// memConn is one endpoint of a simulated connection.
type memConn struct {
	net     *MemNetwork
	local   Addr
	remote  Addr
	out     *msgQueue
	in      *msgQueue
	outLink *netsim.Link
	once    sync.Once
}

func (c *memConn) Send(p []byte) error {
	if err := validateSize(len(p)); err != nil {
		return err
	}
	if c.net.hostDown(c.local, c.remote) {
		return netsim.ErrDisconnected
	}
	delay, err := c.outLink.Plan(len(p))
	if memTrace {
		fmt.Fprintf(os.Stderr, "TRACE %d %s->%s %dB +%v err=%v\n",
			c.net.clock.Now().UnixNano(), c.local, c.remote, len(p), delay, err)
	}
	if err != nil {
		return err
	}
	// Copy: the caller may reuse its buffer after Send returns.
	data := make([]byte, len(p))
	copy(data, p)
	return c.out.push(queuedMsg{data: data, due: c.net.clock.Now().Add(delay)})
}

func (c *memConn) Recv() ([]byte, error) {
	m, err := c.in.pop()
	if err != nil {
		return nil, err
	}
	// Realize the simulated propagation delay on the network's clock: the
	// real clock sleeps it with sub-tick precision (plain time.Sleep
	// overshoots by a timer tick); a virtual clock parks the reader on the
	// event heap and delivers at exactly m.due. When push's timed wake
	// already carried the reader to the delivery instant (SignalAt), the
	// delay is fully realized and no second park is needed.
	if m.due.After(c.net.clock.Now()) {
		c.net.clock.SleepUntil(m.due)
	}
	return m.data, nil
}

func (c *memConn) Close() error {
	c.once.Do(func() {
		c.out.close()
		c.in.close()
	})
	return nil
}

func (c *memConn) RemoteAddr() Addr { return c.remote }
func (c *memConn) LocalAddr() Addr  { return c.local }
