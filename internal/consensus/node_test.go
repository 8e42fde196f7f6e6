package consensus

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"obiwan/internal/netsim"
)

// cluster wires nodes together with direct in-memory calls (a 1ms
// simulated hop each way) so the protocol can be exercised without RMI.
type cluster struct {
	t     *testing.T
	clock *netsim.VirtualClock

	mu      sync.Mutex
	nodes   map[string]*Node
	down    map[string]bool
	applied map[string][]string
	events  []string
}

func newCluster(t *testing.T, seed int64, ids ...string) *cluster {
	t.Helper()
	c := &cluster{
		t:       t,
		clock:   netsim.NewVirtualClock(),
		nodes:   make(map[string]*Node),
		down:    make(map[string]bool),
		applied: make(map[string][]string),
	}
	t.Cleanup(c.clock.Stop)
	// Freeze virtual time until run enqueues the scenario body: otherwise
	// the first node's election timer can fire (and fail against peers not
	// yet registered) in a real-time race with the rest of construction.
	c.clock.Hold()
	for _, id := range ids {
		c.start(id, seed, ids, NewMemStore())
	}
	return c
}

// run executes fn as the scenario body and blocks until it returns. It
// releases the hold newCluster took once the body is enqueued, so every
// run of a seed starts its election timers and its body at the same
// virtual instant.
func (c *cluster) run(fn func()) {
	done := make(chan struct{})
	c.clock.Go(func() {
		defer close(done)
		fn()
	})
	c.clock.Release()
	<-done
}

func (c *cluster) start(id string, seed int64, members []string, store *Store) {
	self := id
	n, err := New(Config{
		ID:      id,
		Members: members,
		Clock:   c.clock,
		Store:   store,
		Seed:    seed,
		Call: func(peer, method string, args ...any) ([]any, error) {
			c.clock.Sleep(time.Millisecond)
			c.mu.Lock()
			target := c.nodes[peer]
			dead := c.down[peer] || c.down[self]
			c.mu.Unlock()
			if dead || target == nil {
				return nil, errors.New("cluster: peer down")
			}
			var (
				res any
				err error
			)
			switch method {
			case "RequestVote":
				res, err = target.HandleRequestVote(args[0].(*VoteRequest))
			case "AppendEntries":
				res, err = target.HandleAppendEntries(args[0].(*AppendRequest))
			default:
				err = fmt.Errorf("cluster: unknown method %s", method)
			}
			c.clock.Sleep(time.Millisecond)
			if err != nil {
				return nil, err
			}
			return []any{res}, nil
		},
		Apply: func(ent Entry) any {
			c.mu.Lock()
			c.applied[self] = append(c.applied[self], string(ent.Data))
			c.mu.Unlock()
			return "applied:" + string(ent.Data)
		},
		OnEvent: func(ev Event) {
			c.mu.Lock()
			c.events = append(c.events, fmt.Sprintf("%s %s t%d", self, ev.Kind, ev.Term))
			c.mu.Unlock()
		},
	})
	if err != nil {
		c.t.Fatalf("start %s: %v", id, err)
	}
	c.mu.Lock()
	c.nodes[self] = n
	c.down[self] = false
	c.mu.Unlock()
	c.t.Cleanup(func() { n.Close() })
}

func (c *cluster) node(id string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// kill makes a member permanently unreachable and stops its node.
func (c *cluster) kill(id string) {
	c.mu.Lock()
	c.down[id] = true
	n := c.nodes[id]
	c.mu.Unlock()
	if n != nil {
		n.Abandon()
	}
}

// leaderOf blocks (in simulated time) until some live member gates as
// servable leader and returns it.
func (c *cluster) leaderOf(timeout time.Duration) *Node {
	deadline := c.clock.Now().Add(timeout)
	for c.clock.Now().Before(deadline) {
		c.mu.Lock()
		var found *Node
		for id, n := range c.nodes {
			if !c.down[id] && n.Gate() == nil {
				found = n
				break
			}
		}
		c.mu.Unlock()
		if found != nil {
			return found
		}
		c.clock.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("no servable leader within %v", timeout)
	return nil
}

func (c *cluster) appliedOf(id string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.applied[id]...)
}

func (c *cluster) waitApplied(ids []string, want []string, timeout time.Duration) {
	deadline := c.clock.Now().Add(timeout)
	for c.clock.Now().Before(deadline) {
		ok := true
		for _, id := range ids {
			if !reflect.DeepEqual(c.appliedOf(id), want) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		c.clock.Sleep(5 * time.Millisecond)
	}
	for _, id := range ids {
		c.t.Logf("%s applied: %v", id, c.appliedOf(id))
	}
	c.t.Fatalf("members did not converge on %v within %v", want, timeout)
}

func TestElectionReplicationAndApply(t *testing.T) {
	c := newCluster(t, 7, "a", "b", "c")
	c.run(func() {
		lead := c.leaderOf(5 * time.Second)
		var want []string
		for i := 0; i < 5; i++ {
			cmd := fmt.Sprintf("cmd-%d", i)
			res, err := lead.Submit([]byte(cmd), 2*time.Second)
			if err != nil {
				t.Fatalf("submit %s: %v", cmd, err)
			}
			if res != "applied:"+cmd {
				t.Fatalf("submit %s: result %v", cmd, res)
			}
			want = append(want, cmd)
		}
		c.waitApplied([]string{"a", "b", "c"}, want, 5*time.Second)
	})
}

func TestFollowerRedirects(t *testing.T) {
	c := newCluster(t, 11, "a", "b", "c")
	c.run(func() {
		lead := c.leaderOf(5 * time.Second)
		// Followers must fail fast with a typed redirect at the leader.
		for _, id := range []string{"a", "b", "c"} {
			n := c.node(id)
			if n == lead {
				continue
			}
			// Heartbeats have flowed (the leader gates), so the hint is set.
			if hint, err := n.WaitLeader(2 * time.Second); err != nil || hint != lead.ID() {
				t.Fatalf("%s WaitLeader = %q, %v; want %q", id, hint, err, lead.ID())
			}
			_, err := n.Submit([]byte("x"), time.Second)
			var nl *NotLeaderError
			if !errors.As(err, &nl) {
				t.Fatalf("%s Submit error = %v; want NotLeaderError", id, err)
			}
			if nl.Hint != lead.ID() {
				t.Fatalf("%s redirect hint = %q; want %q", id, nl.Hint, lead.ID())
			}
		}
	})
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t, 23, "a", "b", "c")
	c.run(func() {
		lead := c.leaderOf(5 * time.Second)
		if _, err := lead.Submit([]byte("before"), 2*time.Second); err != nil {
			t.Fatalf("submit before: %v", err)
		}
		killedAt := c.clock.Now()
		c.kill(lead.ID())

		next := c.leaderOf(10 * time.Second)
		if next.ID() == lead.ID() {
			t.Fatalf("dead member %s still leads", lead.ID())
		}
		latency := c.clock.Now().Sub(killedAt)
		// Bounded failover: a couple of election timeouts plus the lease.
		if latency > 3*time.Second {
			t.Fatalf("failover took %v", latency)
		}
		t.Logf("failover latency %v", latency)

		if _, err := next.Submit([]byte("after"), 2*time.Second); err != nil {
			t.Fatalf("submit after failover: %v", err)
		}
		var live []string
		for _, id := range []string{"a", "b", "c"} {
			if id != lead.ID() {
				live = append(live, id)
			}
		}
		c.waitApplied(live, []string{"before", "after"}, 5*time.Second)
	})
}

func TestLeaseLapsesWhenIsolated(t *testing.T) {
	c := newCluster(t, 31, "a", "b", "c")
	c.run(func() {
		lead := c.leaderOf(5 * time.Second)
		// Cut the leader off from both peers: its lease must lapse, and
		// Gate must stop admitting writes even though it still thinks it
		// leads (no one told it otherwise).
		c.mu.Lock()
		c.down[lead.ID()] = true
		c.mu.Unlock()
		deadline := c.clock.Now().Add(5 * time.Second)
		for c.clock.Now().Before(deadline) {
			if lead.Gate() != nil {
				return
			}
			c.clock.Sleep(5 * time.Millisecond)
		}
		t.Fatal("isolated leader still gates as servable")
	})
}

func TestRestartRetainsLogAndVote(t *testing.T) {
	dir := t.TempDir()
	clock := netsim.NewVirtualClock()
	defer clock.Stop()
	var applied []string
	open := func() *Node {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		n, err := New(Config{
			ID: "solo", Members: []string{"solo"}, Clock: clock, Store: st, Seed: 3,
			Apply: func(ent Entry) any { applied = append(applied, string(ent.Data)); return nil },
		})
		if err != nil {
			t.Fatalf("new node: %v", err)
		}
		return n
	}
	clock.Run(func() {
		n := open()
		if _, err := n.WaitLeader(5 * time.Second); err != nil {
			t.Fatalf("wait leader: %v", err)
		}
		if _, err := n.Submit([]byte("persisted"), time.Second); err != nil {
			t.Fatalf("submit: %v", err)
		}
		termBefore := n.Term()
		if err := n.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		applied = nil
		n = open()
		defer n.Close()
		if n.Term() < termBefore {
			t.Fatalf("term went backwards: %d < %d", n.Term(), termBefore)
		}
		if _, err := n.WaitLeader(5 * time.Second); err != nil {
			t.Fatalf("wait leader after restart: %v", err)
		}
		deadline := clock.Now().Add(5 * time.Second)
		for clock.Now().Before(deadline) && len(applied) == 0 {
			clock.Sleep(5 * time.Millisecond)
		}
		if !reflect.DeepEqual(applied, []string{"persisted"}) {
			t.Fatalf("replayed log = %v; want [persisted]", applied)
		}
	})
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() (leader string, events []string) {
		c := newCluster(t, 99, "a", "b", "c")
		c.run(func() {
			lead := c.leaderOf(5 * time.Second)
			leader = lead.ID()
			for i := 0; i < 3; i++ {
				if _, err := lead.Submit([]byte(fmt.Sprintf("d-%d", i)), 2*time.Second); err != nil {
					t.Fatalf("submit: %v", err)
				}
			}
			c.waitApplied([]string{"a", "b", "c"}, []string{"d-0", "d-1", "d-2"}, 5*time.Second)
		})
		c.mu.Lock()
		events = append([]string(nil), c.events...)
		c.mu.Unlock()
		return leader, events
	}
	l1, e1 := run()
	l2, e2 := run()
	if l1 != l2 {
		t.Fatalf("leaders differ across same-seed runs: %s vs %s", l1, l2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("event streams differ across same-seed runs:\n%v\n%v", e1, e2)
	}
}
