package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"obiwan"
	"obiwan/examples/collabdoc/docmodel"
	"obiwan/internal/objmodel"
)

// groupMembers is the master group of the offline-edit workload.
var groupMembers = []obiwan.Addr{"g1", "g2", "g3"}

// electionTimeout is the group's base election timeout. Set-up waits for
// the first election, so it also sets most of offline-edit's setup_s.
const electionTimeout = 100 * time.Millisecond

// offlineEdit is one mobile work step against a transitively replicated
// document: many local reads through the generated proxies, one edit
// marked dirty, and a SyncDirty that puts it to a durable three-member
// master group. It is the write path: objmodel LMIs, the replication put,
// consensus submission and WAL appends.
type offlineEdit struct {
	w        *world
	tr       *tracer
	reads    int
	secs     []*docmodel.SectionProxy // spliced to the client's replicas
	objs     []any                    // the replicas themselves
	oids     []objmodel.OID
	names    []string
	want     []string // Render of each section's latest text
	texts    []string // the latest text of each section
	order    []int    // seeded order in which sections are edited
	pool     []string // seeded pool of edit texts
	shipped0 uint64   // client's puts shipped before the run
	applied0 []uint64 // each member's puts applied before the run
}

func newOfflineEdit(sc scale, seed int64, tr *tracer) (workload, error) {
	w, err := newWorld()
	if err != nil {
		return nil, err
	}
	if w.walDir, err = os.MkdirTemp(sc.walRoot, "offline-edit-"); err != nil {
		w.close()
		return nil, fmt.Errorf("wal dir: %w", err)
	}
	o := &offlineEdit{w: w, tr: tr, reads: sc.reads}
	if err := o.build(sc, seed); err != nil {
		w.close()
		return nil, err
	}
	return o, nil
}

func (o *offlineEdit) build(sc scale, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	cfg := obiwan.GroupConfig{
		Name:            "docs",
		Members:         groupMembers,
		ElectionTimeout: electionTimeout,
		Seed:            rng.Int63(),
	}
	for _, m := range groupMembers {
		s, err := o.w.newSite(string(m),
			obiwan.WithDurability(filepath.Join(o.w.walDir, string(m))),
			obiwan.WithMasterGroup(cfg))
		if err != nil {
			return err
		}
		o.w.servers = append(o.w.servers, s)
	}
	leader, err := o.leader(10 * time.Second)
	if err != nil {
		return err
	}

	n := sc.offlineSections
	doc := &docmodel.Document{Title: "offline-edit", Revision: 1}
	masters := make([]*docmodel.Section, n)
	o.names = make([]string, n)
	o.texts = make([]string, n)
	o.want = make([]string, n)
	for i := range masters {
		masters[i] = &docmodel.Section{Name: fmt.Sprintf("sec-%03d", i), Text: wordsText(rng, sc.sectionBytes)}
		if err := leader.Register(masters[i]); err != nil {
			return err
		}
		o.names[i], o.texts[i] = masters[i].Name, masters[i].Text
		o.want[i] = rendered(masters[i].Name, masters[i].Text)
	}
	if err := leader.Register(doc); err != nil {
		return err
	}
	// Wiring a grouped master goes through the group log (MarkUpdated),
	// so every member can serve the linked state.
	for i := range masters {
		ref, err := leader.NewRef(masters[i])
		if err != nil {
			return err
		}
		parent := any(doc)
		if i == 0 {
			doc.First = ref
		} else {
			masters[i-1].Next = ref
			parent = masters[i-1]
		}
		if err := leader.MarkUpdated(parent); err != nil {
			return err
		}
	}
	if err := leader.Bind("docs/offline-edit", doc); err != nil {
		return err
	}

	client, err := o.w.newSite("client", obiwan.WithDurability(filepath.Join(o.w.walDir, "client")))
	if err != nil {
		return err
	}
	o.w.client = client
	transitive := obiwan.GetSpec{Mode: obiwan.Transitive}
	ref, err := client.LookupSpec("docs/offline-edit", transitive)
	if err != nil {
		return err
	}
	root, err := client.Replicate(ref, transitive)
	if err != nil {
		return err
	}
	replica, ok := root.(*docmodel.Document)
	if !ok {
		return fmt.Errorf("replicated %T, want *docmodel.Document", root)
	}
	next := replica.First
	for i := 0; i < n; i++ {
		if next == nil || !next.IsResolved() {
			return fmt.Errorf("section %d did not arrive with the transitive replica", i)
		}
		sec, err := obiwan.Deref[*docmodel.Section](next)
		if err != nil {
			return err
		}
		o.secs = append(o.secs, docmodel.NewSectionProxy(next))
		o.objs = append(o.objs, sec)
		o.oids = append(o.oids, next.OID())
		next = sec.Next
	}
	o.order = rng.Perm(n)
	o.pool = make([]string, 64)
	for i := range o.pool {
		o.pool[i] = wordsText(rng, sc.sectionBytes)
	}
	o.shipped0 = puts("repl.puts.shipped", client)
	for _, s := range o.w.servers {
		o.applied0 = append(o.applied0, puts("repl.puts.applied", s))
	}
	return nil
}

// leader waits for a member holding a live serve lease.
func (o *offlineEdit) leader(timeout time.Duration) (*obiwan.Site, error) {
	deadline := time.Now().Add(timeout)
	for {
		for _, s := range o.w.servers {
			if s.Group().CheckServe() == nil {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no serving group leader within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// puts sums a put counter over sites.
func puts(name string, sites ...*obiwan.Site) uint64 {
	var n uint64
	for _, s := range sites {
		n += s.Telemetry().MetricsSnapshot().Get(name)
	}
	return n
}

func (o *offlineEdit) world() *world { return o.w }

func (o *offlineEdit) cycle() int { return len(o.secs) }

func (o *offlineEdit) step(i int) error {
	n := len(o.secs)
	for r := 0; r < o.reads; r++ {
		j := (i*o.reads + r) % n
		t := o.tr.begin(spanLMI)
		got := o.secs[j].Render()
		o.tr.end(t)
		if got != o.want[j] {
			return fmt.Errorf("section %d: local Render returned %.40q, want %.40q", j, got, o.want[j])
		}
	}

	j := o.order[i%n]
	text := o.pool[(i/n+j)%len(o.pool)]
	t := o.tr.begin(spanLMI)
	o.secs[j].Edit(text)
	o.tr.end(t)
	o.texts[j], o.want[j] = text, rendered(o.names[j], text)

	t = o.tr.begin(spanMark)
	err := o.w.client.MarkUpdated(o.objs[j])
	o.tr.end(t)
	if err != nil {
		return fmt.Errorf("mark section %d: %w", j, err)
	}
	t = o.tr.begin(spanSync)
	synced, err := o.w.client.SyncDirty()
	o.tr.end(t)
	if err != nil {
		return fmt.Errorf("sync section %d: %w", j, err)
	}
	if synced != 1 {
		return fmt.Errorf("sync section %d: %d replicas synced, want 1", j, synced)
	}
	return nil
}

// verify waits for every group member to apply the agreed log, then checks
// that each member applied every put the client shipped exactly once and
// that its master copy of every section holds the client's last edit.
func (o *offlineEdit) verify() error {
	shipped := puts("repl.puts.shipped", o.w.client) - o.shipped0
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := o.converged(shipped)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// converged reports the first member that has not applied shipped puts
// or whose master copy of a section differs from the client's last edit.
func (o *offlineEdit) converged(shipped uint64) error {
	for i, s := range o.w.servers {
		if applied := puts("repl.puts.applied", s) - o.applied0[i]; applied != shipped {
			return fmt.Errorf("%s applied %d puts, client shipped %d", s.Name(), applied, shipped)
		}
		for j, oid := range o.oids {
			e, ok := s.Heap().Get(oid)
			if !ok {
				return fmt.Errorf("%s holds no master of section %d", s.Name(), j)
			}
			e.LockState()
			sec, _ := e.Obj.(*docmodel.Section)
			var text string
			if sec != nil {
				text = sec.Text
			}
			e.UnlockState()
			if text != o.texts[j] {
				return fmt.Errorf("%s: section %d holds %.40q, client last wrote %.40q", s.Name(), j, text, o.texts[j])
			}
		}
	}
	return nil
}
