package main

import (
	"fmt"
	"math/rand"

	"obiwan"
	"obiwan/examples/collabdoc/docmodel"
)

// mobileOpen is a mobile client opening documents one object fault at a
// time: look the document up, fault its section chain in with the paper's
// one-object-per-demand spec, render every section on its replica, and
// evict the replicas so the client's memory stays flat through a run.
// The op is dominated by replication (fault, assemble, materialize),
// heap, platgc and the name server, with one RMI per fault.
type mobileOpen struct {
	w     *world
	tr    *tracer
	docs  []mobileDoc
	order []int // seeded order in which the pool is opened
	objs  []any // replicas faulted in by the current op
}

// mobileDoc is what the client expects of one pooled document.
type mobileDoc struct {
	name  string   // name-server binding
	title string   // Document.Title
	want  []string // Render of each section, in chain order
}

func newMobileOpen(sc scale, seed int64, tr *tracer) (workload, error) {
	w, err := newWorld()
	if err != nil {
		return nil, err
	}
	m := &mobileOpen{w: w, tr: tr}
	if err := m.build(sc, seed); err != nil {
		w.close()
		return nil, err
	}
	return m, nil
}

func (m *mobileOpen) build(sc scale, seed int64) error {
	master, err := m.w.newSite("master")
	if err != nil {
		return err
	}
	m.w.servers = append(m.w.servers, master)
	if m.w.client, err = m.w.newSite("client"); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	m.docs = make([]mobileDoc, sc.docs)
	for d := range m.docs {
		md := mobileDoc{
			name:  fmt.Sprintf("docs/%03d", d),
			title: fmt.Sprintf("document %03d", d),
			want:  make([]string, sc.docSections),
		}
		doc := &docmodel.Document{Title: md.title, Revision: 1}
		var prev *docmodel.Section
		for s := range md.want {
			sec := &docmodel.Section{Name: fmt.Sprintf("d%03d-s%03d", d, s), Text: wordsText(rng, sc.docBytes)}
			ref, err := master.NewRef(sec)
			if err != nil {
				return err
			}
			if prev == nil {
				doc.First = ref
			} else {
				prev.Next = ref
			}
			prev = sec
			md.want[s] = rendered(sec.Name, sec.Text)
		}
		if err := master.Bind(md.name, doc); err != nil {
			return err
		}
		m.docs[d] = md
	}
	m.order = rng.Perm(sc.docs)
	m.objs = make([]any, 0, sc.docSections+1)
	return nil
}

func (m *mobileOpen) world() *world { return m.w }

func (m *mobileOpen) cycle() int { return len(m.docs) }

func (m *mobileOpen) step(i int) error {
	md := &m.docs[m.order[i%len(m.docs)]]
	client := m.w.client
	before := client.Heap().Len()

	t := m.tr.begin(spanLookup)
	ref, err := client.Lookup(md.name)
	m.tr.end(t)
	if err != nil {
		return fmt.Errorf("lookup %s: %w", md.name, err)
	}
	m.objs = m.objs[:0]
	t = m.tr.begin(spanFault)
	obj, err := client.Replicate(ref, obiwan.DefaultSpec)
	m.tr.end(t)
	if err != nil {
		return fmt.Errorf("fault %s: %w", md.name, err)
	}
	m.objs = append(m.objs, obj)
	doc, ok := obj.(*docmodel.Document)
	if !ok || doc.Title != md.title {
		return fmt.Errorf("%s: faulted in %T, want document %q", md.name, obj, md.title)
	}

	next := doc.First
	for s, want := range md.want {
		if next == nil {
			return fmt.Errorf("%s: chain ends after %d sections, want %d", md.name, s, len(md.want))
		}
		t = m.tr.begin(spanFault)
		obj, err := client.Replicate(next, obiwan.DefaultSpec)
		m.tr.end(t)
		if err != nil {
			return fmt.Errorf("%s: fault section %d: %w", md.name, s, err)
		}
		m.objs = append(m.objs, obj)
		sec, ok := obj.(*docmodel.Section)
		if !ok {
			return fmt.Errorf("%s: section %d faulted in as %T", md.name, s, obj)
		}
		t = m.tr.begin(spanLMI)
		got := docmodel.NewSectionProxy(next).Render()
		m.tr.end(t)
		if got != want {
			return fmt.Errorf("%s: section %d rendered %.40q, want %.40q", md.name, s, got, want)
		}
		next = sec.Next
	}
	if next != nil {
		return fmt.Errorf("%s: chain continues past %d sections", md.name, len(md.want))
	}

	t = m.tr.begin(spanEvict)
	evicted := 0
	for _, obj := range m.objs {
		n, err := client.Evict(obj, false)
		if err != nil {
			m.tr.end(t)
			return fmt.Errorf("%s: evict: %w", md.name, err)
		}
		evicted += n
	}
	m.tr.end(t)
	if evicted != len(md.want)+1 {
		return fmt.Errorf("%s: evicted %d replicas, want %d", md.name, evicted, len(md.want)+1)
	}
	if after := client.Heap().Len(); after != before {
		return fmt.Errorf("%s: client heap holds %d objects after the open, %d before", md.name, after, before)
	}
	return nil
}

// verify checks that the client holds no replica after the run: every
// open evicted what it faulted in.
func (m *mobileOpen) verify() error {
	if n := m.w.client.ReplicaCount(); n != 0 {
		return fmt.Errorf("client still holds %d replicas", n)
	}
	return nil
}
