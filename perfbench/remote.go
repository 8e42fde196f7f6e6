package main

import (
	"fmt"
	"math/rand"

	"obiwan"
	"obiwan/examples/collabdoc/docmodel"
)

// remoteInvoke is the paper's RMI path: a client invokes the sections of
// a document mastered elsewhere through generated proxies in ModeRemote,
// three Renders to one Edit. Nothing is replicated, so the op exercises
// rmi, codec, wire and transport and bypasses replication, the LMI path,
// the WAL and consensus.
type remoteInvoke struct {
	w     *world
	tr    *tracer
	secs  []*docmodel.SectionProxy // client side, ModeRemote
	names []string
	want  []string // what each section's next Render must return
	order []int    // seeded visit order over the sections
	texts []string // seeded pool of edit texts
	slot  int      // which of every four visits to a section edits it
}

func newRemoteInvoke(sc scale, seed int64, tr *tracer) (workload, error) {
	w, err := newWorld()
	if err != nil {
		return nil, err
	}
	r := &remoteInvoke{w: w, tr: tr}
	if err := r.build(sc, seed); err != nil {
		w.close()
		return nil, err
	}
	return r, nil
}

func (r *remoteInvoke) build(sc scale, seed int64) error {
	master, err := r.w.newSite("master")
	if err != nil {
		return err
	}
	r.w.servers = append(r.w.servers, master)
	if r.w.client, err = r.w.newSite("client"); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	n := sc.sections
	doc := &docmodel.Document{Title: "remote-invoke", Revision: 1}
	var prev *docmodel.Section
	r.names = make([]string, n)
	r.want = make([]string, n)
	r.secs = make([]*docmodel.SectionProxy, n)
	for i := 0; i < n; i++ {
		sec := &docmodel.Section{Name: fmt.Sprintf("sec-%05d", i), Text: wordsText(rng, sc.sectionBytes)}
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
		desc, err := master.Export(sec)
		if err != nil {
			return err
		}
		cref := r.w.client.Engine().RefFromDescriptor(desc, obiwan.DefaultSpec)
		cref.SetMode(obiwan.ModeRemote)
		r.secs[i] = docmodel.NewSectionProxy(cref)
		r.names[i] = sec.Name
		r.want[i] = rendered(sec.Name, sec.Text)
	}
	if err := master.Bind("docs/remote-invoke", doc); err != nil {
		return err
	}
	r.order = rng.Perm(n)
	r.texts = make([]string, 64)
	for i := range r.texts {
		r.texts[i] = wordsText(rng, sc.sectionBytes)
	}
	r.slot = rng.Intn(4)
	return nil
}

func (r *remoteInvoke) world() *world { return r.w }

// cycle covers four rounds over the sections, so every section is edited
// once and rendered three times per cycle.
func (r *remoteInvoke) cycle() int { return 4 * len(r.secs) }

func (r *remoteInvoke) step(i int) error {
	n := len(r.secs)
	j := r.order[i%n]
	p := r.secs[j]
	if (i%n+i/n)%4 == r.slot {
		text := r.texts[(i/n+j)%len(r.texts)]
		t := r.tr.begin(spanRMICall)
		p.Edit(text)
		r.tr.end(t)
		r.want[j] = rendered(r.names[j], text)
		return nil
	}
	t := r.tr.begin(spanRMICall)
	got := p.Render()
	r.tr.end(t)
	if got != r.want[j] {
		return fmt.Errorf("section %d: Render returned %.40q, want %.40q", j, got, r.want[j])
	}
	return nil
}

// verify re-reads every section once: each must hold the last edit sent.
func (r *remoteInvoke) verify() error {
	for j, p := range r.secs {
		if got := p.Render(); got != r.want[j] {
			return fmt.Errorf("section %d after the run: Render returned %.40q, want %.40q", j, got, r.want[j])
		}
	}
	return nil
}
