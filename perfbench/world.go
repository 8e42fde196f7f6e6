package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"obiwan"
	"obiwan/internal/rmi"
	"obiwan/internal/site"
)

// link is the simulated link every workload runs on. Loopback realizes its
// 5 µs per-message delay by spinning, which measured steadier than a
// zero-latency profile whose hand-offs park goroutines on every message.
var link = obiwan.Loopback

// world is one set-up: an in-process network, a standalone name server,
// the server sites and one client site. Everything a workload measures
// crosses the network's links.
type world struct {
	net     *obiwan.MemNetwork
	nsrt    *rmi.Runtime
	servers []*obiwan.Site
	client  *obiwan.Site
	walDir  string // removed by close; "" for in-memory worlds
}

// newWorld starts the network and its name server.
func newWorld() (*world, error) {
	w := &world{net: obiwan.NewMemNetwork(link)}
	// A pinned incarnation keeps client identities, and hence frame sizes,
	// the same in every set-up of a run.
	rt, err := obiwan.NewRuntime(w.net, "ns", rmi.WithIncarnation(1))
	if err != nil {
		return nil, fmt.Errorf("name server runtime: %w", err)
	}
	w.nsrt = rt
	if _, _, err := obiwan.ServeNameServer(rt); err != nil {
		w.close()
		return nil, fmt.Errorf("serve name server: %w", err)
	}
	return w, nil
}

// newSite starts a site on the world's network that uses its name server.
func (w *world) newSite(name string, opts ...obiwan.SiteOption) (*obiwan.Site, error) {
	opts = append([]obiwan.SiteOption{obiwan.WithNameServer("ns"), site.WithIncarnation(1)}, opts...)
	s, err := obiwan.NewSite(name, w.net, opts...)
	if err != nil {
		return nil, fmt.Errorf("start site %s: %w", name, err)
	}
	return s, nil
}

// sites lists every site, servers first.
func (w *world) sites() []*obiwan.Site {
	out := append([]*obiwan.Site(nil), w.servers...)
	if w.client != nil {
		out = append(out, w.client)
	}
	return out
}

// wire sums messages and bytes over every directed link between the
// world's endpoints.
func (w *world) wire() (msgs, bytes uint64) {
	addrs := []obiwan.Addr{"ns"}
	for _, s := range w.sites() {
		addrs = append(addrs, s.Addr())
	}
	for _, from := range addrs {
		for _, to := range addrs {
			if from == to {
				continue
			}
			st := w.net.LinkStats(from, to)
			msgs += st.Messages
			bytes += st.Bytes
		}
	}
	return msgs, bytes
}

// close stops every site and the name server and removes the world's WAL
// directory.
func (w *world) close() error {
	var errs []error
	for _, s := range w.sites() {
		errs = append(errs, s.Close())
	}
	if w.nsrt != nil {
		errs = append(errs, w.nsrt.Close())
	}
	if w.walDir != "" {
		errs = append(errs, os.RemoveAll(w.walDir))
	}
	return errors.Join(errs...)
}

// wordsText returns n bytes of space-separated lowercase words drawn from
// rng: section text the program sees only as generated input.
func wordsText(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.Grow(n)
	for b.Len() < n {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		word := 2 + rng.Intn(8)
		for i := 0; i < word && b.Len() < n; i++ {
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
	}
	return b.String()
}

// rendered is what docmodel.Section.Render returns for a section.
func rendered(name, text string) string {
	return "## " + name + "\n" + text
}
