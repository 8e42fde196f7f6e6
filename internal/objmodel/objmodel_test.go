package objmodel

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"obiwan/internal/codec"
)

// node is a list element, the paper's canonical workload shape.
type node struct {
	Value []byte
	Label string
	Next  *Ref
}

func (n *node) First() byte {
	if len(n.Value) == 0 {
		return 0
	}
	return n.Value[0]
}

func (n *node) SetLabel(l string) { n.Label = l }

// tree exercises refs in slices, maps, and nested structs.
type tree struct {
	Children []*Ref
	ByName   map[string]*Ref
	Meta     treeMeta
}

type treeMeta struct {
	Root *Ref
}

func (t *tree) Kind() string { return "tree" }

func init() {
	MustRegisterType("objmodel_test.node", (*node)(nil))
	MustRegisterType("objmodel_test.tree", (*tree)(nil))
}

func TestRegisterTypeValidation(t *testing.T) {
	if err := RegisterType("x", 42); err == nil {
		t.Fatal("non-struct must be rejected")
	}
	type plain struct{ A int }
	if err := RegisterType("y", plain{}); err == nil {
		t.Fatal("method-less struct must be rejected")
	}
	// Idempotent re-registration.
	if err := RegisterType("objmodel_test.node", (*node)(nil)); err != nil {
		t.Fatalf("idempotent registration: %v", err)
	}
	// Name collision with a different type.
	if err := RegisterType("objmodel_test.node", (*tree)(nil)); err == nil {
		t.Fatal("name collision must be rejected")
	}
}

func TestInfoLookup(t *testing.T) {
	info, ok := InfoByName("objmodel_test.node")
	if !ok {
		t.Fatal("node not registered")
	}
	if info.Type.Name() != "node" {
		t.Fatalf("type: %v", info.Type)
	}
	if _, ok := info.Methods["First"]; !ok {
		t.Fatalf("method table: %v", info.Methods)
	}
	byObj, ok := InfoOf(&node{})
	if !ok || byObj != info {
		t.Fatal("InfoOf mismatch")
	}
	fresh := info.New()
	if _, ok := fresh.(*node); !ok {
		t.Fatalf("New returned %T", fresh)
	}
}

func TestRefsOfDiscovery(t *testing.T) {
	r1, r2, r3, r4 := &Ref{}, &Ref{}, &Ref{}, &Ref{}
	tr := &tree{
		Children: []*Ref{r1, nil, r2},
		ByName:   map[string]*Ref{"a": r3},
		Meta:     treeMeta{Root: r4},
	}
	refs := RefsOf(tr)
	if len(refs) != 4 {
		t.Fatalf("found %d refs, want 4: %v", len(refs), refs)
	}
	seen := map[*Ref]bool{}
	for _, r := range refs {
		seen[r] = true
	}
	for i, want := range []*Ref{r1, r2, r3, r4} {
		if !seen[want] {
			t.Fatalf("ref %d not discovered", i)
		}
	}
}

func TestRefsOfSkipsByteSlices(t *testing.T) {
	n := &node{Value: make([]byte, 1<<16)}
	if refs := RefsOf(n); len(refs) != 0 {
		t.Fatalf("refs in plain node: %v", refs)
	}
	n.Next = &Ref{}
	if refs := RefsOf(n); len(refs) != 1 {
		t.Fatalf("want 1 ref, got %d", len(refs))
	}
}

func TestCaptureRestoreWithRefs(t *testing.T) {
	reg := codec.DefaultRegistry()
	target := &node{Label: "tail"}
	head := &node{
		Value: []byte{1, 2, 3},
		Label: "head",
		Next:  NewLocalRef(target, OID(77)),
	}
	state, err := CaptureState(reg, head)
	if err != nil {
		t.Fatal(err)
	}
	out := &node{}
	if err := RestoreState(reg, out, state); err != nil {
		t.Fatal(err)
	}
	if out.Label != "head" || string(out.Value) != "\x01\x02\x03" {
		t.Fatalf("state: %+v", out)
	}
	if out.Next == nil {
		t.Fatal("ref field lost")
	}
	if out.Next.OID() != OID(77) {
		t.Fatalf("ref OID: %v", out.Next.OID())
	}
	if out.Next.IsResolved() {
		t.Fatal("restored ref must be unbound")
	}
}

func TestCaptureNilRef(t *testing.T) {
	reg := codec.DefaultRegistry()
	state, err := CaptureState(reg, &node{Label: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	out := &node{}
	if err := RestoreState(reg, out, state); err != nil {
		t.Fatal(err)
	}
	if out.Next != nil {
		t.Fatalf("nil ref should stay nil, got %v", out.Next)
	}
}

func TestCaptureNeverBoundRefRejected(t *testing.T) {
	reg := codec.DefaultRegistry()
	_, err := CaptureState(reg, &node{Next: &Ref{}})
	if err == nil {
		t.Fatal("capturing a never-bound ref must fail")
	}
}

func TestLocalRefInvoke(t *testing.T) {
	n := &node{Value: []byte{9}}
	r := NewLocalRef(n, 1)
	if !r.IsResolved() {
		t.Fatal("local ref should be resolved")
	}
	res, err := r.Invoke("First")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != byte(9) {
		t.Fatalf("First: %#v", res[0])
	}
	if r.Calls() != 1 {
		t.Fatalf("calls: %d", r.Calls())
	}
}

func TestDerefTyped(t *testing.T) {
	n := &node{Label: "x"}
	r := NewLocalRef(n, 1)
	got, err := Deref[*node](r)
	if err != nil || got != n {
		t.Fatalf("deref: %v %v", got, err)
	}
	if _, err := Deref[*tree](r); err == nil {
		t.Fatal("wrong-type deref must fail")
	}
}

func TestUnboundRef(t *testing.T) {
	r := &Ref{}
	if _, err := r.Resolve(); !errors.Is(err, ErrUnboundRef) {
		t.Fatalf("want ErrUnboundRef, got %v", err)
	}
	if _, err := r.Invoke("First"); !errors.Is(err, ErrUnboundRef) {
		t.Fatalf("invoke: %v", err)
	}
}

// fakeFaulter counts demands and hands out a fixed object.
type fakeFaulter struct {
	mu      sync.Mutex
	demands int
	obj     any
	err     error
	remote  RemoteInvoker
}

func (f *fakeFaulter) ResolveFault() (any, RemoteInvoker, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.demands++
	return f.obj, f.remote, f.err
}

func (f *fakeFaulter) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.demands
}

type fakeRemote struct {
	mu    sync.Mutex
	calls []string
	res   []any
}

func (f *fakeRemote) RemoteInvoke(method string, args []any) ([]any, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, method)
	return f.res, nil
}

func TestFaultingRefResolvesOnce(t *testing.T) {
	target := &node{Value: []byte{5}}
	ff := &fakeFaulter{obj: target}
	r := NewFaultingRef(10, ff, nil)
	if r.IsResolved() {
		t.Fatal("should start unresolved")
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Invoke("First")
			if err != nil {
				errs <- err
				return
			}
			if res[0] != byte(5) {
				errs <- fmt.Errorf("got %v", res[0])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ff.count() != 1 {
		t.Fatalf("fault resolved %d times, want exactly 1", ff.count())
	}
	if !r.IsResolved() {
		t.Fatal("should be resolved after invoke")
	}
}

func TestFaultErrorPropagates(t *testing.T) {
	ff := &fakeFaulter{err: errors.New("link down")}
	r := NewFaultingRef(10, ff, nil)
	if _, err := r.Invoke("First"); err == nil {
		t.Fatal("fault error must propagate")
	}
	// The ref stays unresolved and can retry.
	ff.mu.Lock()
	ff.err = nil
	ff.obj = &node{Value: []byte{1}}
	ff.mu.Unlock()
	if _, err := r.Invoke("First"); err != nil {
		t.Fatalf("retry after failed fault: %v", err)
	}
}

func TestModeRemoteUsesRemoteInvoker(t *testing.T) {
	fr := &fakeRemote{res: []any{int64(1)}}
	ff := &fakeFaulter{obj: &node{}}
	r := NewFaultingRef(10, ff, fr)
	r.SetMode(ModeRemote)
	res, err := r.Invoke("First")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != int64(1) {
		t.Fatalf("res: %#v", res)
	}
	if ff.count() != 0 {
		t.Fatal("ModeRemote must not fault the object in")
	}
	if r.IsResolved() {
		t.Fatal("ModeRemote must not resolve")
	}
	// Switching to local mode replicates on next call — the run-time
	// switch the paper advertises.
	r.SetMode(ModeLocal)
	if _, err := r.Invoke("First"); err != nil {
		t.Fatal(err)
	}
	if ff.count() != 1 || !r.IsResolved() {
		t.Fatal("ModeLocal should have faulted the object in")
	}
}

// decidingFaulter prefers RMI below a call threshold, LMI at or above it.
type decidingFaulter struct {
	fakeFaulter
	threshold uint64
}

func (d *decidingFaulter) PreferLocal(n uint64) bool { return n >= d.threshold }

func TestModeAutoCrossover(t *testing.T) {
	fr := &fakeRemote{res: []any{int64(0)}}
	df := &decidingFaulter{threshold: 3}
	df.obj = &node{}
	r := NewFaultingRef(10, df, fr)
	r.SetMode(ModeAuto)
	// Calls 1 and 2 go remote; call 3 crosses over and replicates.
	for i := 0; i < 2; i++ {
		if _, err := r.Invoke("First"); err != nil {
			t.Fatal(err)
		}
	}
	if df.count() != 0 {
		t.Fatal("crossed over too early")
	}
	if _, err := r.Invoke("First"); err != nil {
		t.Fatal(err)
	}
	if df.count() != 1 || !r.IsResolved() {
		t.Fatal("third call should have replicated")
	}
	fr.mu.Lock()
	remoteCalls := len(fr.calls)
	fr.mu.Unlock()
	if remoteCalls != 2 {
		t.Fatalf("remote calls: %d, want 2", remoteCalls)
	}
}

func TestModeRemoteAfterResolutionStillRMI(t *testing.T) {
	fr := &fakeRemote{res: []any{int64(7)}}
	n := &node{Value: []byte{1}}
	r := NewLocalRef(n, 5)
	r.SetRemote(fr)
	r.SetMode(ModeRemote)
	res, err := r.Invoke("First")
	if err != nil || res[0] != int64(7) {
		t.Fatalf("res=%v err=%v", res, err)
	}
	r.SetMode(ModeLocal)
	res, err = r.Invoke("First")
	if err != nil || res[0] != byte(1) {
		t.Fatalf("local res=%v err=%v", res, err)
	}
}

func TestBindLocalSplice(t *testing.T) {
	ff := &fakeFaulter{obj: &node{}}
	r := NewFaultingRef(10, ff, nil)
	replica := &node{Label: "replica"}
	r.BindLocal(replica, 10)
	got, err := Deref[*node](r)
	if err != nil || got != replica {
		t.Fatalf("deref: %v %v", got, err)
	}
	if ff.count() != 0 {
		t.Fatal("bound ref must not fault")
	}
}

func TestOIDString(t *testing.T) {
	for oid, want := range map[OID]string{
		OID(uint64(3)<<48 | 42): "3/42",
		0:                       "0/0",
		OID(^uint64(0)):         "65535/281474976710655",
	} {
		if got := oid.String(); got != want {
			t.Fatalf("oid %#x string: %q, want %q", uint64(oid), got, want)
		}
	}
}

func TestRefString(t *testing.T) {
	r := NewLocalRef(&node{}, 1)
	if s := r.String(); s == "" {
		t.Fatal("empty string")
	}
	r2 := NewFaultingRef(2, &fakeFaulter{}, nil)
	if s := r2.String(); s == "" {
		t.Fatal("empty string")
	}
}

func TestInvocationModeString(t *testing.T) {
	for m, want := range map[InvocationMode]string{
		ModeLocal:         "local",
		ModeRemote:        "remote",
		ModeAuto:          "auto",
		InvocationMode(9): "mode(9)",
	} {
		if got := m.String(); got != want {
			t.Fatalf("mode %d: %q want %q", m, got, want)
		}
	}
}

// payloadHeavy has many non-ref fields: the plan cache must skip them all.
type payloadHeavy struct {
	A, B, C, D [256]byte
	S1, S2     string
	N1, N2, N3 int64
	Blob       []byte
	Next       *Ref
}

func (p *payloadHeavy) Kind() string { return "heavy" }

func init() {
	MustRegisterType("objmodel_test.heavy", (*payloadHeavy)(nil))
}

func TestRefsOfPlanCorrectness(t *testing.T) {
	h := &payloadHeavy{Blob: make([]byte, 1<<16)}
	if refs := RefsOf(h); len(refs) != 0 {
		t.Fatalf("refs in ref-less heavy object: %d", len(refs))
	}
	h.Next = &Ref{}
	refs := RefsOf(h)
	if len(refs) != 1 || refs[0] != h.Next {
		t.Fatalf("plan missed the direct ref: %v", refs)
	}
}

func TestRefsOfNilAndNonStruct(t *testing.T) {
	if refs := RefsOf((*payloadHeavy)(nil)); refs != nil {
		t.Fatalf("nil pointer: %v", refs)
	}
}

func TestCouldContainRefRecursiveTypes(t *testing.T) {
	type selfRef struct {
		Next *selfRef
		R    *Ref
	}
	if !couldContainRef(reflect.TypeOf(selfRef{})) {
		t.Fatal("recursive type with ref must report true")
	}
	type pureChain struct {
		Next *pureChain
		N    int
	}
	if couldContainRef(reflect.TypeOf(pureChain{})) {
		t.Fatal("ref-free recursive type must report false")
	}
}

func BenchmarkRefsOfHeavyPayload(b *testing.B) {
	h := &payloadHeavy{Blob: make([]byte, 4096), Next: &Ref{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := RefsOf(h); len(got) != 1 {
			b.Fatal("wrong refs")
		}
	}
}

func BenchmarkRefsOfSliceOfRefs(b *testing.B) {
	tr := &tree{Children: make([]*Ref, 64)}
	for i := range tr.Children {
		tr.Children[i] = &Ref{}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := RefsOf(tr); len(got) != 64 {
			b.Fatal("wrong refs")
		}
	}
}

func TestRefBindFaultAndAccessors(t *testing.T) {
	ff := &fakeFaulter{obj: &node{Value: []byte{7}}}
	fr := &fakeRemote{res: []any{int64(1)}}
	r := &Ref{}
	r.BindFault(42, ff, fr)
	if r.OID() != 42 || r.IsResolved() {
		t.Fatalf("after BindFault: %v", r)
	}
	if r.Faulter() != Faulter(ff) {
		t.Fatal("Faulter accessor")
	}
	if r.Remote() != RemoteInvoker(fr) {
		t.Fatal("Remote accessor")
	}
	if r.Mode() != ModeLocal {
		t.Fatalf("default mode: %v", r.Mode())
	}
	// BindFault with nil remote keeps the previous invoker.
	r.BindFault(43, ff, nil)
	if r.Remote() != RemoteInvoker(fr) {
		t.Fatal("nil remote must not clobber")
	}
	// Resolve through the fault, then the faulter is gone.
	if _, err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	if r.Faulter() != nil {
		t.Fatal("faulter must clear after resolution")
	}
}

func TestMustRegisterTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegisterType must panic on invalid samples")
		}
	}()
	MustRegisterType("objmodel_test.bad", 42)
}

func TestRestoreStateRejectsJunk(t *testing.T) {
	out := &node{}
	if err := RestoreState(codec.DefaultRegistry(), out, []byte{0xff, 0xff}); err == nil {
		t.Fatal("junk state must fail to restore")
	}
}
