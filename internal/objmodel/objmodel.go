// Package objmodel provides the dynamic object-graph substrate OBIWAN
// manipulates: object identities (OIDs), a type registry, reference
// discovery by reflection, and the Ref slot type that application objects
// hold in place of direct pointers to other OBIWAN objects.
//
// The original prototype leaned on the JVM for all of this — classes are
// self-describing, object graphs serialize natively, and dynamic proxies
// implement arbitrary interfaces at run time. Go has none of it, so this
// package rebuilds the contract the paper's architecture needs:
//
//   - An OBIWAN object is a pointer to a registered struct type. Its state
//     (exported fields) is what replication ships between sites.
//   - Objects reference each other only through *Ref fields ("objects can
//     only be manipulated by means of method invocation ... no direct
//     access to internal data" — §2.1 of the paper). A Ref either holds a
//     local target (master or replica) or a proxy-out stand-in that
//     resolves the object fault on first use.
//   - RefsOf discovers an object's reference fields by reflection, which
//     is what lets the replication engine traverse reachability graphs.
package objmodel

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"

	"obiwan/internal/codec"
	"obiwan/internal/invoke"
)

// OID is a globally unique object identity. The high bits carry the id of
// the site that created the master (see heap.New), so two sites can mint
// identities without coordination.
type OID uint64

// String formats the OID as site/sequence.
func (o OID) String() string {
	return strconv.FormatUint(uint64(o)>>48, 10) + "/" + strconv.FormatUint(uint64(o)&((1<<48)-1), 10)
}

// Info describes a registered OBIWAN object type.
type Info struct {
	// Name is the stable wire name shared by all sites.
	Name string
	// Type is the struct type (pointer stripped).
	Type reflect.Type
	// Methods is the exported method set of *Type, used for LMI dispatch.
	Methods map[string]reflect.Method
}

var (
	typesMu     sync.RWMutex
	typesByName = make(map[string]*Info)
	typesByType = make(map[reflect.Type]*Info)

	refType = reflect.TypeOf((*Ref)(nil))
)

// RegisterType registers an application object type under a stable wire
// name. sample must be a struct or pointer to struct with at least one
// exported method (objects are manipulated only through methods). The type
// is simultaneously registered with the codec so its state can travel.
// Registration is idempotent for the same name/type pair.
func RegisterType(name string, sample any) error {
	t := reflect.TypeOf(sample)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return fmt.Errorf("objmodel: %q: sample must be a struct or pointer to struct, got %T", name, sample)
	}
	methods, err := invoke.MethodTable(reflect.PointerTo(t))
	if err != nil {
		return fmt.Errorf("objmodel: %q: %w", name, err)
	}
	if err := codec.Register(name, sample); err != nil {
		return fmt.Errorf("objmodel: %w", err)
	}
	info := &Info{Name: name, Type: t, Methods: methods}
	typesMu.Lock()
	defer typesMu.Unlock()
	if prev, ok := typesByName[name]; ok && prev.Type != t {
		return fmt.Errorf("objmodel: name %q already registered for %v", name, prev.Type)
	}
	typesByName[name] = info
	typesByType[t] = info
	return nil
}

// MustRegisterType is RegisterType but panics on error; for package-scoped
// registration.
func MustRegisterType(name string, sample any) {
	if err := RegisterType(name, sample); err != nil {
		panic(err)
	}
}

// InfoByName returns the registered info for a wire name.
func InfoByName(name string) (*Info, bool) {
	typesMu.RLock()
	defer typesMu.RUnlock()
	info, ok := typesByName[name]
	return info, ok
}

// InfoOf returns the registered info for obj's dynamic type.
func InfoOf(obj any) (*Info, bool) {
	t := reflect.TypeOf(obj)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil {
		return nil, false
	}
	typesMu.RLock()
	defer typesMu.RUnlock()
	info, ok := typesByType[t]
	return info, ok
}

// New creates a zero instance (pointer to struct) of the registered type.
func (i *Info) New() any { return reflect.New(i.Type).Interface() }

// CaptureState serializes obj's exported fields (its replica state).
// Reference fields encode as their target OIDs.
func CaptureState(reg *codec.Registry, obj any) ([]byte, error) {
	e := codec.NewEncoder(128)
	if err := e.EncodeStruct(reg, obj); err != nil {
		return nil, fmt.Errorf("objmodel: capture %T: %w", obj, err)
	}
	// Copy out: the encoder buffer would otherwise be retained.
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

// RestoreState decodes state into obj (a pointer to a registered struct).
// Reference fields come back unbound, carrying only their OIDs; the caller
// (the replication materializer) binds them.
func RestoreState(reg *codec.Registry, obj any, state []byte) error {
	if err := codec.NewDecoder(state).DecodeStruct(reg, obj); err != nil {
		return fmt.Errorf("objmodel: restore %T: %w", obj, err)
	}
	return nil
}

// RefsOf returns every non-nil *Ref reachable through obj's exported
// fields: direct fields, elements of slices/arrays/maps, and fields of
// nested structs (a nested struct is part of the same OBIWAN object).
// It does not follow Refs — the targets are separate objects.
//
// Discovery is driven by a cached per-type plan (see refplan.go), so
// payload-only fields cost nothing per call.
func RefsOf(obj any) []*Ref {
	v := reflect.ValueOf(obj)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return nil
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		var refs []*Ref
		collectRefs(v, &refs)
		return refs
	}
	plan := planFor(v.Type())
	if len(plan.fields) == 0 {
		return nil
	}
	var refs []*Ref
	for _, f := range plan.fields {
		fv := v.Field(f.index)
		if f.kind == refDirect {
			if !fv.IsNil() {
				refs = append(refs, fv.Interface().(*Ref))
			}
			continue
		}
		collectRefs(fv, &refs)
	}
	return refs
}

func collectRefs(v reflect.Value, out *[]*Ref) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.Type() == refType {
			*out = append(*out, v.Interface().(*Ref))
			return
		}
		collectRefs(v.Elem(), out)
	case reflect.Struct:
		plan := planFor(v.Type())
		for _, f := range plan.fields {
			fv := v.Field(f.index)
			if f.kind == refDirect {
				if !fv.IsNil() {
					*out = append(*out, fv.Interface().(*Ref))
				}
				continue
			}
			collectRefs(fv, out)
		}
	case reflect.Slice, reflect.Array:
		// Element types that cannot hold refs are skipped wholesale.
		if !couldContainRef(v.Type().Elem()) {
			return
		}
		for i := 0; i < v.Len(); i++ {
			collectRefs(v.Index(i), out)
		}
	case reflect.Map:
		if !couldContainRef(v.Type().Elem()) {
			return
		}
		iter := v.MapRange()
		for iter.Next() {
			collectRefs(iter.Value(), out)
		}
	case reflect.Interface:
		if !v.IsNil() {
			collectRefs(v.Elem(), out)
		}
	}
}
