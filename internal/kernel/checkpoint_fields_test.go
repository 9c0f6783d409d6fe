package kernel

import (
	"reflect"
	"testing"

	"repro/internal/ktrace"
	"repro/internal/types"
)

// How a checkpoint treats a Proc or LWP field that is not in the embedded
// procState or lwpState (which Snapshot saves by value).
const (
	savedApart = "saved separately"      // snapProc copies it explicitly
	recomputed = "recomputed on restore" // derived from the restored state
	smpOnly    = "SMP-only"              // used only at NCPU > 1, where Snapshot refuses
	immutable  = "immutable"             // fixed when the object is created
)

var procOutsideState = map[string]string{
	"k":      immutable,
	"mu":     smpOnly,
	"Pid":    immutable,
	"System": immutable,
	"state":  savedApart, // atomic
	"fds":    savedApart, // map, cloned; the files' own state is saved per file
	"vforkQ": recomputed, // sleeper lists are rebuilt from the LWPs' sleep state
	"intr":   recomputed, // noteIntr + clearIntr
	"ppid":   savedApart, // atomic
	"nrun":   recomputed, // counted from the restored LWP states
	"waitq":  recomputed,
	"pauseQ": recomputed,
}

var lwpOutsideState = map[string]string{
	"ID":     immutable,
	"Proc":   immutable,
	"CPU":    savedApart, // Regs, FP, Instret, AS; the TLB is flushed, NoTLB fixed
	"stateA": recomputed, // mirrors the restored state
}

// How detached treats a state field that holds references: aliased fields
// are copied as they are, cloned ones get a private copy.
const (
	aliased = "aliased"
	cloned  = "cloned"
)

var procStateRefs = map[string]string{
	"Parent":    aliased, // pointer-stable *Proc
	"Kids":      cloned,
	"Cred":      aliased, // Groups is replaced, never edited in place
	"Args":      cloned,
	"AS":        aliased, // contents saved once per address space
	"LWPs":      cloned,
	"ExecVN":    aliased,
	"ImageSyms": aliased,
	"actions":   aliased, // never written once installed; changes install a copy
	"KT":        cloned,
}

var lwpStateRefs = map[string]string{
	"suspSaved":  cloned,
	"sleepQ":     aliased, // points into a pointer-stable kernel, Proc or pipe
	"vforkChild": aliased,
}

// holdsRefs reports whether a value of type t can share memory with a copy.
func holdsRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Func,
		reflect.Interface, reflect.Chan, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return holdsRefs(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsRefs(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestCheckpointCoversEveryField makes every field of Proc and LWP a
// decision about checkpoints: a field is either in the embedded state
// struct, which Snapshot saves by value, or listed above with how Snapshot
// treats it; and every state field that holds references is listed as
// aliased or cloned. A newly added field fails here until it is placed.
func TestCheckpointCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		obj, state reflect.Type
		outside    map[string]string
		refs       map[string]string
	}{
		{reflect.TypeOf(Proc{}), reflect.TypeOf(procState{}), procOutsideState, procStateRefs},
		{reflect.TypeOf(LWP{}), reflect.TypeOf(lwpState{}), lwpOutsideState, lwpStateRefs},
	} {
		embedded := false
		for i := 0; i < c.obj.NumField(); i++ {
			f := c.obj.Field(i)
			if f.Anonymous && f.Type == c.state {
				embedded = true
				continue
			}
			if _, ok := c.outside[f.Name]; !ok {
				t.Errorf("%s.%s: move it into %s or list how checkpoints treat it", c.obj.Name(), f.Name, c.state.Name())
			}
		}
		if !embedded {
			t.Errorf("%s does not embed %s", c.obj.Name(), c.state.Name())
		}
		for name := range c.outside {
			if f, ok := c.obj.FieldByName(name); !ok || len(f.Index) != 1 {
				t.Errorf("%s.%s is listed but is not a direct field", c.obj.Name(), name)
			}
		}
		for i := 0; i < c.state.NumField(); i++ {
			f := c.state.Field(i)
			if _, ok := c.refs[f.Name]; holdsRefs(f.Type) && !ok {
				t.Errorf("%s.%s holds references: list it as aliased or cloned", c.state.Name(), f.Name)
			}
		}
		for name := range c.refs {
			if f, ok := c.state.FieldByName(name); !ok || !holdsRefs(f.Type) {
				t.Errorf("%s.%s is listed but is not a reference-holding field", c.state.Name(), name)
			}
		}
	}

	// Every field listed as cloned must come out of detached with storage
	// of its own.
	ps := procState{Kids: []*Proc{nil}, Args: []string{""}, LWPs: []*LWP{nil}, KT: ktrace.NewRing(1)}
	ls := lwpState{suspSaved: new(types.SigSet)}
	for _, c := range []struct {
		orig, copy reflect.Value
		refs       map[string]string
	}{
		{reflect.ValueOf(ps), reflect.ValueOf(ps.detached()), procStateRefs},
		{reflect.ValueOf(ls), reflect.ValueOf(ls.detached()), lwpStateRefs},
	} {
		for name, how := range c.refs {
			if how != cloned {
				continue
			}
			o, d := c.orig.FieldByName(name).Pointer(), c.copy.FieldByName(name).Pointer()
			switch {
			case o == 0:
				t.Errorf("%s.%s: give it a value in this test's fixture", c.orig.Type().Name(), name)
			case o == d:
				t.Errorf("%s.%s is listed as cloned but detached aliases it", c.orig.Type().Name(), name)
			}
		}
	}
}
