package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gptpfta/internal/chaos"
	"gptpfta/internal/sim"
)

// TestSnapshotRestoreIsolation guards the by-value snapshot rule: a
// snapshot must own everything it captured, so forks that diverge from it —
// one under a link-down/burst-loss plan, one fault-free — leave it intact.
// Restoring it afterwards must reproduce, component for component, a second
// snapshot taken at the same instant. Scheduler slabs hold funcs and are
// excluded from the comparison.
func TestSnapshotRestoreIsolation(t *testing.T) {
	sys := buildAndStart(t, 3, nil)
	runFor(t, sys, 20*time.Second)
	a := sys.Snapshot().(*systemSnapshot)
	b := sys.Snapshot().(*systemSnapshot)
	checkStateTypes(t, a)

	at := chaos.Duration(sys.Now()) + chaos.Duration(2*time.Second)
	plan := &chaos.Plan{Name: "isolation", Actions: []chaos.Action{
		{Op: chaos.OpLinkDown, Links: []string{"sw1-sw2"}, At: at},
		{Op: chaos.OpBurstLoss, Links: []string{"sw3-sw4"}, At: at, BadLoss: 0.5, GoodToBad: 0.1, BadToGood: 0.1},
	}}
	fork := func(plan *chaos.Plan) {
		t.Helper()
		if _, err := ForkSystem(a); err != nil {
			t.Fatal(err)
		}
		if plan != nil {
			eng, err := chaos.New(sys.Scheduler(), sys, plan)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
		}
		runFor(t, sys, 20*time.Second)
	}
	fork(plan)
	if !sys.Link("sw1-sw2").Down() {
		t.Fatal("chaos fork did not take sw1-sw2 down; the test would prove nothing")
	}
	fork(nil)

	if _, err := ForkSystem(a); err != nil {
		t.Fatal(err)
	}
	got := sys.Snapshot().(*systemSnapshot)
	if len(got.states) != len(b.states) || len(got.states) != len(sys.stateful) {
		t.Fatalf("state counts differ: restored %d, reference %d, stateful %d",
			len(got.states), len(b.states), len(sys.stateful))
	}
	for i := range b.states {
		if !reflect.DeepEqual(got.states[i], b.states[i]) {
			t.Errorf("stateful[%d] (%T): restored state differs from the reference snapshot:\n got %+v\nwant %+v",
				i, sys.stateful[i], got.states[i], b.states[i])
		}
	}
}

// checkStateTypes walks every value a system snapshot holds and requires
// each struct type named *State — a component's embedded state, copied by
// value — to hold nothing a copy would share between forks: no slice, map,
// chan, func or interface, and no pointer but *sim.Ticker (which the
// scheduler's restore revalidates).
func checkStateTypes(t *testing.T, sn *systemSnapshot) {
	t.Helper()
	w := stateWalker{t: t, seen: map[uintptr]bool{}, checked: map[reflect.Type]bool{}}
	w.walk(reflect.ValueOf(sn.sched))
	for _, v := range sn.states {
		w.walk(reflect.ValueOf(v))
	}
	if w.states == 0 {
		t.Fatal("no *State struct found in the snapshot")
	}
}

type stateWalker struct {
	t       *testing.T
	seen    map[uintptr]bool
	checked map[reflect.Type]bool
	states  int
}

var tickerType = reflect.TypeOf((*sim.Ticker)(nil))

func (w *stateWalker) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == tickerType || w.seen[v.Pointer()] {
			return
		}
		w.seen[v.Pointer()] = true
		w.walk(v.Elem())
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem())
		}
	case reflect.Struct:
		if strings.HasSuffix(v.Type().Name(), "State") && !w.checked[v.Type()] {
			w.checked[v.Type()] = true
			w.states++
			w.checkState(v.Type(), v.Type().String())
		}
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Value())
		}
	}
}

// checkState fails on any field of a state type that a value copy would
// share rather than duplicate.
func (w *stateWalker) checkState(typ reflect.Type, path string) {
	switch typ.Kind() {
	case reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.UnsafePointer:
		w.t.Errorf("%s is a %s: state structs are copied by value and must hold no references", path, typ.Kind())
	case reflect.Pointer:
		if typ != tickerType {
			w.t.Errorf("%s is a %s: *sim.Ticker is the only pointer a state struct may hold", path, typ)
		}
	case reflect.Array:
		w.checkState(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			w.checkState(typ.Field(i).Type, path+"."+typ.Field(i).Name)
		}
	}
}
