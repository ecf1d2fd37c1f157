package distnet

import (
	"reflect"
	"testing"

	"multihopbandit/internal/mwis"
	"multihopbandit/internal/protocol"
)

// TestLoopDeciderEpochSkip: in fault-free mode an unchanged weight vector
// is served from cache without re-running the agents; any change (or the
// explicit weightsUnchanged=false with moved weights) re-executes.
func TestLoopDeciderEpochSkip(t *testing.T) {
	ext := testExt(t, 15, 2, 51, "random")
	rt, err := New(Config{Ext: ext, R: 1, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ld := NewLoopDecider(rt, true)

	w := testWeights(ext, 52)
	first, err := ld.DecideEpoch(w, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same weights, unchanged flag: must be the cached result.
	again, err := ld.DecideEpoch(w, first.Winners, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("epoch skip did not return the cached result")
	}
	// Same weights, flag not set: value comparison still skips.
	cp := append([]float64(nil), w...)
	again, err = ld.DecideEpoch(cp, first.Winners, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("equal-weight decide did not skip")
	}
	st := ld.Stats()
	if st.FullDecides != 1 || st.EpochSkips != 2 {
		t.Fatalf("stats = %+v, want 1 full decide and 2 epoch skips", st)
	}
	// A moved weight re-executes.
	cp[0] = 1 - cp[0]
	moved, err := ld.DecideEpoch(cp, first.Winners, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Stats().FullDecides != 2 {
		t.Fatalf("moved weights did not re-execute: %+v", ld.Stats())
	}
	if moved.Stats.MiniTimeslots == 0 || moved.Stats.WeightBroadcasts != ext.K() {
		t.Fatalf("decision stats not populated: %+v", moved.Stats)
	}
}

// TestLoopDeciderFaultedNeverSkips: under faults every boundary must
// re-execute — each decision draws fresh decision-indexed fault outcomes.
func TestLoopDeciderFaultedNeverSkips(t *testing.T) {
	ext := testExt(t, 15, 2, 53, "random")
	rt, err := New(Config{
		Ext: ext, R: 1, D: 4,
		Transport: NewFaultTransport(NewChanTransport(), Faults{Seed: 1, Loss: 0.1}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ld := NewLoopDecider(rt, false)
	w := testWeights(ext, 54)
	if _, err := ld.DecideEpoch(w, nil, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.DecideEpoch(w, nil, true, nil); err != nil {
		t.Fatal(err)
	}
	st := ld.Stats()
	if st.EpochSkips != 0 || st.FullDecides != 2 {
		t.Fatalf("stats = %+v, want 2 full decides and no skips", st)
	}
}

// TestLoopDeciderTracer: the tracer fires on both paths with the skip flag
// set correctly.
func TestLoopDeciderTracer(t *testing.T) {
	ext := testExt(t, 12, 2, 55, "random")
	rt, err := New(Config{Ext: ext, R: 1, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ld := NewLoopDecider(rt, true)
	var skips []bool
	ld.SetTracer(func(tr *protocol.DecideTrace) { skips = append(skips, tr.EpochSkip) })
	w := testWeights(ext, 56)
	if _, err := ld.DecideEpoch(w, nil, false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.DecideEpoch(w, nil, true, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(skips, []bool{false, true}) {
		t.Fatalf("tracer skip flags = %v, want [false true]", skips)
	}
}

// TestLoopDeciderCountsSolvesAsDecider: a distnet decision solves every
// leader's ball anew, as a fresh protocol.Decider does, so both planes
// report the same memo misses and budget stops (and the same winners),
// also for budgets at which the searches stop.
func TestLoopDeciderCountsSolvesAsDecider(t *testing.T) {
	ext := testExt(t, 30, 3, 7, "random")
	w := testWeights(ext, 8)
	for _, solver := range []mwis.Solver{mwis.Hybrid{}, mwis.Exact{Budget: 2}, mwis.Exact{Budget: 4}, mwis.Exact{Budget: 16}} {
		ref, err := protocol.New(protocol.Config{Ext: ext, R: 2, D: 6, Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		dec := ref.NewDecider()
		want, err := dec.DecideEpoch(w, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Config{Ext: ext, R: 2, D: 6, Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		ld := NewLoopDecider(rt, true)
		got, err := ld.DecideEpoch(w, nil, false, nil)
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Winners, want.Winners) {
			t.Fatalf("%+v: winners diverge:\n distnet: %v\n decider: %v", solver, got.Winners, want.Winners)
		}
		gs, ws := ld.Stats(), dec.Stats()
		if gs.MemoMisses != ws.MemoMisses || gs.BudgetStops != ws.BudgetStops {
			t.Fatalf("%+v: distnet misses/stops %d/%d, decider %d/%d",
				solver, gs.MemoMisses, gs.BudgetStops, ws.MemoMisses, ws.BudgetStops)
		}
		if _, exact := solver.(mwis.Exact); exact && gs.BudgetStops == 0 {
			t.Fatalf("%+v: no search stopped at the budget", solver)
		}
		if gs.LeaderResolves() < gs.BudgetStops {
			t.Fatalf("%+v: %d budget stops over %d resolves", solver, gs.BudgetStops, gs.LeaderResolves())
		}
	}
}
