package colock_test

import (
	"reflect"
	"testing"

	"colock/internal/engine"
	"colock/internal/obs"
)

// Counters are cumulative: nothing in the stack can be reset, and whoever
// wants one phase of a run reads before and after and subtracts (bench/ and
// the health windows do exactly that). This pins that the subtraction is
// exact — what a phase adds to the manager's, the protocol's and the
// collector's counts on a stack that has already run is what the same phase
// leaves on a fresh stack.

// phaseCounts is every count of the observed engine a reader takes deltas of.
type phaseCounts struct {
	events   map[string]uint64
	acquires uint64 // observations in the collector's acquire histograms
	holds    uint64
}

func readCounts(e *engine.Engine) phaseCounts {
	return phaseCounts{
		events:   e.Collector.EventCounts(),
		acquires: e.Collector.Aggregate(obs.OpAcquire).Count,
		holds:    e.Collector.Aggregate(obs.OpHold).Count,
	}
}

func (a phaseCounts) sub(b phaseCounts) phaseCounts {
	d := phaseCounts{events: map[string]uint64{}, acquires: a.acquires - b.acquires, holds: a.holds - b.holds}
	for k, v := range a.events {
		d.events[k] = v - b.events[k]
	}
	return d
}

// subCounters is a − b over every uint64 field of a counter struct.
func subCounters[T any](a, b T) T {
	var d T
	va, vb, vd := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(&d).Elem()
	for i := 0; i < va.NumField(); i++ {
		vd.Field(i).SetUint(va.Field(i).Uint() - vb.Field(i).Uint())
	}
	return d
}

func TestPhaseDeltaEqualsFreshStack(t *testing.T) {
	edits := cellEdits()
	phase1, phase2 := edits[:24], edits[24:]
	run := func(e *engine.Engine, script []cellEdit) {
		t.Helper()
		for i := range script {
			if err := runCellEdit(e.Txns, &script[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	used := newObservedEngine(t)
	run(used, phase1)
	mgrBase, protoBase, colBase := used.Manager.Stats(), used.Protocol.Stats(), readCounts(used)
	if mgrBase.Grants == 0 || protoBase.FastPathHits == 0 || colBase.events["grant"] == 0 {
		t.Fatalf("phase 1 left nothing to subtract: %+v %+v %+v", mgrBase, protoBase, colBase)
	}
	run(used, phase2)

	fresh := newObservedEngine(t)
	run(fresh, phase2)

	if got, want := used.Manager.Stats().Sub(mgrBase), fresh.Manager.Stats(); got != want {
		t.Errorf("manager: phase-2 delta %+v, fresh stack %+v", got, want)
	}
	if got, want := subCounters(used.Protocol.Stats(), protoBase), fresh.Protocol.Stats(); got != want {
		t.Errorf("protocol: phase-2 delta %+v, fresh stack %+v", got, want)
	}
	if got, want := readCounts(used).sub(colBase), readCounts(fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("collector: phase-2 delta %+v, fresh stack %+v", got, want)
	}
}
