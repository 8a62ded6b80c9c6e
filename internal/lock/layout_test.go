package lock

import (
	"reflect"
	"testing"
)

// Layout pins: what one request writes must not share a cache line with
// what every request only reads, or with what a concurrent request on
// another stripe writes. The checks use field offsets and sizes, and assume
// nothing about where an allocation starts: two byte ranges are on different
// lines when at least cacheLine bytes lie between them.

// fieldRole says who writes a field.
type fieldRole int

const (
	readMostly fieldRole = iota // loaded by every request, written by rare calls
	perRequest                  // written by every grant, release or request
	offPath                     // written by waits, Intern or introspection
)

// span is the byte range [lo, hi) of a field within its struct.
type span struct{ lo, hi uintptr }

// fieldSpans returns every named field's byte range, failing the test for a
// named field roles does not classify or a classified name that is gone.
// Blank fields (the pads) need no role.
func fieldSpans(t *testing.T, typ reflect.Type, roles map[string]fieldRole) map[string]span {
	t.Helper()
	out := map[string]span{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			continue
		}
		if _, ok := roles[f.Name]; !ok {
			t.Errorf("%v.%s has no role in the layout test: say who writes it", typ, f.Name)
		}
		out[f.Name] = span{f.Offset, f.Offset + f.Type.Size()}
	}
	for name := range roles {
		if _, ok := out[name]; !ok {
			t.Errorf("%v has no field %s any more: update the layout test", typ, name)
		}
	}
	return out
}

// apart reports whether a and b are at least a cache line apart.
func apart(a, b span) bool {
	if a.lo > b.lo {
		a, b = b, a
	}
	return b.lo >= a.hi+cacheLine
}

// checkApart fails for every read-mostly field within a cache line of a
// per-request field.
func checkApart(t *testing.T, typ reflect.Type, roles map[string]fieldRole) {
	t.Helper()
	spans := fieldSpans(t, typ, roles)
	for w, ws := range spans {
		if roles[w] != perRequest {
			continue
		}
		for r, rs := range spans {
			if roles[r] == readMostly && !apart(ws, rs) {
				t.Errorf("%v: per-request field %s [%d,%d) shares a cache line with read-mostly %s [%d,%d)",
					typ, w, ws.lo, ws.hi, r, rs.lo, rs.hi)
			}
		}
	}
}

// checkPadded fails unless every field of typ lies a cache line inside both
// ends of the struct, so that two such objects — adjacent stripes, or a
// stripe and whatever the allocator put next to it — never share a line.
func checkPadded(t *testing.T, typ reflect.Type, roles map[string]fieldRole) {
	t.Helper()
	for name, s := range fieldSpans(t, typ, roles) {
		if s.lo < cacheLine || typ.Size()-s.hi < cacheLine {
			t.Errorf("%v.%s [%d,%d) is within a cache line of an end of the %d-byte struct", typ, name, s.lo, s.hi, typ.Size())
		}
	}
}

func TestManagerLayout(t *testing.T) {
	checkApart(t, reflect.TypeOf((*Manager)(nil)).Elem(), map[string]fieldRole{
		"opts": readMostly, "shards": readMostly, "mask": readMostly,
		"txns": readMostly, "txnMask": readMostly, "deferDur": readMostly,
		"sinks": readMostly, "admission": readMostly, "injector": readMostly,
		"size": perRequest, "high": perRequest,
		"ids": offPath, "wf": offPath, "sheds": offPath, "admitDelays": offPath,
		"degradedAcq": offPath, "injected": offPath, "walkMu": offPath,
		"deferredDet": offPath, "detectorRuns": offPath,
	})
}

// Every field of a table or txn stripe is written under its latch, by the
// requests of the resources or transactions it serves.
func TestStripeLayout(t *testing.T) {
	checkPadded(t, reflect.TypeOf((*tableShard)(nil)).Elem(), map[string]fieldRole{
		"mu": perRequest, "idx": perRequest, "shift": perRequest,
		"res": perRequest, "live": perRequest, "stats": perRequest,
	})
	checkPadded(t, reflect.TypeOf((*txnShard)(nil)).Elem(), map[string]fieldRole{
		"mu": perRequest, "held": perRequest, "gen": perRequest,
		"batches": perRequest, "batchFast": perRequest, "batchFallbacks": perRequest,
	})
}
