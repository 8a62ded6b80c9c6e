package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// Layout pins for the protocol: its fields are loaded by every lock call
// and written almost never, its rule counters are written by every lock
// call. The stripes must keep the counter writes a cache line away from
// the fields, from each other and from the end of the struct, whatever
// alignment the allocation has; a field added later must say which kind it
// is. (internal/lock's layout test does the same for the lock manager.)

func TestProtocolLayout(t *testing.T) {
	var p Protocol
	typ := reflect.TypeOf(&p).Elem()
	readMostly := map[string]bool{
		"nm": true, "mgr": true, "auth": true, "rule4Prime": true,
		"tr": true, "fast": true, "onFastHit": true,
	}
	var headerEnd uintptr
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch {
		case f.Name == "_" || f.Name == "counters":
		case readMostly[f.Name]:
			if end := f.Offset + f.Type.Size(); end > headerEnd {
				headerEnd = end
			}
		default:
			t.Errorf("Protocol.%s has no role in the layout test: say who writes it", f.Name)
		}
	}
	var st protoStripe
	first := unsafe.Offsetof(p.counters) + unsafe.Offsetof(st.requests)
	last := unsafe.Offsetof(p.counters) + unsafe.Sizeof(p.counters)
	if first < headerEnd+cacheLine {
		t.Errorf("first counter at %d is within a cache line of the read-mostly fields (end %d)", first, headerEnd)
	}
	if unsafe.Sizeof(p)-last < cacheLine {
		t.Errorf("last stripe ends %d bytes before the end of the %d-byte Protocol, want ≥ %d", unsafe.Sizeof(p)-last, unsafe.Sizeof(p), cacheLine)
	}
	// Stripe i's counters end where stripe i+1's pad begins.
	cst := reflect.TypeOf(&st).Elem()
	lo, hi := unsafe.Sizeof(st), uintptr(0)
	for i := 0; i < cst.NumField(); i++ {
		if f := cst.Field(i); f.Name != "_" {
			lo, hi = min(lo, f.Offset), max(hi, f.Offset+f.Type.Size())
		}
	}
	if gap := unsafe.Sizeof(st) - hi + lo; gap < cacheLine {
		t.Errorf("adjacent counter stripes are %d bytes apart, want ≥ %d", gap, cacheLine)
	}
}

func TestNamerLayout(t *testing.T) {
	var nm Namer
	mu := unsafe.Offsetof(nm.mu)
	typ := reflect.TypeOf(&nm).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" || f.Name == "mu" {
			continue
		}
		if end := f.Offset + f.Type.Size(); f.Offset < mu && end+cacheLine > mu {
			t.Errorf("Namer.%s [%d,%d) is within a cache line of the writers' latch at %d", f.Name, f.Offset, end, mu)
		}
		if f.Offset > mu {
			t.Errorf("Namer.%s follows the writers' latch: cache hits read it", f.Name)
		}
	}
}
