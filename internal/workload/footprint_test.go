package workload

import (
	"runtime"
	"sync"
	"testing"
)

// TestGeneratedStoreFootprint pins the live heap a generated database costs
// per cell, in the shape the benchmark generates (bench/scripts.go: 10
// c_objects, 8 robots, 2 effector references per robot, 64 effectors) at
// 256 cells. Each pin is the value measured when it was set plus about
// 10 %; it only moves down. The benchmark's peak_rss_mb follows the store's
// size at ≈1.7 MB per MB.
func TestGeneratedStoreFootprint(t *testing.T) {
	skipUnderRace(t)
	for _, c := range []struct {
		name     string
		disjoint bool
		pin      float64 // bytes per cell
	}{
		{"disjoint", true, 3800},
		{"shared", false, 5100},
	} {
		const cells = 256
		before := liveHeap()
		st := Generate(Config{Seed: 1, Cells: cells, CObjectsPerCell: 10, RobotsPerCell: 8,
			EffectorsPerRobot: 2, Effectors: 64, DisjointOnly: c.disjoint})
		perCell := float64(liveHeap()-before) / cells
		runtime.KeepAlive(st)
		t.Logf("%s: %.0f live bytes per cell (pin %.0f)", c.name, perCell, c.pin)
		if perCell > c.pin {
			t.Errorf("%s: %.0f live bytes per cell, pinned at %.0f", c.name, perCell, c.pin)
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// skipUnderRace skips a memory pin under the race detector, which gives
// allocations shadow state and makes sync.Pool drop objects on purpose; the
// second is what this probes for.
func skipUnderRace(t *testing.T) {
	t.Helper()
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != any(x) {
			t.Skip("race detector on: heap sizes mean nothing")
		}
	}
}
