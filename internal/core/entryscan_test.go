package core

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"colock/internal/authz"
	"colock/internal/lock"
	"colock/internal/schema"
	"colock/internal/store"
	"colock/internal/workload"
)

// The downward scan is compiled from the schema (schema.RefPlan). The walk it
// replaced — visit every node of the stored value, collect every reference,
// dedupe by Path.String() — survives here as the oracle the plan-driven scan
// is compared against.

// entryPointsByWalk is EntryPointsUnder as it was before the ref plan.
func entryPointsByWalk(st *store.Store, nm *Namer, n Node) ([]store.Path, error) {
	relationRefs := func(relation string) ([]store.RefAt, error) {
		var out []store.RefAt
		for _, key := range st.Keys(relation) {
			rs, err := st.Refs(store.P(relation, key))
			if err != nil {
				return nil, err
			}
			out = append(out, rs...)
		}
		return out, nil
	}
	var refs []store.RefAt
	switch n.Level {
	case LevelDatabase:
		return nil, nil
	case LevelSegment:
		for _, rel := range nm.cat.Relations() {
			if rel.Segment != n.Segment {
				continue
			}
			rs, err := relationRefs(rel.Name)
			if err != nil {
				return nil, err
			}
			refs = append(refs, rs...)
		}
		filtered := refs[:0]
		for _, r := range refs {
			trel := nm.cat.Relation(r.Target.Relation)
			if trel == nil {
				return nil, fmt.Errorf("core: unknown relation %q", r.Target.Relation)
			}
			if trel.Segment != n.Segment {
				filtered = append(filtered, r)
			}
		}
		refs = filtered
	case LevelRelation:
		rs, err := relationRefs(n.Path.Relation())
		if err != nil {
			return nil, err
		}
		refs = rs
	case LevelData:
		rs, err := st.Refs(n.Path)
		if err != nil {
			if nm.cat.Relation(n.Path.Relation()) == nil {
				return nil, err
			}
			return nil, nil
		}
		refs = rs
	}
	seen := make(map[string]bool)
	var out []store.Path
	for _, r := range refs {
		p := store.P(r.Target.Relation, r.Target.Key)
		if (n.Level == LevelRelation || n.Level == LevelData) && p.HasPrefix(n.Path) {
			continue
		}
		if k := p.String(); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// diffCatalog is a recursive catalog built to stress the scan: references at
// three depths and inside both collection kinds, a relation that references
// itself ("parts"), a relation cycle (parts → kits → parts), relations that
// share a segment with their targets, and relation names one of which is a
// prefix of another with a byte below '/' following ("kits", "kits-x"), where
// Path.String() order and (relation, key) order disagree.
func diffCatalog(t testing.TB) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog("db")
	cat.SetRecursive(true)
	for _, r := range []*schema.Relation{
		{Name: "lib", Segment: "s2", Key: "id", Type: schema.Tuple(
			schema.F("id", schema.Str()),
			schema.F("tool", schema.Str()))},
		{Name: "kits-x", Segment: "s2", Key: "id", Type: schema.Tuple(
			schema.F("id", schema.Str()),
			schema.F("uses", schema.Set(schema.Ref("lib"))))},
		{Name: "kits", Segment: "s1", Key: "id", Type: schema.Tuple(
			schema.F("id", schema.Str()),
			schema.F("main", schema.Ref("parts")),
			schema.F("spares", schema.List(schema.Ref("kits-x"))))},
		{Name: "parts", Segment: "s1", Key: "id", Type: schema.Tuple(
			schema.F("id", schema.Str()),
			schema.F("name", schema.Str()),
			schema.F("tags", schema.Set(schema.Str())),
			schema.F("spare", schema.Ref("kits-x")),
			schema.F("subparts", schema.Set(schema.Ref("parts"))),
			schema.F("steps", schema.List(schema.Tuple(
				schema.F("step_id", schema.Str()),
				schema.F("note", schema.Str()),
				schema.F("tool", schema.Ref("lib")),
				schema.F("kits", schema.Set(schema.Ref("kits"))),
				schema.F("marks", schema.List(schema.Int()))))))},
	} {
		if err := cat.AddRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// diffKeys is the key space of every relation of diffCatalog; small, so that
// histories re-reference, delete and re-insert the same objects.
var diffKeys = []string{"a", "b", "c", "d"}

type diffMutator struct {
	st  *store.Store
	rng *rand.Rand
	// keys restricts which objects are inserted, deleted and edited; nil
	// means all of diffKeys.
	keys []string
}

func (m *diffMutator) key() string {
	ks := m.keys
	if ks == nil {
		ks = diffKeys
	}
	return ks[m.rng.Intn(len(ks))]
}

// target is a reference to any key — existing or not, mutable or not.
func (m *diffMutator) target(rel string) store.Ref {
	return store.Ref{Relation: rel, Key: diffKeys[m.rng.Intn(len(diffKeys))]}
}

func (m *diffMutator) refSet(rel string, max int) *store.Set {
	s := store.NewSet()
	for i := m.rng.Intn(max + 1); i > 0; i-- {
		r := m.target(rel)
		s.Add(r.Key, r)
	}
	return s
}

func (m *diffMutator) step(id string) *store.Tuple {
	return store.NewTuple().
		Set("step_id", store.Str(id)).
		Set("note", store.Str("n")).
		Set("tool", m.target("lib")).
		Set("kits", m.refSet("kits", 2)).
		Set("marks", store.NewList().Append("m1", store.Int(1)))
}

func (m *diffMutator) object(rel, key string) *store.Tuple {
	obj := store.NewTuple().Set("id", store.Str(key))
	switch rel {
	case "lib":
		obj.Set("tool", store.Str("t"))
	case "kits-x":
		obj.Set("uses", m.refSet("lib", 3))
	case "kits":
		spares := store.NewList()
		for i := m.rng.Intn(3); i > 0; i-- {
			r := m.target("kits-x")
			spares.Append(r.Key, r)
		}
		obj.Set("main", m.target("parts")).Set("spares", spares)
	case "parts":
		steps := store.NewList()
		for i := m.rng.Intn(3); i > 0; i-- {
			id := fmt.Sprintf("st%d", i)
			steps.Append(id, m.step(id))
		}
		obj.Set("name", store.Str("p")).
			Set("tags", store.NewSet().Add("t1", store.Str("x"))).
			Set("spare", m.target("kits-x")).
			Set("subparts", m.refSet("parts", 3)).
			Set("steps", steps)
	}
	return obj
}

// mutate applies one random store operation. Errors (duplicate insert,
// missing object or element) are part of a random history and ignored.
func (m *diffMutator) mutate() {
	rels := []string{"lib", "kits-x", "kits", "parts"}
	rel, key := rels[m.rng.Intn(len(rels))], m.key()
	stepID := fmt.Sprintf("st%d", 1+m.rng.Intn(3))
	switch m.rng.Intn(9) {
	case 0, 1:
		_ = m.st.Insert(rel, key, m.object(rel, key))
	case 2:
		m.st.Delete(rel, key)
	case 3:
		r := m.target("parts")
		_ = m.st.AddElem(store.P("parts", key, "subparts"), r.Key, r)
	case 4:
		_, _ = m.st.RemoveElem(store.P("parts", key, "subparts"), diffKeys[m.rng.Intn(len(diffKeys))])
	case 5:
		_ = m.st.AddElem(store.P("parts", key, "steps"), stepID, m.step(stepID))
	case 6:
		_, _ = m.st.RemoveElem(store.P("parts", key, "steps"), stepID)
	case 7:
		_, _ = m.st.SetAtomic(store.P("parts", key, "steps", stepID, "tool"), m.target("lib"))
	case 8:
		if m.rng.Intn(2) == 0 {
			_, _ = m.st.SetAtomic(store.P("kits", key, "main"), m.target("parts"))
		} else {
			r := m.target("kits")
			_ = m.st.AddElem(store.P("parts", key, "steps", stepID, "kits"), r.Key, r)
		}
	}
}

// diffNodes lists nodes at all four levels: the database, every segment
// (one unknown), every relation, and for the given keys every object — stored
// or not — with the nodes below it, including reference BLUs, atomic BLUs,
// empty and absent collections and elements.
func diffNodes(keys []string) []Node {
	nodes := []Node{DatabaseNode(), SegmentNode("s1"), SegmentNode("s2"), SegmentNode("nope")}
	for _, rel := range []string{"lib", "kits-x", "kits", "parts"} {
		nodes = append(nodes, DataNode(store.P(rel)))
		for _, k := range keys {
			nodes = append(nodes, DataNode(store.P(rel, k)), DataNode(store.P(rel, k, "id")))
		}
	}
	for _, k := range keys {
		nodes = append(nodes,
			DataNode(store.P("kits-x", k, "uses")),
			DataNode(store.P("kits-x", k, "uses", "a")),
			DataNode(store.P("kits", k, "main")),
			DataNode(store.P("kits", k, "spares")),
			DataNode(store.P("kits", k, "spares", "b")),
			DataNode(store.P("parts", k, "tags")),
			DataNode(store.P("parts", k, "spare")),
			DataNode(store.P("parts", k, "subparts")),
			DataNode(store.P("parts", k, "subparts", k)),
			DataNode(store.P("parts", k, "steps")))
		for i := 1; i <= 3; i++ {
			s := store.P("parts", k, "steps", fmt.Sprintf("st%d", i))
			nodes = append(nodes, DataNode(s), DataNode(s.Child("tool")), DataNode(s.Child("note")),
				DataNode(s.Child("kits")), DataNode(s.Child("marks")), DataNode(s.Child("marks").Child("m1")))
		}
	}
	return nodes
}

// checkAgainstWalk compares the plan-driven scan with the oracle on every
// node, element by element and in order.
func checkAgainstWalk(t *testing.T, st *store.Store, nm *Namer, nodes []Node, when string) {
	t.Helper()
	for _, n := range nodes {
		want, werr := entryPointsByWalk(st, nm, n)
		got, gerr := EntryPointsUnder(st, nm, n)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: %v: error = %v, walk's = %v", when, n, gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %v: entry points = %v, walk found %v", when, n, got, want)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: %v: entry points = %v, walk found %v", when, n, got, want)
			}
		}
	}
}

// namerVariants are the namers the scan must work with: both BLU
// granularities. The scan classifies by the schema walk, not from the name
// cache.
func namerVariants(cat *schema.Catalog) map[string]*Namer {
	return map[string]*Namer{
		"plain":     NewNamer(cat, false),
		"coalesced": NewNamer(cat, true),
	}
}

// TestEntryPointsUnderMatchesWalk: over random histories of inserts, deletes,
// element adds and removes and re-referencing updates, the plan-driven scan
// and the full walk agree at every node after every step.
func TestEntryPointsUnderMatchesWalk(t *testing.T) {
	for name := range namerVariants(diffCatalog(t)) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				cat := diffCatalog(t)
				st := store.New(cat)
				nm := namerVariants(cat)[name]
				m := &diffMutator{st: st, rng: rand.New(rand.NewSource(seed))}
				nodes := diffNodes(diffKeys)
				checkAgainstWalk(t, st, nm, nodes, "empty store")
				for i := 0; i < 150; i++ {
					m.mutate()
					checkAgainstWalk(t, st, nm, nodes, fmt.Sprintf("seed %d step %d", seed, i))
				}
			}
		})
	}
	// An unknown relation is an error below the relation level, as before.
	cat := diffCatalog(t)
	for name, nm := range namerVariants(cat) {
		if _, err := EntryPointsUnder(store.New(cat), nm, DataNode(store.P("nope", "k"))); err == nil {
			t.Errorf("%s: unknown relation accepted", name)
		}
	}
}

// TestEntryPointsUnderConcurrentMutation runs the scans while a mutator
// rewrites objects a and b. Objects c and d are set up first and never
// mutated afterwards, though the mutator keeps re-pointing references at
// them, so every scan rooted in c or d must match the walk exactly; scans
// rooted elsewhere only have to survive (and satisfy the race detector).
func TestEntryPointsUnderConcurrentMutation(t *testing.T) {
	cat := diffCatalog(t)
	st := store.New(cat)
	setup := &diffMutator{st: st, rng: rand.New(rand.NewSource(7)), keys: []string{"c", "d"}}
	for _, rel := range []string{"lib", "kits-x", "kits", "parts"} {
		for _, k := range setup.keys {
			if err := st.Insert(rel, k, setup.object(rel, k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var stable, all []Node
	for _, n := range diffNodes(diffKeys) {
		all = append(all, n)
		if n.Level == LevelData && (n.Path.Key() == "c" || n.Path.Key() == "d") {
			stable = append(stable, n)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m := &diffMutator{st: st, rng: rand.New(rand.NewSource(8)), keys: []string{"a", "b"}}
		for {
			select {
			case <-stop:
				return
			default:
				m.mutate()
			}
		}
	}()
	nm := NewNamer(cat, false)
	var scanners sync.WaitGroup
	for g := 0; g < 3; g++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for round := 0; round < 30; round++ {
				for _, n := range all {
					got, err := EntryPointsUnder(st, nm, n)
					if err != nil {
						t.Errorf("%v: %v", n, err)
						return
					}
					if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].String() < got[j].String() }) {
						t.Errorf("%v: entry points out of order: %v", n, got)
						return
					}
				}
			}
		}()
	}
	for round := 0; round < 30; round++ {
		checkAgainstWalk(t, st, nm, stable, fmt.Sprintf("round %d", round))
	}
	scanners.Wait()
	close(stop)
	wg.Wait()
	checkAgainstWalk(t, st, nm, all, "after the mutator stopped")
}

// TestLockSeesReferenceAddedWhileWaiting closes the window between rules
// 3/4's scan and the grant, on a data node, a relation and a segment. T1
// holds X on the empty set parts/p2/bolts; T2 asks for S on a node above
// it, takes the node's entry points and parks behind T1's IX. T1 then adds
// a reference to bolts/b2, which nothing referenced before, and commits.
// T2's S covers that reference, so T2 must come back holding S on bolts/b2
// as well — without the re-check after the grant it held nothing there,
// and a transaction arriving at bolts/b2 "from the side" could X-lock it.
// In the warm case parts/p2's memo is filled before T2 asks: T2 takes the
// (empty) memo without a scan, and the write moved the store version, so
// the grant takes the entry points again.
func TestLockSeesReferenceAddedWhileWaiting(t *testing.T) {
	for _, tc := range []struct {
		name string
		node Node
		warm bool
	}{
		{"data", DataNode(store.P("parts", "p2")), false},
		{"data_warm", DataNode(store.P("parts", "p2")), true},
		{"relation", DataNode(store.P("parts")), false},
		{"segment", SegmentNode("s2"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat, st := nestedCatalogAndStore(t)
			if err := st.Insert("parts", "p2", store.NewTuple().
				Set("id", store.Str("p2")).Set("bolts", store.NewSet())); err != nil {
				t.Fatal(err)
			}
			if err := st.Insert("bolts", "b2", store.NewTuple().Set("id", store.Str("b2"))); err != nil {
				t.Fatal(err)
			}
			nm := NewNamer(cat, false)
			mgr := lock.NewManager(lock.Options{})
			defer mgr.Close()
			p := NewProtocol(mgr, st, nm, Options{})
			const t0, t1, t2 = lock.TxnID(1), lock.TxnID(2), lock.TxnID(3)

			if tc.warm {
				if err := p.Lock(t0, tc.node, lock.S); err != nil { // fills the memo
					t.Fatal(err)
				}
				p.Release(t0)
				e, err := nm.resolve(tc.node)
				if err != nil {
					t.Fatal(err)
				}
				if m := e.scan.Load(); m == nil || m.version.Load() != st.Version() || len(m.eps) != 0 {
					t.Fatalf("%v's memo after a scan = %+v at store version %d, want empty and current", tc.node, m, st.Version())
				}
			}
			scans := p.Stats().EntryPointScans
			if err := p.LockPath(t1, store.P("parts", "p2", "bolts"), lock.X); err != nil {
				t.Fatal(err)
			}
			parked := make(chan struct{})
			ctx := lock.WithParkNotify(context.Background(), func() { close(parked) })
			done := make(chan error, 1)
			go func() { done <- p.LockWith(ctx, t2, tc.node, lock.S, false, false, 0) }()
			<-parked

			if err := st.AddElem(store.P("parts", "p2", "bolts"), "b2", store.Ref{Relation: "bolts", Key: "b2"}); err != nil {
				t.Fatal(err)
			}
			p.Release(t1)
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			b2 := DataNode(store.P("bolts", "b2"))
			if got := heldMode(mgr, t2, mustResource(t, nm, b2)); got != lock.S {
				t.Errorf("T2 holds %v on bolts/b2, want S", got)
			}
			stats := p.Stats()
			if stats.LateEntryPoints != 1 {
				t.Errorf("LateEntryPoints = %d, want 1", stats.LateEntryPoints)
			}
			// T1's X on the set, T2's S on p2 and its S on b2: the re-check
			// itself is not counted as a scan.
			if got := stats.EntryPointScans - scans; tc.name == "data" && got != 3 {
				t.Errorf("EntryPointScans = %d, want 3", got)
			}
			// Exclusion holds from the side: X on bolts/b2 now conflicts.
			if err := p.LockWith(context.Background(), 4, b2, lock.X, false, false, 1); err == nil {
				t.Errorf("T4 X-locked bolts/b2 under T2's S on %v", tc.node)
			}
		})
	}
}

// TestOneEntryPointScan keeps the protocol on one source of entry points:
// the store's reference scan (Store.RefTargets) runs only inside
// entryTargets, and entryTargets runs only for the scan memo
// (Namer.entryPoints) and for EntryPointsUnder, the uncached reference the
// memo is tested against. A second caller would be a second way for a lock
// to find its entry points, one the memo's tests do not cover.
func TestOneEntryPointScan(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	callers := map[string][]string{} // callee -> enclosing functions
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := fd.Name.Name
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if st, ok := recv.(*ast.StarExpr); ok {
					recv = st.X
				}
				fn = recv.(*ast.Ident).Name + "." + fn
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch f := call.Fun.(type) {
				case *ast.Ident:
					callers[f.Name] = append(callers[f.Name], fn)
				case *ast.SelectorExpr:
					callers[f.Sel.Name] = append(callers[f.Sel.Name], fn)
				}
				return true
			})
		}
	}
	for callee, want := range map[string][]string{
		"entryTargets": {"EntryPointsUnder", "Namer.entryPoints"},
		"RefTargets":   {"entryTargets"},
	} {
		got := callers[callee]
		sort.Strings(got)
		got = slices.Compact(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s is called from %v, want %v", callee, got, want)
		}
	}
}

// benchScanNodes builds the benchmark's database shape (bench/README.md) at
// a smaller cell count and returns one node of each kind a cell edit locks.
func benchScanNodes(tb testing.TB) (*store.Store, *Namer, map[string]Node) {
	tb.Helper()
	st := workload.Generate(workload.Config{Seed: 1, Cells: 64, CObjectsPerCell: 10,
		RobotsPerCell: 8, EffectorsPerRobot: 2, Effectors: 64})
	// robot r0 of cell c0 keeps its references; r1's set is emptied.
	ids, err := st.CollectionIDs(store.P("cells", "c0", "robots", "r1", "effectors"))
	if err != nil {
		tb.Fatal(err)
	}
	for _, id := range ids {
		if _, err := st.RemoveElem(store.P("cells", "c0", "robots", "r1", "effectors"), id); err != nil {
			tb.Fatal(err)
		}
	}
	return st, NewNamer(st.Catalog(), false), map[string]Node{
		"cobject":     DataNode(store.P("cells", "c0", "c_objects", "o3")),
		"robot_empty": DataNode(store.P("cells", "c0", "robots", "r1")),
		"robot_2refs": DataNode(store.P("cells", "c0", "robots", "r0")),
		"effector":    DataNode(store.P("effectors", "e5")),
	}
}

// TestEntryPointsUnderAllocs pins the scan's steady state: a node the schema
// says holds no reference costs nothing, and neither does a node that could
// hold references but does not.
func TestEntryPointsUnderAllocs(t *testing.T) {
	st, nm, nodes := benchScanNodes(t)
	for _, name := range []string{"cobject", "effector", "robot_empty"} {
		n := nodes[name]
		if eps, err := EntryPointsUnder(st, nm, n); err != nil || len(eps) != 0 {
			t.Fatalf("%s: entry points = %v, %v", name, eps, err)
		}
		if allocs := testing.AllocsPerRun(200, func() { _, _ = EntryPointsUnder(st, nm, n) }); allocs != 0 {
			t.Errorf("%s: %v allocs per scan, want 0", name, allocs)
		}
	}
	if eps, err := EntryPointsUnder(st, nm, nodes["robot_2refs"]); err != nil || len(eps) != 2 {
		t.Fatalf("robot_2refs: entry points = %v, %v", eps, err)
	}
}

// TestDownwardLockAllocs pins propagation's steady state: a warm S lock on
// a robot that references two effectors, under the rule 4′ protocol, locks
// both entry points without allocating — the robot's scan memo holds their
// name entries, and a memo hit neither scans nor names.
func TestDownwardLockAllocs(t *testing.T) {
	skipUnlessPoolsRecycle(t)
	st, nm, nodes := benchScanNodes(t)
	p := NewProtocol(lock.NewManager(lock.Options{}), st, nm, Options{Rule4Prime: true, Authorizer: authz.DenyAll{}})
	txn := lock.TxnID(0)
	run := func() {
		txn++
		if err := p.Lock(txn, nodes["robot_2refs"], lock.S); err != nil {
			t.Fatal(err)
		}
		p.Release(txn)
	}
	run()
	if got := p.Stats().DownwardPropagations; got != 2 {
		t.Fatalf("one robot S lock made %d downward locks, want 2", got)
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("warm robot S lock with two effector references: %v allocs, want 0", allocs)
	}
}

func BenchmarkEntryPointsUnder(b *testing.B) {
	st, nm, nodes := benchScanNodes(b)
	for _, name := range []string{"cobject", "robot_empty", "robot_2refs", "effector"} {
		n := nodes[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EntryPointsUnder(st, nm, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
