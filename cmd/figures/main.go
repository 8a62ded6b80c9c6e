// Command figures reproduces every figure of the paper from the running
// implementation, and prints the experiment tables E1-E13 that turn the
// paper's qualitative evaluation (§4.6) into measurements (DESIGN.md §5 maps
// each claim to its experiment):
//
//	figures                  # print all figures
//	figures -fig 5           # print one figure
//	figures -e all           # run every experiment (EXPERIMENTS.md scale)
//	figures -e E3,E13 -quick # run selected experiments at the small scale
//
// Figure 1: schema of the relations "cells" and "effectors";
// Figure 2: lock graphs of System R and XSQL;
// Figure 3: the queries Q1, Q2, Q3 (parsed and analyzed);
// Figure 4: the general lock graph for complex objects;
// Figure 5: the object-specific lock graph of "cells" (+ "effectors");
// Figure 6: the unit decomposition of complex object "cell c1";
// Figure 7: the exact lock sets held by Q2 and Q3.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"colock/internal/authz"
	"colock/internal/core"
	"colock/internal/experiments"
	"colock/internal/lock"
	"colock/internal/query"
	"colock/internal/schema"
	"colock/internal/store"
	"colock/internal/txn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	fig := flag.Int("fig", 0, "figure number to print (0 = all)")
	sel := flag.String("e", "", "print experiment tables instead: comma-separated ids (E1..E13) or all")
	quick := flag.Bool("quick", false, "run the -e experiments at the small scale")
	flag.Parse()

	if *sel != "" {
		run, err := selectExperiments(*sel)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range run {
			start := time.Now()
			fmt.Println(e.Run(*quick).String())
			fmt.Printf("(%s finished in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		return
	}

	printers := map[int]func(){
		1: figure1, 2: figure2, 3: figure3, 4: figure4,
		5: figure5, 6: figure6, 7: figure7,
	}
	if *fig != 0 {
		p, ok := printers[*fig]
		if !ok {
			log.Fatalf("no figure %d (have 1-7)", *fig)
		}
		p()
		return
	}
	for i := 1; i <= 7; i++ {
		printers[i]()
		fmt.Println()
	}
}

// selectExperiments resolves the -e list: "all", or comma-separated ids in
// the order given.
func selectExperiments(sel string) ([]experiments.Experiment, error) {
	if strings.EqualFold(strings.TrimSpace(sel), "all") {
		return experiments.All, nil
	}
	var run []experiments.Experiment
	for _, id := range strings.Split(sel, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		i := slices.IndexFunc(experiments.All, func(e experiments.Experiment) bool { return e.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (have E1..E13 or all)", id)
		}
		run = append(run, experiments.All[i])
	}
	return run, nil
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

func renderType(t *schema.Type, name, indent string) {
	switch t.Kind {
	case schema.KindSet, schema.KindList:
		fmt.Printf("%s%-12s %s\n", indent, name, t.Kind)
		renderType(t.Elem, "", indent+"  ")
	case schema.KindTuple:
		label := "T"
		if name != "" {
			fmt.Printf("%s%-12s %s\n", indent, name, label)
		} else {
			fmt.Printf("%s%s\n", indent, label)
		}
		for _, f := range t.Fields {
			renderType(f.Type, f.Name, indent+"  ")
		}
	case schema.KindRef:
		fmt.Printf("%s%-12s ref - - -> %s\n", indent, name, t.Target)
	default:
		fmt.Printf("%s%-12s %s\n", indent, name, t.Kind)
	}
}

func figure1() {
	header(`Figure 1: Non-Disjoint, Non-Recursive Complex Objects: Schema of "cells" and "effectors"`)
	cat := schema.PaperSchema()
	for _, rel := range []string{"cells", "effectors"} {
		r := cat.Relation(rel)
		fmt.Printf("Relation %q (segment %s, key %s)\n", r.Name, r.Segment, r.Key)
		for _, f := range r.Type.Fields {
			renderType(f.Type, f.Name, "  ")
		}
	}
}

func figure2() {
	header("Figure 2: Granularity of Locks: Lock Graphs (DAG) of System R (a) and XSQL (b)")
	fmt.Print(`(a) System R:            (b) XSQL:
    Database                 Database
       |                        |
    Segments                 Segments
     /     \                  /     \
Relations  Indexes      Relations  Indexes
     \     /                 |     /
      Tuples           Complex Objects
                             |
                          Tuples
`)
	fmt.Println("\nThe hierarchy (a) derives from the general lock graph as a special case;")
	fmt.Println("(b) adds the granule \"complex object\" between relation and tuple.")
}

func figure3() {
	header("Figure 3: Queries Q1, Q2 and Q3")
	srcs := []struct{ name, src string }{
		{"Q1", `SELECT o FROM c IN cells, o IN c.c_objects WHERE c.cell_id = 'c1' FOR READ`},
		{"Q2", `SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE`},
		{"Q3", `SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE`},
	}
	cat := schema.PaperSchema()
	for _, q := range srcs {
		parsed, err := query.Parse(q.src)
		if err != nil {
			log.Fatalf("%s: %v", q.name, err)
		}
		an, err := query.Analyze(cat, parsed)
		if err != nil {
			log.Fatalf("%s: %v", q.name, err)
		}
		fmt.Printf("%s: %s\n", q.name, parsed)
		fmt.Printf("    access=%s objectBound=%v hops=%d\n",
			an.Spec.Access, an.Spec.ObjectBound, len(an.Spec.Hops))
	}
}

func figure4() {
	header("Figure 4: General Lock Graph for Disjoint and Non-Disjoint Complex Objects")
	fmt.Print(`  Heterogeneous Lockable Unit (HeLU)  -- composed of subobjects of different types
       |            \
  Homogeneous LU    Basic LU
   (HoLU: set/list)  (BLU: atomic attributes; may be a
       |              "reference to common data" - - -> entry point of an inner unit)
  (solid lines: composed-of; dashed: transition into shared data)
`)
	cat := schema.PaperSchema()
	for _, rel := range cat.Relations() {
		g, err := core.DeriveGraph(cat, rel.Name)
		if err != nil {
			log.Fatal(err)
		}
		if err := g.CheckGeneral(cat); err != nil {
			log.Fatalf("%s violates the general graph: %v", rel.Name, err)
		}
	}
	fmt.Println("\nBoth object-specific lock graphs of Figure 5 validate against this general graph.")
}

func figure5() {
	header(`Figure 5: Object-Specific Lock Graph: Complex Relation "cells" and its Common Data ("effectors")`)
	cat := schema.PaperSchema()
	for _, rel := range []string{"cells", "effectors"} {
		g, err := core.DeriveGraph(cat, rel)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(g.Render())
		fmt.Println()
	}
}

func figure6() {
	header(`Figure 6: Complex Object "cell c1" of Relation "cells" (units, entry points, superunits)`)
	st := store.PaperDatabase()
	nm := core.NewNamer(st.Catalog(), false)
	u, err := core.ComputeUnits(st, nm, store.P("cells", "c1"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Outer unit %q (%d nodes):\n", u.Object, len(u.OuterNodes))
	for _, n := range u.OuterNodes {
		fmt.Printf("  %s\n", n)
	}
	for _, iu := range u.Inner {
		fmt.Printf("\nInner unit %q (depth %d, %d nodes), referenced from:\n", iu.EntryPoint, iu.Depth, len(iu.Nodes))
		for _, r := range iu.ReferencedFrom {
			fmt.Printf("  o-> %s\n", r)
		}
		fmt.Printf("  superunit of %s:", iu.EntryPoint)
		for _, n := range iu.Superunit {
			fmt.Printf(" %s;", n)
		}
		fmt.Println()
	}
}

// eventLog is the lock.EventSink figure 7 collects its acquisition trace in
// (single-threaded: the figure runs its queries one after the other).
type eventLog []lock.Event

func (l *eventLog) Record(e lock.Event) { *l = append(*l, e) }

func figure7() {
	header(`Figure 7: Complex Object "c1" and the Locks held by the Queries Q2 and Q3`)
	st := store.PaperDatabase()
	core.CollectStatistics(st)
	nm := core.NewNamer(st.Catalog(), false)
	auth := authz.NewTable(false)
	// Sinks are called outside the manager's shard latches, so one can
	// safely collect the acquisition trace while queries run.
	var events eventLog
	proto := core.NewProtocol(lock.NewManager(lock.Options{Sinks: []lock.EventSink{&events}}), st, nm, core.Options{
		Rule4Prime: true, Authorizer: auth,
	})
	mgr := txn.NewManager(proto, st)
	exec := query.NewExecutor(mgr, core.PlannerOptions{})

	tx2 := mgr.Begin()
	tx3 := mgr.Begin()
	auth.Grant(tx2.ID(), "cells")
	auth.Grant(tx3.ID(), "cells")
	if _, _, err := exec.Run(tx2, `SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r1' FOR UPDATE`); err != nil {
		log.Fatal(err)
	}
	if _, _, err := exec.Run(tx3, `SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = 'c1' AND r.robot_id = 'r2' FOR UPDATE`); err != nil {
		log.Fatal(err)
	}

	byRes := make(map[string][2]lock.Mode)
	for i, tx := range []*txn.Txn{tx2, tx3} {
		for _, h := range proto.Manager().HeldLocks(tx.ID()) {
			m := byRes[string(h.Resource)]
			m[i] = h.Mode
			byRes[string(h.Resource)] = m
		}
	}
	var resources []string
	for r := range byRes {
		resources = append(resources, r)
	}
	sort.Strings(resources)
	fmt.Printf("%-40s %-8s %-8s\n", "lockable unit", "Q2", "Q3")
	for _, r := range resources {
		m := byRes[r]
		q2, q3 := "", ""
		if m[0] != lock.None {
			q2 = "Q2: " + m[0].String()
		}
		if m[1] != lock.None {
			q3 = "Q3: " + m[1].String()
		}
		depth := strings.Count(r, "/")
		fmt.Printf("%-40s %-8s %-8s\n", strings.Repeat(" ", depth)+r[strings.LastIndex(r, "/")+1:], q2, q3)
	}
	fmt.Println("\n(Q2 and Q3 both hold S on effector e2: rule 4' lets them run concurrently.)")

	fmt.Println("\nLock acquisition trace of Q2 (rule 5: ancestors root-to-leaf, common data first):")
	for _, e := range events {
		if e.Txn != tx2.ID() {
			continue
		}
		fmt.Printf("  %-8s %-4s %s\n", e.Kind, e.Mode, e.Resource)
	}
	tx2.Abort()
	tx3.Abort()
	if proto.Manager().LockCount() != 0 {
		fmt.Fprintln(os.Stderr, "warning: locks leaked")
	}
}
