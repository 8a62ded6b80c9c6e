package query

import (
	"fmt"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/store"
	"colock/internal/txn"
)

// Executor evaluates queries inside transactions, following the paper's
// phase separation (§4.1, §4.6 advantage 6): analysis determines the
// "optimal" lock requests and stores them in a query-specific lock graph
// (the Plan); execution then requests exactly those granules from the lock
// manager while navigating the data.
type Executor struct {
	mgr  *txn.Manager
	opts core.PlannerOptions
}

// NewExecutor returns an executor over a transaction manager.
func NewExecutor(mgr *txn.Manager, opts core.PlannerOptions) *Executor {
	return &Executor{mgr: mgr, opts: opts}
}

// Result is one projected instance: its path and a deep copy of its value.
type Result struct {
	Path  store.Path
	Value store.Value
}

// Run parses, analyzes, plans and executes a query string.
func (e *Executor) Run(tx *txn.Txn, input string) ([]Result, core.Plan, error) {
	q, err := Parse(input)
	if err != nil {
		return nil, core.Plan{}, err
	}
	return e.RunQuery(tx, q)
}

// RunQuery analyzes, plans and executes a parsed query.
func (e *Executor) RunQuery(tx *txn.Txn, q *Query) ([]Result, core.Plan, error) {
	cat := e.mgr.Store().Catalog()
	an, err := Analyze(cat, q)
	if err != nil {
		return nil, core.Plan{}, err
	}
	plan, err := core.PlanQuery(cat, an.Spec, e.opts)
	if err != nil {
		return nil, core.Plan{}, err
	}
	res, err := e.execute(tx, an, plan)
	if err != nil {
		return nil, plan, err
	}
	return res, plan, nil
}

type execState struct {
	tx   *txn.Txn
	an   *Analysis
	plan core.Plan
	st   *store.Store
	// chain[i] is the instance path bound by binding i on the current row.
	chain   []store.Path
	results []Result
	seen    map[string]bool
}

func (e *Executor) execute(tx *txn.Txn, an *Analysis, plan core.Plan) ([]Result, error) {
	s := &execState{
		tx:    tx,
		an:    an,
		plan:  plan,
		st:    e.mgr.Store(),
		chain: make([]store.Path, len(an.Query.From)),
		seen:  make(map[string]bool),
	}

	// Coarsest granule: one lock on the relation covers the whole query.
	if plan.Level == 0 {
		if err := s.lockInstance(store.P(an.Spec.Relation), plan.Mode); err != nil {
			return nil, err
		}
	}

	var keys []string
	if an.Spec.ObjectBound {
		if s.st.Get(an.Spec.Relation, an.ObjectKey) == nil {
			return nil, nil // bound object absent: empty result
		}
		keys = []string{an.ObjectKey}
	} else {
		keys = s.st.Keys(an.Spec.Relation)
	}
	for _, key := range keys {
		if err := s.walk(0, store.P(an.Spec.Relation, key)); err != nil {
			return nil, err
		}
	}
	return s.results, nil
}

// lockInstance requests a protocol lock honouring the NOFOLLOW option.
func (s *execState) lockInstance(p store.Path, mode lock.Mode) error {
	if s.an.Query.NoFollow {
		return s.tx.LockPath(nil, p, mode, txn.WithNoFollow())
	}
	return s.tx.LockPath(nil, p, mode)
}

// covered reports whether the plan's coarse lock already covers instances at
// the given level.
func (s *execState) covered(level core.GranuleLevel) bool {
	return s.plan.Level < level
}

// walk processes binding idx with the given instance path, evaluating
// residual predicates and descending into deeper bindings.
func (s *execState) walk(idx int, instance store.Path) error {
	level := bindingLevel(idx)
	if s.plan.Level == level {
		if err := s.lockInstance(instance, s.plan.Mode); err != nil {
			return err
		}
	}
	s.chain[idx] = instance

	match, err := s.evalResiduals(idx, instance, s.covered(level))
	if err != nil {
		return err
	}
	if !match {
		return nil
	}

	if idx == len(s.an.Query.From)-1 {
		return s.project()
	}

	// Descend into hop idx (binding idx+1).
	hop := s.an.Spec.Hops[idx]
	collPath := instance
	for _, a := range hop.Attrs {
		collPath = collPath.Child(a)
	}
	collLevel := collectionLevel(idx)
	if s.plan.Level == collLevel {
		if err := s.lockInstance(collPath, s.plan.Mode); err != nil {
			return err
		}
	}

	if key := s.an.HopKeys[idx]; key != "" {
		elem := collPath.Child(key)
		if _, err := s.st.Lookup(elem); err != nil {
			return nil // bound element absent on this row
		}
		return s.walk(idx+1, elem)
	}

	ids, err := s.st.CollectionIDs(collPath)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := s.walk(idx+1, collPath.Child(id)); err != nil {
			return err
		}
	}
	return nil
}

// evalResiduals evaluates the residual predicates of a binding against its
// current instance, reading attribute values under locks: covered reads use
// the coarse plan lock; uncovered reads S-lock the attribute (the
// predicate-test locks the paper's footnote 5 sets aside).
func (s *execState) evalResiduals(idx int, instance store.Path, covered bool) (bool, error) {
	for _, pred := range s.an.Residual[idx] {
		p := instance
		for _, a := range pred.Path[1:] {
			p = p.Child(a)
		}
		var v store.Value
		var err error
		if covered {
			v, err = s.tx.ReadAt(p)
		} else {
			v, err = s.tx.Read(p)
		}
		if err != nil {
			return false, err
		}
		ok, err := comparePred(v, pred.Op, pred.Lit)
		if err != nil {
			return false, fmt.Errorf("query: predicate %v: %w", pred.Path, err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// project records the SELECT variable's instance of the current row,
// ensuring it carries a result lock of the plan's mode.
func (s *execState) project() error {
	sel := s.chain[s.an.SelectBinding]
	key := sel.String()
	if s.seen[key] {
		return nil
	}
	s.seen[key] = true
	selLevel := bindingLevel(s.an.SelectBinding)
	if !s.covered(selLevel) && s.plan.Level != selLevel {
		// The plan locked deeper levels only; the projected instance needs
		// its own result lock.
		if err := s.lockInstance(sel, s.plan.Mode); err != nil {
			return err
		}
	}
	proj := sel
	for _, a := range s.an.Query.SelectAttrs {
		proj = proj.Child(a)
	}
	v, err := s.tx.ReadAt(proj)
	if err != nil {
		return err
	}
	s.results = append(s.results, Result{Path: proj.Clone(), Value: v})
	return nil
}

// comparePred compares an atomic value with a literal.
func comparePred(v store.Value, op string, lit store.Value) (bool, error) {
	cmp, err := compareValues(v, lit)
	if err != nil {
		return false, err
	}
	switch op {
	case "=":
		return cmp == 0, nil
	case "<>":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case ">":
		return cmp > 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">=":
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("unknown operator %q", op)
}

func compareValues(a, b store.Value) (int, error) {
	switch x := a.(type) {
	case store.Str:
		y, ok := b.(store.Str)
		if !ok {
			return 0, typeErr(a, b)
		}
		switch {
		case x < y:
			return -1, nil
		case x > y:
			return 1, nil
		}
		return 0, nil
	case store.Int:
		switch y := b.(type) {
		case store.Int:
			return cmpF(float64(x), float64(y)), nil
		case store.Real:
			return cmpF(float64(x), float64(y)), nil
		}
		return 0, typeErr(a, b)
	case store.Real:
		switch y := b.(type) {
		case store.Int:
			return cmpF(float64(x), float64(y)), nil
		case store.Real:
			return cmpF(float64(x), float64(y)), nil
		}
		return 0, typeErr(a, b)
	case store.Bool:
		y, ok := b.(store.Bool)
		if !ok {
			return 0, typeErr(a, b)
		}
		if x == y {
			return 0, nil
		}
		if !bool(x) {
			return -1, nil
		}
		return 1, nil
	}
	return 0, fmt.Errorf("cannot compare %v values", a.Kind())
}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func typeErr(a, b store.Value) error {
	return fmt.Errorf("type mismatch: %v vs %v", a.Kind(), b.Kind())
}
