package query

import (
	"fmt"
	"strings"

	"colock/internal/core"
	"colock/internal/schema"
	"colock/internal/store"
)

// Analysis is the result of resolving a query against a schema catalog:
// "Each query to be processed is first analyzed to find out which attributes
// will be accessed, and which kind of access will be done" (§4.1). The Spec
// feeds the §4.5 planner; the binding metadata drives execution.
type Analysis struct {
	Query *Query
	// Spec is the planner input derived from the query.
	Spec core.QuerySpec
	// ObjectKey is the bound complex-object key when Spec.ObjectBound.
	ObjectKey string
	// HopKeys holds the bound element ID per hop ("" for scans).
	HopKeys []string
	// SelectBinding is the index of the projected binding (0 = the
	// relation binding, i = hop i-1's element binding).
	SelectBinding int
	// Residual groups the predicates that must be evaluated by reading
	// data, keyed by binding index.
	Residual map[int][]Predicate
	// ElemTypes caches the tuple type of each binding's instances (nil for
	// non-tuple elements), index 0 being the relation's object type.
	ElemTypes []*schema.Type
}

// The analyzer's selectivity guesses for residual predicates: equality on a
// non-key attribute, and a range.
const (
	eqSelectivity    = 0.1
	rangeSelectivity = 0.3
)

// Analyze resolves the query's bindings against the catalog. The FROM chain
// must be linear: each binding after the first ranges over a collection
// reached from the previous binding's variable.
func Analyze(cat *schema.Catalog, q *Query) (*Analysis, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("query: no FROM bindings")
	}

	first := q.From[0]
	if len(first.Source) != 1 {
		return nil, fmt.Errorf("query: first binding %q must range over a relation", first.Var)
	}
	rel := cat.Relation(first.Source[0])
	if rel == nil {
		return nil, fmt.Errorf("query: unknown relation %q", first.Source[0])
	}

	an := &Analysis{
		Query:    q,
		Residual: make(map[int][]Predicate),
	}
	an.Spec.Relation = rel.Name
	an.Spec.NoFollowRefs = q.NoFollow
	if q.Update {
		an.Spec.Access = core.AccessUpdate
	}
	an.ElemTypes = []*schema.Type{rel.Type}

	// Resolve the hop chain.
	cur := rel.Type
	for i := 1; i < len(q.From); i++ {
		b := q.From[i]
		if len(b.Source) < 2 {
			return nil, fmt.Errorf("query: binding %q must navigate from a variable", b.Var)
		}
		if b.Source[0] != q.From[i-1].Var {
			return nil, fmt.Errorf("query: non-linear FROM chain: %q ranges over %q, expected %q",
				b.Var, b.Source[0], q.From[i-1].Var)
		}
		attrs := b.Source[1:]
		t := cur
		for _, a := range attrs {
			if t == nil || t.Kind != schema.KindTuple {
				return nil, fmt.Errorf("query: binding %q: %q is not a tuple attribute", b.Var, a)
			}
			t = t.Field(a)
			if t == nil {
				return nil, fmt.Errorf("query: binding %q: unknown attribute %q", b.Var, a)
			}
		}
		if t.Kind != schema.KindSet && t.Kind != schema.KindList {
			return nil, fmt.Errorf("query: binding %q: %q is not a collection", b.Var, strings.Join(attrs, "."))
		}
		an.Spec.Hops = append(an.Spec.Hops, core.Hop{Attrs: attrs, Selectivity: 1})
		an.HopKeys = append(an.HopKeys, "")
		cur = t.Elem
		an.ElemTypes = append(an.ElemTypes, cur)
	}
	an.Spec.ObjectSelectivity = 1

	// Resolve the SELECT variable.
	an.SelectBinding = -1
	for i, b := range q.From {
		if b.Var == q.Select {
			an.SelectBinding = i
			break
		}
	}
	if an.SelectBinding < 0 {
		return nil, fmt.Errorf("query: SELECT variable %q not bound", q.Select)
	}
	if len(q.SelectAttrs) > 0 {
		t := an.ElemTypes[an.SelectBinding]
		for _, a := range q.SelectAttrs {
			if t == nil || t.Kind != schema.KindTuple {
				return nil, fmt.Errorf("query: SELECT %s.%s: not a tuple attribute chain",
					q.Select, strings.Join(q.SelectAttrs, "."))
			}
			t = t.Field(a)
			if t == nil {
				return nil, fmt.Errorf("query: SELECT %s.%s: unknown attribute %q",
					q.Select, strings.Join(q.SelectAttrs, "."), a)
			}
		}
	}

	// Classify predicates: key-equality predicates bind a level; everything
	// else becomes residual and lowers the estimated selectivity.
	for _, p := range q.Where {
		idx := -1
		for i, b := range q.From {
			if b.Var == p.Path[0] {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("query: predicate references unbound variable %q", p.Path[0])
		}
		attrs := p.Path[1:]
		if len(attrs) == 0 {
			return nil, fmt.Errorf("query: predicate on bare variable %q", p.Path[0])
		}
		// Validate the attribute chain against the binding's tuple type.
		t := an.ElemTypes[idx]
		for _, a := range attrs {
			if t == nil || t.Kind != schema.KindTuple {
				return nil, fmt.Errorf("query: predicate %s: %q is not a tuple attribute", strings.Join(p.Path, "."), a)
			}
			t = t.Field(a)
			if t == nil {
				return nil, fmt.Errorf("query: predicate %s: unknown attribute %q", strings.Join(p.Path, "."), a)
			}
		}
		if !t.Kind.Atomic() || t.Kind == schema.KindRef {
			return nil, fmt.Errorf("query: predicate %s: attribute is not atomic", strings.Join(p.Path, "."))
		}

		isKeyEq := p.Op == "=" && len(attrs) == 1 && attrs[0] == keyAttr(cat, rel, idx, an)
		if isKeyEq {
			key, ok := litKey(p.Lit)
			if !ok {
				return nil, fmt.Errorf("query: key predicate %s needs a string or integer literal", strings.Join(p.Path, "."))
			}
			if idx == 0 {
				if an.Spec.ObjectBound && an.ObjectKey != key {
					return nil, fmt.Errorf("query: contradictory key predicates on %q", p.Path[0])
				}
				an.Spec.ObjectBound = true
				an.ObjectKey = key
			} else {
				h := &an.Spec.Hops[idx-1]
				if h.Bound && an.HopKeys[idx-1] != key {
					return nil, fmt.Errorf("query: contradictory key predicates on %q", p.Path[0])
				}
				h.Bound = true
				an.HopKeys[idx-1] = key
			}
			continue
		}

		an.Residual[idx] = append(an.Residual[idx], p)
		sel := rangeSelectivity
		if p.Op == "=" {
			sel = eqSelectivity
		}
		if idx == 0 {
			an.Spec.ObjectSelectivity *= sel
			if an.Spec.ObjectSelectivity < 0.01 {
				an.Spec.ObjectSelectivity = 0.01
			}
		} else {
			h := &an.Spec.Hops[idx-1]
			h.Selectivity *= sel
			if h.Selectivity < 0.01 {
				h.Selectivity = 0.01
			}
		}
	}
	return an, nil
}

// keyAttr returns the attribute name whose equality predicate binds binding
// idx: the relation key for the first binding; for element bindings the
// conventional ID attribute — the first tuple field ending in "_id" (the
// paper: "the suffix _id of an attribute name indicates a key attribute").
// Returns "" when the binding has no key attribute.
func keyAttr(cat *schema.Catalog, rel *schema.Relation, idx int, an *Analysis) string {
	if idx == 0 {
		return rel.Key
	}
	t := an.ElemTypes[idx]
	if t == nil || t.Kind != schema.KindTuple {
		return ""
	}
	for _, f := range t.Fields {
		if strings.HasSuffix(f.Name, "_id") {
			return f.Name
		}
	}
	return ""
}

// litKey renders a literal as a key/element-ID string.
func litKey(v store.Value) (string, bool) {
	switch x := v.(type) {
	case store.Str:
		return string(x), true
	case store.Int:
		return x.String(), true
	}
	return "", false
}

// bindingLevel maps a binding index to the planner's GranuleLevel of its
// instances: binding 0 → level 1 (objects), binding i → level 2i+1
// (elements of hop i-1).
func bindingLevel(idx int) core.GranuleLevel {
	if idx == 0 {
		return 1
	}
	return core.GranuleLevel(2*idx + 1)
}

// collectionLevel maps hop index i (binding i+1) to the level of its
// collection instances.
func collectionLevel(hop int) core.GranuleLevel { return core.GranuleLevel(2*hop + 2) }
