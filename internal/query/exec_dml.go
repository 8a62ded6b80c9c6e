package query

import (
	"fmt"

	"colock/internal/core"
	"colock/internal/lock"
	"colock/internal/schema"
	"colock/internal/store"
	"colock/internal/txn"
)

// StatementResult reports what a statement did.
type StatementResult struct {
	Kind StmtKind
	// Results holds the projected rows of a SELECT.
	Results []Result
	// Affected counts updated/deleted/inserted instances.
	Affected int
	// Plan is the query-specific lock plan (zero for INSERT).
	Plan core.Plan
}

// RunStatement parses and executes any statement kind inside a transaction.
func (e *Executor) RunStatement(tx *txn.Txn, input string) (*StatementResult, error) {
	stmt, err := ParseStatement(input)
	if err != nil {
		return nil, err
	}
	return e.ExecStatement(tx, stmt)
}

// ExecStatement executes a parsed statement.
func (e *Executor) ExecStatement(tx *txn.Txn, stmt *Statement) (*StatementResult, error) {
	switch stmt.Kind {
	case StmtSelect:
		res, plan, err := e.RunQuery(tx, stmt.Query)
		if err != nil {
			return nil, err
		}
		return &StatementResult{Kind: StmtSelect, Results: res, Affected: 0, Plan: plan}, nil
	case StmtUpdate:
		return e.execUpdate(tx, stmt)
	case StmtDelete:
		return e.execDelete(tx, stmt)
	case StmtInsert:
		return e.execInsert(tx, stmt)
	}
	return nil, fmt.Errorf("query: unknown statement kind %v", stmt.Kind)
}

// execUpdate runs the underlying FOR UPDATE query, then applies the SET
// clauses to every matched instance under the already-held X coverage.
func (e *Executor) execUpdate(tx *txn.Txn, stmt *Statement) (*StatementResult, error) {
	cat := e.mgr.Store().Catalog()
	if err := e.requireModifyRight(tx, stmt.Query.From[0].Source[0]); err != nil {
		return nil, err
	}
	if err := validateSetClauses(cat, stmt); err != nil {
		return nil, err
	}
	res, plan, err := e.RunQuery(tx, stmt.Query)
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		for _, set := range stmt.Sets {
			p := r.Path
			for _, a := range set.Attrs {
				p = p.Child(a)
			}
			if err := tx.UpdateAtomicAt(p, set.Value); err != nil {
				return nil, err
			}
		}
	}
	return &StatementResult{Kind: StmtUpdate, Affected: len(res), Plan: plan}, nil
}

// validateSetClauses checks the SET attribute chains against the schema type
// of the updated variable, before any locks are taken.
func validateSetClauses(cat *schema.Catalog, stmt *Statement) error {
	an, err := Analyze(cat, stmt.Query)
	if err != nil {
		return err
	}
	t := an.ElemTypes[an.SelectBinding]
	for _, set := range stmt.Sets {
		ft := t
		for _, a := range set.Attrs {
			if ft == nil || ft.Kind != schema.KindTuple {
				return fmt.Errorf("query: SET %v: not a tuple attribute chain", set.Attrs)
			}
			ft = ft.Field(a)
			if ft == nil {
				return fmt.Errorf("query: SET %v: unknown attribute %q", set.Attrs, a)
			}
		}
		if !ft.Kind.Atomic() {
			return fmt.Errorf("query: SET %v: attribute is not atomic", set.Attrs)
		}
		if err := store.Check(set.Value, ft); err != nil {
			return fmt.Errorf("query: SET %v: %w", set.Attrs, err)
		}
	}
	return nil
}

// execDelete runs the underlying FOR UPDATE query and removes every matched
// instance: complex objects are deleted from their relation, collection
// elements are removed from their collection (which is X-locked first —
// honouring NOFOLLOW, the §4.5 robot-deletion optimization).
func (e *Executor) execDelete(tx *txn.Txn, stmt *Statement) (*StatementResult, error) {
	if err := e.requireModifyRight(tx, stmt.Query.From[0].Source[0]); err != nil {
		return nil, err
	}
	res, plan, err := e.RunQuery(tx, stmt.Query)
	if err != nil {
		return nil, err
	}
	noFollow := stmt.Query.NoFollow
	for _, r := range res {
		if len(r.Path) == 2 {
			// A complex object: the FOR UPDATE query already X-locked it.
			if err := tx.Delete(r.Path.Relation(), r.Path.Key()); err != nil {
				return nil, err
			}
			continue
		}
		// A collection element: structural changes need X on the collection.
		coll := r.Path.Parent()
		id := r.Path[len(r.Path)-1]
		if noFollow {
			if err := tx.LockPath(nil, coll, lock.X, txn.WithNoFollow()); err != nil {
				return nil, err
			}
			if err := tx.RemoveElemAt(coll, id); err != nil {
				return nil, err
			}
		} else {
			if err := tx.RemoveElem(coll, id); err != nil {
				return nil, err
			}
		}
	}
	return &StatementResult{Kind: StmtDelete, Affected: len(res), Plan: plan}, nil
}

// execInsert type-checks the tuple literal against the relation, extracts
// the key attribute, and inserts under an X lock on the new object's
// resource.
func (e *Executor) execInsert(tx *txn.Txn, stmt *Statement) (*StatementResult, error) {
	cat := e.mgr.Store().Catalog()
	rel := cat.Relation(stmt.InsertRelation)
	if rel == nil {
		return nil, fmt.Errorf("query: INSERT into unknown relation %q", stmt.InsertRelation)
	}
	if err := e.requireModifyRight(tx, stmt.InsertRelation); err != nil {
		return nil, err
	}
	if err := store.Check(stmt.InsertValue, rel.Type); err != nil {
		return nil, fmt.Errorf("query: INSERT into %q: %w", stmt.InsertRelation, err)
	}
	key := keyString(stmt.InsertValue.Get(rel.Key))
	if key == "" {
		return nil, fmt.Errorf("query: INSERT into %q: empty key attribute %q", stmt.InsertRelation, rel.Key)
	}
	if err := tx.Insert(stmt.InsertRelation, key, stmt.InsertValue); err != nil {
		return nil, err
	}
	return &StatementResult{Kind: StmtInsert, Affected: 1}, nil
}

// requireModifyRight enforces the authorization component for modifying
// statements: the transaction must hold the modify right on the target
// relation (with the default AllowAll authorizer this always passes).
func (e *Executor) requireModifyRight(tx *txn.Txn, relation string) error {
	if !e.mgr.Protocol().CanModify(tx.ID(), relation) {
		return fmt.Errorf("query: txn %d has no right to modify relation %q", tx.ID(), relation)
	}
	return nil
}

func keyString(v store.Value) string {
	switch x := v.(type) {
	case store.Str:
		return string(x)
	case store.Int:
		return x.String()
	case store.Real:
		return x.String()
	case store.Bool:
		return x.String()
	}
	return ""
}
