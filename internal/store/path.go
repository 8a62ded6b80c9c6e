package store

import (
	"fmt"
	"strings"
)

// Path addresses a node inside the database's complex-object hierarchy,
// rooted at a relation: the first segment is the relation name, the second a
// complex-object key, and the remaining segments alternate between attribute
// names and collection element IDs as the type structure dictates, e.g.
//
//	cells                                → the relation
//	cells/c1                             → complex object (root tuple)
//	cells/c1/robots                      → the robots list of c1
//	cells/c1/robots/r1                   → robot r1 (a list element)
//	cells/c1/robots/r1/trajectory        → an atomic attribute
//	cells/c1/robots/r1/effectors/e2      → a reference element
//
// Paths are the address vocabulary shared by the store, the lock-graph
// instantiation in package core, and the query executor.
type Path []string

// ParsePath splits a slash-separated path string.
func ParsePath(s string) Path {
	if s == "" {
		return nil
	}
	return Path(strings.Split(s, "/"))
}

// P builds a path from segments.
func P(segments ...string) Path { return Path(segments) }

// String renders the path slash-separated.
func (p Path) String() string { return strings.Join([]string(p), "/") }

// Relation returns the relation name (first segment), or "".
func (p Path) Relation() string {
	if len(p) == 0 {
		return ""
	}
	return p[0]
}

// Key returns the complex-object key (second segment), or "".
func (p Path) Key() string {
	if len(p) < 2 {
		return ""
	}
	return p[1]
}

// Child returns p extended by one segment.
func (p Path) Child(segment string) Path {
	out := make(Path, len(p)+1)
	copy(out, p)
	out[len(p)] = segment
	return out
}

// Parent returns the path without its last segment (nil for empty paths).
func (p Path) Parent() Path {
	if len(p) == 0 {
		return nil
	}
	return p[:len(p)-1]
}

// HasPrefix reports whether q is a prefix of p (every node is a prefix of
// itself).
func (p Path) HasPrefix(q Path) bool {
	if len(q) > len(p) {
		return false
	}
	for i := range q {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Equal reports segment-wise equality.
func (p Path) Equal(q Path) bool {
	return len(p) == len(q) && p.HasPrefix(q)
}

// Clone returns a copy of p.
func (p Path) Clone() Path {
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Validate performs cheap structural checks.
func (p Path) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("store: empty path")
	}
	for _, s := range p {
		if err := checkSegment(s); err != nil {
			return fmt.Errorf("store: path %q: %w", p, err)
		}
	}
	return nil
}

// checkSegment is the rule every path segment obeys: not empty, no '/'.
// The store holds it for every key and element ID it accepts, so that each
// of them can be addressed.
func checkSegment(s string) error {
	if s == "" {
		return fmt.Errorf("empty path segment")
	}
	if strings.Contains(s, "/") {
		return fmt.Errorf("path segment %q contains '/'", s)
	}
	return nil
}
